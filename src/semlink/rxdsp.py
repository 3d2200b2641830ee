"""Receiver DSP: pilot-based channel estimation and MMSE equalization.

Estimation is least-squares on the pilot rows, denoised in the delay domain by
zeroing taps beyond the cyclic prefix, then linearly interpolated (and
extrapolated) across OFDM symbols. The noise variance is taken as known.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ofdm import OfdmConfig


@dataclass(frozen=True)
class ChannelEstimate:
    h: np.ndarray  # (n_symbols, l_fft) complex
    noise_var: float

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 2:
            raise ValueError("estimate must be (n_symbols, l_fft)")
        if self.noise_var < 0:
            raise ValueError("noise variance must be non-negative")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)


def _denoise_delay(h_row: np.ndarray, l_cp: int) -> np.ndarray:
    """Zero delay-domain content at or beyond the CP length (incl. negative bins)."""
    g = np.fft.ifft(h_row)
    g[l_cp:] = 0.0
    return np.fft.fft(g)


def _pilot_estimates(rx_pilots: np.ndarray, pilots: np.ndarray, l_cp: int) -> np.ndarray:
    """Delay-denoised LS estimate on each received pilot row."""
    h_pilot = np.empty_like(pilots)
    for i, (y, p) in enumerate(zip(rx_pilots, pilots)):
        h_pilot[i] = _denoise_delay(y / p, l_cp)
    return h_pilot


def _interpolate(h_pilot: np.ndarray, pilot_rows, rows) -> np.ndarray:
    """Estimate on each symbol row in `rows` from the pilot-row estimates.

    One pilot row holds for every symbol; with more, the estimate is linear
    in the symbol index through the first two, extrapolated beyond them.
    """
    rows = list(rows)
    h = np.empty((len(rows), h_pilot.shape[1]), dtype=np.complex128)
    if len(pilot_rows) == 1:
        h[:] = h_pilot[0]
        return h
    j0, j1 = pilot_rows[0], pilot_rows[1]
    slope = (h_pilot[1] - h_pilot[0]) / (j1 - j0)
    for i, j in enumerate(rows):
        h[i] = h_pilot[0] + (j - j0) * slope
    return h


def _mmse(rx: np.ndarray, h: np.ndarray, noise_var: float, signal_power: float) -> np.ndarray:
    """Per-cell MMSE equalizer: conj(H) Y / (|H|^2 + noise_var / signal_power)."""
    denom = np.abs(h) ** 2 + noise_var / signal_power
    return np.conj(h) * rx / denom


def estimate(
    rx_grid: np.ndarray,
    pilots: np.ndarray,
    cfg: OfdmConfig,
    noise_var: float,
) -> ChannelEstimate:
    """LS pilot estimation with delay-domain denoising and linear time interpolation."""
    rx_grid = np.asarray(rx_grid, dtype=np.complex128)
    pilots = np.asarray(pilots, dtype=np.complex128)
    rows = cfg.pilot_rows_idx
    if rx_grid.shape != (cfg.n_symbols, cfg.l_fft):
        raise ValueError(f"grid shape {rx_grid.shape} does not match config")
    if pilots.shape != (len(rows), cfg.l_fft):
        raise ValueError(f"pilot block must be ({len(rows)}, {cfg.l_fft})")
    if np.min(np.abs(pilots)) < 1e-9:
        raise ValueError("pilot symbols must be bounded away from zero")

    h_pilot = _pilot_estimates(rx_grid[list(rows)], pilots, cfg.l_cp)
    h = _interpolate(h_pilot, rows, range(cfg.n_symbols))
    return ChannelEstimate(h, float(noise_var))


def equalize_mmse(
    rx_grid: np.ndarray,
    est: ChannelEstimate,
    signal_power: float = 1.0,
) -> np.ndarray:
    """Per-cell MMSE equalizer: conj(H) Y / (|H|^2 + noise_var / signal_power)."""
    rx_grid = np.asarray(rx_grid, dtype=np.complex128)
    if rx_grid.shape != est.h.shape:
        raise ValueError(f"grid shape {rx_grid.shape} does not match estimate")
    return _mmse(rx_grid, est.h, est.noise_var, signal_power)

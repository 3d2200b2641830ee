"""Receiver DSP: pilot-based channel estimation and MMSE equalization.

Estimation is least-squares on the pilot rows, denoised in the delay domain by
zeroing taps beyond the cyclic prefix (van de Beek et al., "On channel
estimation in OFDM systems", VTC 1995), then linearly interpolated (and
extrapolated) across OFDM symbols. The noise variance is taken as known, and
SNR is defined per unit mean symbol power (channel.SIGNAL_POWER).

Both steps take any set of symbol rows and return plain arrays. The estimate
is linear in the received pilots, and its line across symbols (interpolate)
commutes with the transform back to the subcarriers. The link relies on both:
it never forms a pilot row, but draws the l_cp delay taps that the
truncation keeps of each pilot row, from the channel (channel.delay_response)
and from the noise (channel.noise_cells), takes their line across symbols and
transforms that back once (link.RoundDraws). The equalizer works cell by
cell, so the link runs it on its payload cells only. Its full-grid oracle
(tests/test_link.py) runs estimate and equalize_mmse on every row, so
tests/test_rxdsp.py, not that oracle, checks this arithmetic.
"""

from __future__ import annotations

import numpy as np


def estimate(rx_pilots: np.ndarray, pilots: np.ndarray, pilot_rows, rows, l_cp: int) -> np.ndarray:
    """Channel estimate on each symbol row in `rows`, shaped (len(rows), l_fft).

    rx_pilots[i] is the received pilot row pilot_rows[i], which carried
    pilots[i]. One pilot row's estimate holds for every symbol; with more, the
    estimate is linear in the symbol index through the first two, extrapolated
    beyond them, and further pilot rows are not read.
    """
    rx_pilots = np.asarray(rx_pilots, dtype=np.complex128)
    pilots = np.asarray(pilots, dtype=np.complex128)
    if not pilot_rows:
        raise ValueError("estimation needs at least one pilot row")
    if pilots.ndim != 2 or len(pilots) != len(pilot_rows) or rx_pilots.shape != pilots.shape:
        raise ValueError(f"pilot blocks must both hold {len(pilot_rows)} rows of one width")
    if np.min(np.abs(pilots)) < 1e-9:
        raise ValueError("pilot symbols must be bounded away from zero")

    g = np.fft.ifft(rx_pilots[:2] / pilots[:2], axis=1)
    g[:, l_cp:] = 0.0  # delay-domain content at or beyond the CP, incl. negative bins
    return interpolate(np.fft.fft(g, axis=1), pilot_rows, rows)


def interpolate(per_pilot: np.ndarray, pilot_rows, rows) -> np.ndarray:
    """Per-pilot-row vectors (..., n, K) carried to each symbol row in `rows`,
    shaped (..., len(rows), K): one pilot row's vector holds for every
    symbol; with more, the line through the first two in the symbol index,
    extrapolated beyond them. Further rows are not read. The arithmetic is
    elementwise, so each of a stack's leading indices is bitwise its own."""
    offset = np.asarray(list(rows), dtype=np.int64) - pilot_rows[0]
    if per_pilot.shape[-2] == 1:
        return np.repeat(per_pilot[..., :1, :], len(offset), axis=-2)
    slope = (per_pilot[..., 1, :] - per_pilot[..., 0, :]) / (pilot_rows[1] - pilot_rows[0])
    return per_pilot[..., :1, :] + offset[:, None] * slope[..., None, :]


def equalize_mmse(rx: np.ndarray, h: np.ndarray, noise_var: float) -> np.ndarray:
    """Per-cell MMSE equalizer for unit-power symbols: conj(H) Y / (|H|^2 + noise_var);
    noise_var is a float or an array that broadcasts against the cells."""
    rx = np.asarray(rx, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if rx.shape != h.shape:
        raise ValueError(f"received shape {rx.shape} does not match estimate {h.shape}")
    if np.any(np.asarray(noise_var) < 0):
        raise ValueError("noise variance must be non-negative")
    return np.conj(h) * rx / (np.abs(h) ** 2 + noise_var)

"""Receiver DSP: pilot-based channel estimation and MMSE equalization.

Estimation is least-squares on the pilot rows, denoised in the delay domain by
zeroing taps beyond the cyclic prefix, then linearly interpolated (and
extrapolated) across OFDM symbols. The noise variance is taken as known, and
SNR is defined per unit mean symbol power (channel.SIGNAL_POWER).

Both steps take any set of symbol rows and return plain arrays. The estimate
is linear in the received pilots, which the link relies on: it estimates
from the noiseless pilots and from the pilot rows' noise apart, and adds the
two at each SNR (link.RoundDraws). The equalizer works cell by cell, so the
link runs it on its payload cells only. Its full-grid oracle runs both on
every row, so tests/test_rxdsp.py, not that oracle, checks this arithmetic.
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
    h_pilot = np.fft.fft(g, axis=1)
    offset = np.asarray(list(rows), dtype=np.int64) - pilot_rows[0]
    if len(h_pilot) == 1:
        return np.repeat(h_pilot[:1], len(offset), axis=0)
    slope = (h_pilot[1] - h_pilot[0]) / (pilot_rows[1] - pilot_rows[0])
    return h_pilot[0] + offset[:, None] * slope


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

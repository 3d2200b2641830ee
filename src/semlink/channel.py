"""Tapped-delay-line fading channel with per-symbol Gauss-Markov evolution.

Each tap is a circular complex Gaussian whose symbol-to-symbol correlation is
the Clarke/Jakes J0(2 pi f_D T_sym), from its power series (Abramowitz & Stegun
9.1.10). The channel is applied multiplicatively on the resource grid.

SNR is defined per unit mean symbol power (SIGNAL_POWER): noise_variance is
the one SNR rule of the link, its MMSE equalizer and the codec's surrogate
channel.

The link (link.RoundDraws) and its full-grid oracle share realize and
freq_response. Noise is drawn apart: apply draws the whole grid at once,
the link row by row (_noise_rows), and the oracle checks they agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ofdm import OfdmConfig

SPEED_OF_LIGHT = 2.99792458e8
SIGNAL_POWER = 1.0  # mean per-symbol power every SNR is defined on


@dataclass(frozen=True)
class ChannelProfile:
    delays: tuple[float, ...]  # seconds, ascending, first tap at 0
    powers: tuple[float, ...]  # mean tap powers, sum to 1
    speed: float  # m/s

    def __post_init__(self):
        if len(self.delays) != len(self.powers) or not self.delays:
            raise ValueError("delays and powers must be equal-length and non-empty")
        d = np.asarray(self.delays, dtype=np.float64)
        p = np.asarray(self.powers, dtype=np.float64)
        if np.any(d < 0) or np.any(np.diff(d) <= 0) and len(d) > 1:
            raise ValueError("delays must be non-negative and strictly ascending")
        if np.any(p <= 0):
            raise ValueError("tap powers must be positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"tap powers must sum to 1, got {p.sum()}")
        if self.speed < 0:
            raise ValueError("speed must be non-negative")

    @property
    def n_taps(self) -> int:
        return len(self.delays)


def default_profile(speed_kmh: float = 50.0, n_taps: int = 6, spacing: float = 0.5e-6,
                    decay: float = 0.5e-6) -> ChannelProfile:
    """Exponential power-delay profile on uniformly spaced taps."""
    delays = np.arange(n_taps) * spacing
    powers = np.exp(-delays / decay)
    powers /= powers.sum()
    return ChannelProfile(tuple(delays.tolist()), tuple(powers.tolist()), speed_kmh / 3.6)


@dataclass(frozen=True)
class ChannelRealization:
    taps: np.ndarray  # (n_symbols, n_taps) complex tap amplitudes
    delays: np.ndarray  # (n_taps,) seconds

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        delays = np.asarray(self.delays, dtype=np.float64)
        if taps.ndim != 2 or delays.shape != (taps.shape[1],):
            raise ValueError("taps must be (n_symbols, n_taps) matching delays")
        taps.setflags(write=False)
        delays.setflags(write=False)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "delays", delays)

    @property
    def n_symbols(self) -> int:
        return self.taps.shape[0]


def doppler_frequency(profile: ChannelProfile, cfg: OfdmConfig) -> float:
    return profile.speed * cfg.carrier_freq / SPEED_OF_LIGHT


def j0(x: float) -> float:
    """Bessel J0(x) = sum_k (-x^2/4)^k / (k!)^2 (Abramowitz & Stegun 9.1.10),
    summed left to right over 20 terms: within 1e-12 of J0 for |x| < 8."""
    return sum((-x * x / 4.0) ** k / math.factorial(k) ** 2 for k in range(20))


def symbol_correlation(profile: ChannelProfile, cfg: OfdmConfig) -> float:
    """First-order tap correlation between adjacent OFDM symbols: the Clarke/Jakes
    J0(x) at x = 2 pi f_D T_sym by the A&S 9.1.10 series (j0); ValueError for x >= 8."""
    x = 2.0 * np.pi * doppler_frequency(profile, cfg) * cfg.symbol_duration
    if not x < 8.0:  # about 6,900 km/h at the default numerology
        raise ValueError(f"channel too fast: 2 pi f_D T_sym = {x:.3g} must stay below 8")
    return j0(x)


def _check_delays(profile: ChannelProfile, cfg: OfdmConfig) -> None:
    cp_duration = cfg.l_cp / cfg.sample_rate
    if max(profile.delays) >= cp_duration:
        raise ValueError(
            f"max tap delay {max(profile.delays):.3e} s must stay below the CP "
            f"duration {cp_duration:.3e} s"
        )


def realize(profile: ChannelProfile, cfg: OfdmConfig, n_symbols: int, seed: int) -> ChannelRealization:
    """Draw tap trajectories for n_symbols OFDM symbols.

    Taps start in the stationary distribution and evolve as a first-order
    Gauss-Markov process, so per-symbol variance stays at the profile power and
    the lag-1 correlation equals symbol_correlation.
    """
    _check_delays(profile, cfg)
    rng = np.random.Generator(np.random.PCG64(seed))
    m = profile.n_taps
    p = np.asarray(profile.powers)
    rho = symbol_correlation(profile, cfg)
    innov_scale = np.sqrt(max(0.0, 1.0 - rho * rho))

    # symbol j draws the real then the imaginary parts of its m innovations
    g = rng.standard_normal((n_symbols, 2, m))
    z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    innov_amp = innov_scale * np.sqrt(p)
    taps = np.empty((n_symbols, m), dtype=np.complex128)
    taps[0] = np.sqrt(p) * z[0]
    for j in range(1, n_symbols):
        taps[j] = rho * taps[j - 1] + innov_amp * z[j]
    return ChannelRealization(taps, np.asarray(profile.delays))


@functools.lru_cache(maxsize=16)
def _phases(l_fft: int, subcarrier_spacing: float, delays: tuple[float, ...]) -> np.ndarray:
    """Read-only tap-to-subcarrier phase matrix exp(-2i pi k df tau_m), (l_fft, n_taps)."""
    k = np.arange(l_fft)
    phases = np.exp(-2j * np.pi * subcarrier_spacing * np.outer(k, np.asarray(delays)))
    phases.setflags(write=False)
    return phases


def freq_response(real: ChannelRealization, cfg: OfdmConfig, rows=None) -> np.ndarray:
    """H[j, k] = sum_m a_m(j) exp(-2i pi k df tau_m) for j in `rows` (every symbol if None)."""
    rows = range(real.n_symbols) if rows is None else rows
    phases = _phases(cfg.l_fft, cfg.subcarrier_spacing, tuple(real.delays.tolist()))
    return real.taps[list(rows)] @ phases.T


def noise_variance(snr_db: float) -> float:
    """Per-complex-symbol noise variance at snr_db over SIGNAL_POWER; ValueError
    unless snr_db is finite."""
    if not math.isfinite(snr_db):
        raise ValueError(f"bad value for snr_db: must be finite, got {snr_db}")
    return SIGNAL_POWER / (10.0 ** (snr_db / 10.0))


def apply(
    grid: np.ndarray,
    real: ChannelRealization,
    cfg: OfdmConfig,
    snr_db: float | None,
    noise_seed: int = 0,
) -> np.ndarray:
    """Multiply the grid by the frequency response and add white noise.

    snr_db=None disables noise. The noise realization depends only on
    noise_seed and the grid shape, so sweeping SNR with a fixed seed rescales
    one common draw. Noise-stream contract, shared with the row-sparse link
    (_noise_rows): a PCG64 generator seeded with noise_seed draws the real
    parts of the whole (n_symbols, l_fft) grid in row-major order, then the
    imaginary parts; cell (j, k) gets (re + 1j * im) / sqrt(2) scaled by the
    noise standard deviation.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape != (real.n_symbols, cfg.l_fft):
        raise ValueError(f"grid shape {grid.shape} does not match realization/config")
    rx = freq_response(real, cfg) * grid
    if snr_db is not None:
        rng = np.random.Generator(np.random.PCG64(noise_seed))
        z = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) / np.sqrt(2.0)
        rx = rx + np.sqrt(noise_variance(snr_db)) * z
    return rx


def _noise_rows(noise_seed: int, shape: tuple[int, int], rows) -> np.ndarray:
    """Rows `rows` of the unit-variance noise block apply draws for a grid of `shape`.

    Draws the same stream as apply, one row at a time, and keeps only the
    rows asked for, so no full-grid temporary is allocated.
    """
    n_symbols, l_fft = shape
    rng = np.random.Generator(np.random.PCG64(noise_seed))
    slot = {r: i for i, r in enumerate(rows)}
    parts = np.empty((2, len(slot), l_fft))
    unused = np.empty(l_fft)
    for part in parts:  # real parts of every row, then imaginary parts
        for j in range(n_symbols):
            rng.standard_normal(out=part[slot[j]] if j in slot else unused)
    return (parts[0] + 1j * parts[1]) / np.sqrt(2.0)


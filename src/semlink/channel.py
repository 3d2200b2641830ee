"""Tapped-delay-line fading channel with per-symbol Gauss-Markov evolution.

Each tap is a circular complex Gaussian whose symbol-to-symbol correlation is
the Clarke/Jakes J0(2 pi f_D T_sym), from its power series (Abramowitz & Stegun
9.1.10). The channel is applied multiplicatively on the resource grid.

ChannelProfile is the INI file's [channel] section (config): its four keys
are checked where it is made, and set the exponential power-delay profile
and the speed that every function here reads. default_profile is another
name for it.

SNR is defined per unit mean symbol power (SIGNAL_POWER): noise_variance is
the one SNR rule of the link, its MMSE equalizer and the codec's surrogate
channel.

The link (link.RoundDraws) and its full-grid oracle share realize and
freq_response. The one noise rule: each symbol row's noise comes from its own
"noise-row" stream, so a row's draws do not depend on which other rows a
caller simulates. The link draws from it only what its receiver reads
(noise_cells): on a payload row its payload cells, and on a pilot row the
l_cp delay taps that the estimator keeps of that row's noise. apply, the
oracle's channel, draws whole rows (_noise_rows).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ofdm import OfdmConfig
from .seeding import derive_seed

SPEED_OF_LIGHT = 2.99792458e8
SIGNAL_POWER = 1.0  # mean per-symbol power every SNR is defined on


@dataclass(frozen=True)
class ChannelProfile:
    """The [channel] section: an exponential power-delay profile on n_taps
    taps tap_spacing apart, decaying with time constant tap_decay, at
    speed_kmh. delays (seconds, the first tap at 0), powers (summing to 1)
    and speed (m/s) are derived from the keys when the profile is made."""

    speed_kmh: float = 50.0
    n_taps: int = 6
    tap_spacing: float = 0.5e-6
    tap_decay: float = 0.5e-6

    def __post_init__(self):
        if not self.speed_kmh >= 0.0:
            raise ValueError(f"speed_kmh must be >= 0, got {self.speed_kmh}")
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        for name in ("tap_spacing", "tap_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        delays = np.arange(self.n_taps) * self.tap_spacing
        powers = np.exp(-delays / self.tap_decay)
        powers /= powers.sum()
        object.__setattr__(self, "delays", tuple(delays.tolist()))
        object.__setattr__(self, "powers", tuple(powers.tolist()))
        object.__setattr__(self, "speed", self.speed_kmh / 3.6)


default_profile = ChannelProfile


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


def check_delays(profile: ChannelProfile, cfg: OfdmConfig) -> None:
    """ValueError unless every tap delay falls inside the cyclic prefix."""
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
    check_delays(profile, cfg)
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


@functools.lru_cache(maxsize=16)
def _lags(l_fft: int, subcarrier_spacing: float, delays: tuple[float, ...], l_cp: int) -> np.ndarray:
    """Read-only (n_taps, l_cp) map from tap amplitudes to the first l_cp
    samples of the inverse DFT of the frequency response: ifft of _phases' columns, cut."""
    lags = np.fft.ifft(_phases(l_fft, subcarrier_spacing, delays).T, axis=1)[:, :l_cp].copy()
    lags.setflags(write=False)
    return lags


def delay_response(real: ChannelRealization, cfg: OfdmConfig, rows) -> np.ndarray:
    """ifft(H[j])[:l_cp] for j in `rows`, shaped (len(rows), l_cp): the delay
    taps that the LS estimator (rxdsp.estimate) keeps of a noiseless pilot row."""
    lags = _lags(cfg.l_fft, cfg.subcarrier_spacing, tuple(real.delays.tolist()), cfg.l_cp)
    return real.taps[list(rows)] @ lags


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

    snr_db=None disables noise. The noise is _noise_rows(noise_seed, every
    row, l_fft) scaled by the noise standard deviation, so sweeping SNR with a
    fixed seed rescales one common draw, and row j's noise is the same
    whichever other rows a caller simulates.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape != (real.n_symbols, cfg.l_fft):
        raise ValueError(f"grid shape {grid.shape} does not match realization/config")
    rx = freq_response(real, cfg) * grid
    if snr_db is not None:
        z = _noise_rows(noise_seed, range(real.n_symbols), cfg.l_fft)
        rx = rx + np.sqrt(noise_variance(snr_db)) * z
    return rx


def noise_cells(noise_seed: int, row: int, n: int, spread: int = 1) -> np.ndarray:
    """Circular complex Gaussian noise of variance 1/spread on n cells, from
    symbol row `row`'s stream: a PCG64 generator seeded with
    derive_seed(noise_seed, "noise-row", row) draws x = standard_normal((n, 2)),
    and cell k gets (x[k, 0] + 1j * x[k, 1]) / sqrt(2 * spread). A draw of
    fewer cells is a prefix of a longer one.

    The link draws a payload row's payload cells with spread 1, and a pilot
    row's l_cp delay taps with spread l_fft: that is the law of the taps the
    LS estimator keeps of a row of unit-variance white noise over QPSK pilots.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(noise_seed, "noise-row", row)))
    x = rng.standard_normal((n, 2))
    return (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0 * spread)


def _noise_rows(noise_seed: int, rows, l_fft: int) -> np.ndarray:
    """Unit-variance circular complex Gaussian noise on the symbol rows `rows`,
    shaped (len(rows), l_fft).

    Noise-stream contract: row j's noise depends only on (noise_seed, j). A
    PCG64 generator seeded with derive_seed(noise_seed, "noise-row", j) draws
    the row's l_fft real parts, then its l_fft imaginary parts; cell k gets
    (re[k] + 1j * im[k]) / sqrt(2). This is the full-grid oracle's noise
    (apply). The link reads the same streams in noise_cells' order, so its
    cells have this law, not these values.
    """
    parts = np.empty((len(rows), 2, l_fft))
    for part, j in zip(parts, rows):
        rng = np.random.Generator(np.random.PCG64(derive_seed(noise_seed, "noise-row", j)))
        rng.standard_normal(out=part)
    return (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)

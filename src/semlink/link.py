"""One-shot physical link: frame, fade, estimate, equalize, extract.

Shared by codec evaluation, detector corpus construction, and the
retransmission protocols. Channel and noise draws are controlled by explicit
seeds so sessions are reproducible and SNR sweeps can share common draws.
SNR is defined per unit mean symbol power (channel.SIGNAL_POWER), which every
payload has: codec symbols are normalized to it, QAM constellations have it.

The link is row-sparse: per round it simulates only the symbol rows whose
received values reach the output. Those are the pilot rows the estimator
interpolates through (the first two, or the only one), at full width because
the estimate is denoised in the delay domain, and the data rows the payload
occupies. Every other cell of the frame carries zero padding or an unused
pilot. Each row's noise comes from its own stream (channel._noise_rows), so
the rows the link draws carry the noise the full grid has on them.

rxdsp.estimate is linear in the received pilots: with y = H_p*p + sigma*z_p
it equals estimate(H_p*p) + sigma*estimate(z_p) up to rounding. So a round
makes two estimates per set of data rows, not one per SNR: a, from the
noiseless pilots, which is what a noiseless call uses, and b, from the pilot
rows' noise alone, on the first noisy call. A transmit call at noise standard
deviation sigma then works on its n payload cells only: it receives
H*x + sigma*z, estimates a + sigma*b, and equalizes with rxdsp.equalize_mmse.
A noiseless call draws no noise and makes no b. A call given a 1-D array of
SNRs runs them as one batch, each row bitwise that call at its SNR alone.

Its oracle (tests/test_link.py) runs the receiver on every row of the full
grid, ofdm.frame_build -> channel.apply -> rxdsp.estimate -> equalize_mmse
-> ofdm.frame_extract, with its own payload placement. Noiseless calls are
bitwise equal to it. With noise the received cells are bitwise equal, and
the estimate is within rounding of the oracle's; the test states the bound.

A RoundDraws holds what a round's link computes from its seeds alone: the
pilot rows, the channel realization and, per set of simulated data rows, H
with a, and the noise with b. None of it depends on the payload or the SNR.
One instance passed to every transmit call with the same seeds computes each
part once for all those calls. A sweep's harness.SessionCache keeps one per
session index and round, and sends each round's symbols once, at every SNR
of the sweep; other callers pass none and make their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import ofdm, rxdsp
from .seeding import derive_seed
from .tensors import _frozen


@dataclass(frozen=True)
class LinkSeeds:
    pilot: int
    channel: int
    noise: int

    @classmethod
    def derive(cls, master_seed: int, stream: str, *index: int) -> "LinkSeeds":
        """The seeds of `stream` at `index`: those of "{stream}-pilot",
        "{stream}-chan" and "{stream}-noise" (seeding.derive_seed)."""
        return cls(*(derive_seed(master_seed, f"{stream}-{p}", *index) for p in ("pilot", "chan", "noise")))


class RoundDraws:
    """The seed-determined parts of one link round, each made on first use.

    Holds the pilot rows rxdsp.estimate reads and the channel realization.
    Per set of simulated data rows it holds, flattened row-major over those
    rows: H and a, the estimate from the noiseless pilots (clean); and, once
    a call is noisy, the unit-variance noise and b, the estimate from the
    pilot rows' noise alone (noisy). Every array is read-only.
    A transmit call given draws made for other seeds, another config or
    another channel profile raises ValueError.
    """

    def __init__(self, cfg: ofdm.OfdmConfig, profile: chan.ChannelProfile, seeds: LinkSeeds):
        self.cfg = cfg
        self.profile = profile
        self.seeds = seeds
        self.pilot_rows = cfg.pilot_rows_idx[:2]  # the rows rxdsp.estimate reads
        self.pilots = _frozen(ofdm.pilot_rows(cfg, seeds.pilot)[: len(self.pilot_rows)])
        self.real = chan.realize(profile, cfg, cfg.n_symbols, seeds.channel)
        self._clean = {}
        self._noisy = {}

    def _estimate(self, rx_pilots: np.ndarray, data_rows: tuple[int, ...]) -> np.ndarray:
        est = rxdsp.estimate(rx_pilots, self.pilots, self.pilot_rows, data_rows, self.cfg.l_cp)
        return _frozen(est.reshape(-1))

    def clean(self, data_rows: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(H, a) on `data_rows`: the channel, and the estimate from the pilots
        received without noise."""
        if data_rows not in self._clean:
            n_p = len(self.pilot_rows)
            h = chan.freq_response(self.real, self.cfg, self.pilot_rows + data_rows)
            a = self._estimate(h[:n_p] * self.pilots, data_rows)
            self._clean[data_rows] = (_frozen(h[n_p:].reshape(-1)), a)
        return self._clean[data_rows]

    def noisy(self, data_rows: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(z, b) on `data_rows`: the unit-variance noise, and the estimate from
        the pilot rows' noise alone."""
        if data_rows not in self._noisy:
            n_p = len(self.pilot_rows)
            z = chan._noise_rows(self.seeds.noise, self.pilot_rows + data_rows, self.cfg.l_fft)
            b = self._estimate(z[:n_p], data_rows)
            self._noisy[data_rows] = (_frozen(z[n_p:].reshape(-1)), b)
        return self._noisy[data_rows]


def _transmit(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    draws: RoundDraws | None,
):
    """Row-sparse link core; returns (equalized payload, estimated H at the
    payload cells, noise_var); a 1-D snr_db of B SNRs gives (B, n), (B, n)
    and (B,), row b bitwise that of a call at snr_db[b] alone."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    n = symbols.size
    if n > cfg.payload_capacity:
        raise ValueError(f"payload of {n} symbols exceeds capacity {cfg.payload_capacity}")
    if draws is None:
        draws = RoundDraws(cfg, profile, seeds)
    elif (draws.seeds, draws.cfg, draws.profile) != (seeds, cfg, profile):
        raise ValueError("round draws were made for other seeds, config or channel profile")
    data_rows = cfg.data_rows_idx[: -(-n // cfg.l_fft)]

    response, a = draws.clean(data_rows)
    rx, h = response[:n] * symbols, a[:n]
    if snr_db is None:
        return rxdsp.equalize_mmse(rx, h, 0.0), h, 0.0
    # one scalar noise_variance per SNR: each row's sigma is that of a lone call
    var = np.array([[chan.noise_variance(s)] for s in np.ravel(snr_db).tolist()])
    z, b = draws.noisy(data_rows)
    sigma = np.sqrt(var)
    rx, h = rx + sigma * z[:n], h + sigma * b[:n]
    eq = rxdsp.equalize_mmse(rx, h, var)
    return (eq, h, var[:, 0]) if np.ndim(snr_db) else (eq[0], h[0], float(var[0, 0]))


def transmit_symbols(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    *,
    draws: RoundDraws | None = None,
) -> np.ndarray:
    """Send payload symbols through one faded OFDM frame; return equalized payload.

    `draws`, if given, supplies this round's seed-determined draws (RoundDraws).
    A 1-D snr_db sends them at each of its SNRs: one (B, n) row per SNR.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)[0]


def transmit_with_state(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    *,
    draws: RoundDraws | None = None,
):
    """transmit_symbols variant that also returns per-symbol channel state.

    Returns (equalized payload, estimated H at the payload cells, noise_var);
    the channel state is what symbol-level combining across rounds needs.
    A 1-D snr_db gives one row of each per SNR, as transmit_symbols does.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)

"""One-shot physical link: frame, fade, estimate, equalize, extract.

Shared by codec evaluation, detector corpus construction, and the
retransmission protocols. Channel and noise draws are controlled by explicit
seeds so sessions are reproducible and SNR sweeps can share common draws.
SNR is defined per unit mean symbol power (channel.SIGNAL_POWER), which every
payload has: codec symbols are normalized to it, QAM constellations have it.

The link draws only what its receiver reads. That is the channel H on the
payload cells, the noise on those cells, and the pilot estimate there.
rxdsp.estimate is the DFT-based LS estimator: divide the received pilot rows
by their pilots, keep the first l_cp delay taps, transform back, and carry
the result across symbols on a line through the first two pilot rows (or
hold the only one). It is linear in the received pilots, so with
y = H_p*p + sigma*z_p it is a + sigma*b:
- a, from the noiseless pilots. H*p/p = H, so a pilot row's kept taps are
  those of H alone, channel.delay_response.
- b, from the pilot rows' noise alone. The QPSK pilots have |p| = 1, so z/p
  has the law of z, and the l_cp kept taps of a row of unit-variance white
  noise are i.i.d. CN(0, 1/l_fft). Each pilot row draws those l_cp taps from
  its own noise stream (channel.noise_cells).
Both sets of per-pilot-row taps take the estimator's line across symbols
(rxdsp.interpolate) and one transform back to the l_fft subcarriers, and are
cut to the payload cells. No pilot, pilot row or full-width noise row is
drawn, so LinkSeeds.pilot moves nothing. Each payload row draws its payload
cells' noise from its own stream, interleaved (re, im) per cell, so a shorter
payload reads a prefix of a longer one's noise. H is channel.freq_response on
the pilot rows and the payload's rows together, which gives the full grid's
bits: one row alone takes another matrix product, which rounds differently.

A transmit call at noise standard deviation sigma works on its n payload
cells only, through receive_cells, the one function of (symbols, H, a, z, b,
sigma^2): it receives H*x + sigma*z, estimates a + sigma*b, and equalizes
with rxdsp.equalize_mmse. A noiseless call draws no noise and makes no b. A
call given a 1-D array of SNRs runs them as one batch, each row bitwise that
call at its SNR alone. The rank corpus keeps only the payload-cell parts of
its samplings (RoundDraws.cells) and receives them through receive_cells too
(detector.build_corpus), so it cannot drift from the link.

Its oracle (tests/test_link.py) runs the receiver on every row of the full
grid, ofdm.frame_build -> channel.apply -> rxdsp.estimate -> equalize_mmse
-> ofdm.frame_extract, with the link's own draws as its noise: each pilot
row's noise is the row whose kept taps are the link's draw. H and the
received cells are bitwise equal to it; a, b and the equalized cells are
within rounding of it, and the test states the bound.

A RoundDraws holds what a round's link computes from its seeds alone: the
channel realization and, per set of simulated data rows, H with a and b,
and the payload noise. None of it depends on the payload or the SNR. One
instance passed to every transmit call with the same seeds computes each
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

    Holds the channel realization. Per set of simulated data rows it holds,
    flattened row-major over those rows, H and a, the estimate from the
    noiseless pilots (clean), and, once a call is noisy, b, the estimate from
    the pilot rows' noise alone (estimate_noise). It also holds the
    unit-variance noise of the most payload cells asked for so far
    (payload_noise). Every array is read-only.
    A transmit call given draws made for other seeds, another config or
    another channel profile raises ValueError.
    """

    def __init__(self, cfg: ofdm.OfdmConfig, profile: chan.ChannelProfile, seeds: LinkSeeds):
        self.cfg = cfg
        self.profile = profile
        self.seeds = seeds
        self.pilot_rows = cfg.pilot_rows_idx[:2]  # the rows rxdsp.estimate reads
        self.real = chan.realize(profile, cfg, cfg.n_symbols, seeds.channel)
        self._clean = {}
        self._b = {}
        self._z = _frozen(np.empty(0, dtype=np.complex128))

    def _estimate(self, taps: np.ndarray, data_rows: tuple[int, ...]) -> np.ndarray:
        """The estimate on data_rows, flattened, from each pilot row's kept
        delay taps (n_p, l_cp): their line across symbols, transformed back."""
        lines = rxdsp.interpolate(taps, self.pilot_rows, data_rows)
        return _frozen(np.fft.fft(lines, n=self.cfg.l_fft).reshape(-1))

    def clean(self, data_rows: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """(H, a) on `data_rows`: the channel, and the estimate from the pilots
        received without noise."""
        if data_rows not in self._clean:
            h = chan.freq_response(self.real, self.cfg, self.pilot_rows + data_rows)
            a = self._estimate(chan.delay_response(self.real, self.cfg, self.pilot_rows), data_rows)
            self._clean[data_rows] = (_frozen(h[len(self.pilot_rows) :].reshape(-1)), a)
        return self._clean[data_rows]

    def estimate_noise(self, data_rows: tuple[int, ...]) -> np.ndarray:
        """b on `data_rows`: the estimate from the pilot rows' unit-variance
        noise alone, whose kept taps each pilot row draws."""
        if data_rows not in self._b:
            l_cp, l_fft = self.cfg.l_cp, self.cfg.l_fft
            taps = [chan.noise_cells(self.seeds.noise, j, l_cp, l_fft) for j in self.pilot_rows]
            self._b[data_rows] = self._estimate(np.stack(taps), data_rows)
        return self._b[data_rows]

    def payload_noise(self, n: int) -> np.ndarray:
        """The unit-variance noise on the first n payload cells: each data
        row's cells from its own stream, a prefix of any longer draw's."""
        if self._z.size < n:
            l_fft, seed = self.cfg.l_fft, self.seeds.noise
            rows = self.cfg.data_rows_idx[: -(-n // l_fft)]
            parts = [chan.noise_cells(seed, j, min(l_fft, n - i * l_fft)) for i, j in enumerate(rows)]
            self._z = _frozen(np.concatenate(parts))
        return self._z[:n]

    def cells(self, n: int, noisy: bool = True) -> tuple[np.ndarray, ...]:
        """(H, a, z, b) on the first n payload cells, what receive_cells reads
        of this round for an n-symbol payload at any SNR; (H, a) if not
        noisy, which draws no noise."""
        data_rows = self.cfg.data_rows_idx[: -(-n // self.cfg.l_fft)]
        h, a = self.clean(data_rows)
        if not noisy:
            return h[:n], a[:n]
        return h[:n], a[:n], self.payload_noise(n), self.estimate_noise(data_rows)[:n]


def receive_cells(symbols, h, a, z=None, b=None, noise_var=None):
    """The link on n payload cells: symbols sent through the channel h with
    noise sigma*z, sigma = sqrt(noise_var), estimated as a + sigma*b and
    MMSE-equalized; returns (equalized, estimate). Without z and b the call
    is noiseless. Parts of shape (n,) with a (B, 1) noise_var give (B, n)
    rows, one per noise variance, each bitwise that of a (1, 1) call."""
    rx = h * symbols
    if z is None:
        return rxdsp.equalize_mmse(rx, a, 0.0), a
    sigma = np.sqrt(noise_var)
    rx, est = rx + sigma * z, a + sigma * b
    return rxdsp.equalize_mmse(rx, est, noise_var), est


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
    if snr_db is None:
        return (*receive_cells(symbols, *draws.cells(n, noisy=False)), 0.0)
    # one scalar noise_variance per SNR: each row's sigma is that of a lone call
    var = np.array([[chan.noise_variance(s)] for s in np.ravel(snr_db).tolist()])
    eq, h = receive_cells(symbols, *draws.cells(n), var)
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

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
with rxdsp.equalize_mmse. _transmit, the core of both transmit functions, is
its one caller. A noiseless call draws no noise and makes no b. A call given
a 1-D array of SNRs runs them as one batch, each row bitwise that call at
its SNR alone. A call given one LinkSeeds per row (and one RoundDraws per
row, if any) sends row b of its symbols at its own SNR on its own draws:
the rows, of different seeds, stack into the one elementwise receive_cells,
each bitwise a lone call of its own. Sessions send through transmit_symbols
and transmit_with_state, a block of (session index, SNR) rows per call, and
so does the rank corpus (detector.build_corpus): one transmit_symbols call
per sampling, at the sampling's own link seeds.

Its oracle (tests/test_link.py) runs the receiver on every row of the full
grid, ofdm.frame_build -> channel.apply -> rxdsp.estimate -> equalize_mmse
-> ofdm.frame_extract, with the link's own draws as its noise: each pilot
row's noise is the row whose kept taps are the link's draw. H and the
received cells are bitwise equal to it; a, b and the equalized cells are
within rounding of it, and the test states the bound.

A RoundDraws holds what a round's link computes from its seeds alone: the
channel realization, and H, a, z and b on the payload cells of the longest
payload sent so far, none of them an OFDM symbol wide. None of it depends
on the payload or the SNR. One instance passed to every transmit call with
the same seeds computes each part once for all those calls, and a call
with the RoundDraws of many seeds computes their missing parts together: one
stacked realization, matrix product and FFT per few of them, each seed on
its own random streams, so every part is bitwise that of its seeds alone. A
sweep's harness.SessionCache keeps one per session index and round, and
sends each round's symbols once, at every (index, SNR) row of its block;
other callers pass none and make their own.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
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
    """The seed-determined parts of one link round.

    Holds the channel realization, made on first use, and the parts that
    receive_cells reads of the first n payload cells, n the largest payload
    asked for so far: H and a, the estimate from the noiseless pilots, and,
    once a call is noisy, z, the payload noise, and b, the estimate from the
    pilot rows' noise alone. No part it keeps is wider than those n cells,
    and a longer payload makes them again. Every array is read-only.
    A transmit call given draws made for other seeds, another config or
    another channel profile raises ValueError.
    """

    def __init__(self, cfg: ofdm.OfdmConfig, profile: chan.ChannelProfile, seeds: LinkSeeds):
        self.cfg = cfg
        self.profile = profile
        self.seeds = seeds
        self.pilot_rows = cfg.pilot_rows_idx[:2]  # the rows rxdsp.estimate reads
        empty = _frozen(np.empty(0, dtype=np.complex128))
        self._clean = (empty, empty)  # H, a
        self._noise = (empty, empty)  # z, b

    @functools.cached_property
    def real(self) -> chan.ChannelRealization:
        """The channel realization of the round's channel seed (_fill realizes
        those of several draws together)."""
        return chan.realize(self.profile, self.cfg, self.cfg.n_symbols, self.seeds.channel)

    def cells(self, n: int, noisy: bool = True) -> tuple[np.ndarray, ...]:
        """(H, a, z, b) on the first n payload cells, what receive_cells reads
        of this round for an n-symbol payload at any SNR; (H, a) if not
        noisy, which draws no noise."""
        if self._clean[0].size < n or noisy and self._noise[0].size < n:
            _fill_chunk([self], n, noisy)
        h, a = self._clean
        if not noisy:
            return h[:n], a[:n]
        z, b = self._noise
        return h[:n], a[:n], z[:n], b[:n]


def _estimate(cfg: ofdm.OfdmConfig, taps: np.ndarray, pilot_rows, data_rows) -> np.ndarray:
    """The estimate on data_rows, (..., len(data_rows), l_fft), from each
    pilot row's kept delay taps (..., n_p, l_cp): their line across symbols,
    transformed back by one FFT over every stacked row."""
    return np.fft.fft(rxdsp.interpolate(taps, pilot_rows, data_rows), n=cfg.l_fft)


def _clean_rows(real: chan.ChannelRealization, cfg: ofdm.OfdmConfig, pilot_rows, data_rows):
    """H and a on data_rows, (..., len(data_rows), l_fft) each, of one
    realization or a stack of them."""
    h = chan.freq_response(real, cfg, pilot_rows + data_rows)[..., len(pilot_rows) :, :]
    return h, _estimate(cfg, chan.delay_response(real, cfg, pilot_rows), pilot_rows, data_rows)


def _pilot_noise_taps(draws: RoundDraws) -> np.ndarray:
    """(n_p, l_cp): the delay taps that the estimator keeps of each pilot
    row's unit-variance noise, from the row's own stream."""
    l_cp, l_fft = draws.cfg.l_cp, draws.cfg.l_fft
    return np.stack([chan.noise_cells(draws.seeds.noise, j, l_cp, l_fft) for j in draws.pilot_rows])


# RoundDraws that _fill computes at once: the product H of each takes its
# pilot and data rows l_fft wide, 96 KiB at the default geometry, so a chunk
# of 2 bounds what one pass holds however many draws a call reaches
_FILL_CHUNK = 2


def _fill(draws, n: int, noisy: bool = True) -> None:
    """Make each RoundDraws of `draws` (one config, profile and pilot
    layout) keep its parts on at least the first n payload cells, noise too
    if noisy. The arithmetic of those that need it runs over _FILL_CHUNK of
    them at a time: their channels realized together, H by one stacked
    matrix product, a and b by one line and one FFT over the stacked rows.
    Each seed draws from its own streams, so every part is bitwise what its
    RoundDraws makes alone."""
    for k in range(0, len(draws), _FILL_CHUNK):
        _fill_chunk(draws[k : k + _FILL_CHUNK], n, noisy)


def _fill_chunk(draws, n: int, noisy: bool) -> None:
    d0 = draws[0]
    cfg, pilot_rows = d0.cfg, d0.pilot_rows
    data_rows = cfg.data_rows_idx[: -(-n // cfg.l_fft)]  # the rows that n payload cells fill
    short = [d for d in draws if d._clean[0].size < n]
    if short:
        fresh = [d for d in short if "real" not in vars(d)]
        if fresh:
            stack = chan.realize(d0.profile, cfg, cfg.n_symbols, [d.seeds.channel for d in fresh])
            for d, taps in zip(fresh, stack.taps):
                d.real = chan.ChannelRealization(taps, stack.delays)
        if len(short) == 1:  # its own 2-D product, as bitwise as a stack's
            stack = short[0].real
        elif len(fresh) < len(short):
            stack = chan.ChannelRealization(np.stack([d.real.taps for d in short]), d0.real.delays)
        h, a = (x.reshape(len(short), -1)[:, :n] for x in _clean_rows(stack, cfg, pilot_rows, data_rows))
        for d, hd, ad in zip(short, h, a):
            d._clean = (_frozen(hd.copy()), _frozen(ad.copy()))
    short = [d for d in draws if d._noise[0].size < n] if noisy else []
    if short:
        taps = [_pilot_noise_taps(d) for d in short]
        b = _estimate(cfg, taps[0] if len(short) == 1 else np.stack(taps), pilot_rows, data_rows)
        for d, bd in zip(short, b.reshape(len(short), -1)[:, :n]):
            seed, l_fft = d.seeds.noise, cfg.l_fft
            z = [chan.noise_cells(seed, j, min(l_fft, n - i * l_fft)) for i, j in enumerate(data_rows)]
            d._noise = (_frozen(np.concatenate(z)), _frozen(bd.copy()))


def receive_cells(symbols, h, a, z=None, b=None, noise_var=None, at=None):
    """The link on n payload cells: symbols sent through the channel h with
    noise sigma*z, sigma = sqrt(noise_var), estimated as a + sigma*b and
    MMSE-equalized; returns (equalized, estimate). Without z and b the call
    is noiseless. Parts of shape (n,) with a (B, 1) noise_var give (B, n)
    rows, one per noise variance, each bitwise that of a (1, 1) call. With
    `at`, the parts are stacks (U, n) and row i reads part at[i]: each is
    gathered as it is read, and the rows' arithmetic is the same."""

    def part(x):
        return x if at is None else x[at]

    rx = part(h) * symbols
    if z is None:
        est = part(a)
        return rxdsp.equalize_mmse(rx, est, 0.0), est
    sigma = np.sqrt(noise_var)
    rx = rx + sigma * part(z)
    est = sigma * part(b)
    est += part(a)  # a + sigma * b: the sum is the same either way round
    return rxdsp.equalize_mmse(rx, est, noise_var), est


def _transmit(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | Sequence[float] | None,
    seeds: LinkSeeds | Sequence[LinkSeeds],
    draws: RoundDraws | Sequence[RoundDraws] | None,
):
    """Row-sparse link core; returns (equalized payload, estimated H at the
    payload cells, noise_var).

    With one LinkSeeds, the symbols are one payload: a 1-D snr_db of B SNRs
    gives (B, n), (B, n) and (B,), row b bitwise that of a call at
    snr_db[b] alone. With a sequence of B LinkSeeds, one per row of (B, n)
    symbols, row b is sent at snr_db[b] (a 1-D array of B, or None) on the
    draws of seeds[b] (draws[b] if given): the rows' parts stack into one
    elementwise receive_cells, and each row is bitwise a lone call of its
    own payload, SNR and seeds.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    noisy = snr_db is not None
    single = isinstance(seeds, LinkSeeds)
    if single:
        symbols = symbols.reshape(-1)
    elif symbols.ndim != 2 or len(symbols) != len(seeds) or draws is not None and len(draws) != len(seeds):
        raise ValueError("per-row seeds and draws need one row of symbols each")
    elif noisy and np.shape(snr_db) != (len(seeds),):
        raise ValueError("per-row seeds need one snr_db per row")
    n = symbols.shape[-1]
    if n > cfg.payload_capacity:
        raise ValueError(f"payload of {n} symbols exceeds capacity {cfg.payload_capacity}")
    if single:
        draws = RoundDraws(cfg, profile, seeds) if draws is None else draws
        if (draws.seeds, draws.cfg, draws.profile) != (seeds, cfg, profile):
            raise ValueError("round draws were made for other seeds, config or channel profile")
        parts, at = draws.cells(n, noisy), None
    else:
        if draws is None:
            made = {s: RoundDraws(cfg, profile, s) for s in seeds}
            draws = [made[s] for s in seeds]
        unique = list({id(d): d for d in draws}.values())
        if any((d.cfg, d.profile) != (cfg, profile) for d in unique) or any(
            d.seeds != s for d, s in zip(draws, seeds)
        ):
            raise ValueError("round draws were made for other seeds, config or channel profile")
        # each RoundDraws' parts once, (U, n), and which of them each row reads
        _fill(unique, n, noisy)
        parts = tuple(np.stack(p) for p in zip(*(d.cells(n, noisy) for d in unique)))
        index = {id(d): k for k, d in enumerate(unique)}
        at = np.array([index[id(d)] for d in draws], dtype=np.intp)
    if not noisy:
        return (*receive_cells(symbols, *parts, at=at), 0.0)
    # one scalar noise_variance per SNR: each row's sigma is that of a lone call
    var = np.array([[chan.noise_variance(s)] for s in np.ravel(snr_db).tolist()])
    eq, h = receive_cells(symbols, *parts, var, at=at)
    return (eq, h, var[:, 0]) if np.ndim(snr_db) else (eq[0], h[0], float(var[0, 0]))


def transmit_symbols(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | Sequence[float] | None,
    seeds: LinkSeeds | Sequence[LinkSeeds],
    *,
    draws: RoundDraws | Sequence[RoundDraws] | None = None,
) -> np.ndarray:
    """Send payload symbols through one faded OFDM frame; return equalized payload.

    `draws`, if given, supplies this round's seed-determined draws (RoundDraws).
    A 1-D snr_db sends them at each of its SNRs: one (B, n) row per SNR.
    Given one LinkSeeds per row of (B, n) symbols (and one RoundDraws per
    row, if any), row b is its own payload at snr_db[b] on its own seeds.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)[0]


def transmit_with_state(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | Sequence[float] | None,
    seeds: LinkSeeds | Sequence[LinkSeeds],
    *,
    draws: RoundDraws | Sequence[RoundDraws] | None = None,
):
    """transmit_symbols variant that also returns per-symbol channel state.

    Returns (equalized payload, estimated H at the payload cells, noise_var);
    the channel state is what symbol-level combining across rounds needs.
    A 1-D snr_db, or per-row seeds, give one row of each per SNR or row, as
    transmit_symbols does.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)

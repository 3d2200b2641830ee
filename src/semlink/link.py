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

A RoundDraws is that data for many seeds: H, a, z and b of each seed on the
first n payload cells, made once when it is built, _FILL_CHUNK seeds at a
time (_draw), and never grown. None of it depends on the payload or the SNR,
every seed draws from its own streams, and every cell from its own stream
position, so each row is bitwise that of its seed alone and a shorter
payload reads a prefix of it.

A transmit call has one form: row b of (B, n) symbols is sent at its own
SNR on its own LinkSeeds, and finds its draws by those seeds, in the
RoundDraws it is given or else in one that the call makes. A lone LinkSeeds
is a batch of one row. The rows go through receive_cells, the one function
of (symbols, H, a, z, b, sigma^2): it receives H*x + sigma*z, estimates
a + sigma*b, and equalizes with rxdsp.equalize_mmse, elementwise, so each
row is bitwise a lone call of its own. _transmit, the core of both transmit
functions, is its one caller. A noiseless call draws no noise and makes no
b. Sessions send through transmit_symbols and transmit_with_state, a block
of (session index, SNR) rows per call on the round's RoundDraws of the
block (harness._block_rows), and the rank corpus sends each query's
samplings as one transmit_symbols call, a row per sampling at its own seeds
(detector.build_corpus).

Its oracle (tests/test_link.py) runs the receiver on every row of the full
grid, ofdm.frame_build -> channel.apply -> rxdsp.estimate -> equalize_mmse
-> ofdm.frame_extract, with the link's draws as its noise: each pilot row's
noise is the row whose kept taps are the link's draw. It makes those draws
from channel.realize, freq_response, delay_response, noise_cells and
rxdsp.interpolate, not from this module. H and the received cells are
bitwise equal to it; a, b and the equalized cells are within rounding of
it, and the test states the bound.
"""

from __future__ import annotations

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


# the seeds that _draw takes at once: the product H of each takes its pilot
# and data rows l_fft wide, 96 KiB at the default geometry, so a chunk of 2
# bounds what one pass holds however many seeds a RoundDraws has
_FILL_CHUNK = 2


class RoundDraws:
    """The seed-determined parts of one link round, for each of many seeds.

    h, a, z and b are read-only (len(seeds), n) arrays, row k that of
    seeds[k] on the first n payload cells: H, the estimate from the
    noiseless pilots, the payload noise, and the estimate from the pilot
    rows' noise alone. z and b are None unless noisy. They serve every
    payload of at most n symbols, at any SNR if noisy, and none of them is
    wider than the n cells. A transmit call given draws made for other
    seeds, another config or another channel profile, shorter than its
    payload, or noiseless for a noisy call raises ValueError.
    """

    def __init__(
        self, cfg: ofdm.OfdmConfig, profile: chan.ChannelProfile, seeds: Sequence[LinkSeeds], n: int, noisy: bool
    ):
        self.cfg = cfg
        self.profile = profile
        self.seeds = tuple(seeds)
        self.n = n
        self.noisy = noisy
        self.row = {s: k for k, s in enumerate(self.seeds)}  # each seed's row
        parts = [np.empty((len(self.seeds), n), dtype=np.complex128) for _ in range(4 if noisy else 2)]
        for k in range(0, len(self.seeds), _FILL_CHUNK):
            for part, rows in zip(parts, _draw(cfg, profile, self.seeds[k : k + _FILL_CHUNK], n, noisy)):
                part[k : k + _FILL_CHUNK] = rows
        self.h, self.a, *noise = map(_frozen, parts)
        self.z, self.b = noise if noisy else (None, None)


def _estimate(cfg: ofdm.OfdmConfig, taps: np.ndarray, pilot_rows, data_rows) -> np.ndarray:
    """The estimate on data_rows, (..., len(data_rows), l_fft), from each
    pilot row's kept delay taps (..., n_p, l_cp): their line across symbols,
    transformed back by one FFT over every stacked row."""
    return np.fft.fft(rxdsp.interpolate(taps, pilot_rows, data_rows), n=cfg.l_fft)


def _draw(cfg: ofdm.OfdmConfig, profile: chan.ChannelProfile, seeds, n: int, noisy: bool) -> list[np.ndarray]:
    """[H, a] on the first n payload cells of each of a few seeds,
    (len(seeds), n) each, and z and b after them if noisy: the channels
    realized together, H by one stacked matrix product, a and b by one line
    and one FFT over the stacked rows, each seed on its own streams."""
    pilot_rows = cfg.pilot_rows_idx[:2]  # the rows rxdsp.estimate reads
    data_rows = cfg.data_rows_idx[: -(-n // cfg.l_fft)]  # the rows that n payload cells fill
    real = chan.realize(profile, cfg, cfg.n_symbols, [s.channel for s in seeds])
    h = chan.freq_response(real, cfg, pilot_rows + data_rows)[:, len(pilot_rows) :]
    parts = [h, _estimate(cfg, chan.delay_response(real, cfg, pilot_rows), pilot_rows, data_rows)]
    if noisy:
        l_cp, l_fft = cfg.l_cp, cfg.l_fft
        taps = np.array([[chan.noise_cells(s.noise, j, l_cp, l_fft) for j in pilot_rows] for s in seeds])
        z = np.empty((len(seeds), n), dtype=np.complex128)
        for i, j in enumerate(data_rows):
            cut = slice(i * l_fft, min(n, (i + 1) * l_fft))
            z[:, cut] = [chan.noise_cells(s.noise, j, cut.stop - cut.start) for s in seeds]
        parts += [z, _estimate(cfg, taps, pilot_rows, data_rows)]
    return [x.reshape(len(seeds), -1)[:, :n] for x in parts]


def receive_cells(symbols, at, h, a, z=None, b=None, noise_var=None):
    """The link on n payload cells of B rows: row i of the symbols (B, n) is
    sent through the channel h[at[i]] with noise sigma_i*z[at[i]], sigma_i =
    sqrt(noise_var[i]), estimated as a[at[i]] + sigma_i*b[at[i]] and
    MMSE-equalized; returns (equalized, estimate), (B, n) each. The parts
    are stacks (U, n), each gathered as it is read, and noise_var is (B, 1).
    Without z and b the call is noiseless. The arithmetic is elementwise,
    so each row is bitwise that row alone."""
    rx = h[at] * symbols
    if z is None:
        est = a[at]
        return rxdsp.equalize_mmse(rx, est, 0.0), est
    sigma = np.sqrt(noise_var)
    rx = rx + sigma * z[at]
    est = sigma * b[at]
    est += a[at]  # a + sigma * b: the sum is the same either way round
    return rxdsp.equalize_mmse(rx, est, noise_var), est


def _transmit(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | Sequence[float] | None,
    seeds: LinkSeeds | Sequence[LinkSeeds],
    draws: RoundDraws | None,
):
    """Row-sparse link core; returns (equalized payload, estimated H at the
    payload cells, noise_var).

    Row b of (B, n) symbols is sent at snr_db[b] (a 1-D array of B, or None
    for no noise) on the draws of seeds[b], found by those seeds in `draws`
    or, if None, in a RoundDraws of the call's distinct seeds: (B, n),
    (B, n) and (B,) back. One receive_cells call reads the rows' parts, so
    each row is bitwise a lone call of its own payload, SNR and seeds. A
    lone LinkSeeds is a batch of one row: its symbols are one payload, its
    snr_db one SNR, and it gets (n,), (n,) and a float back.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    lone = isinstance(seeds, LinkSeeds)
    if lone:
        symbols, seeds = symbols.reshape(1, -1), [seeds]
        snr_db = None if snr_db is None else [snr_db]
    if symbols.ndim != 2 or len(symbols) != len(seeds):
        raise ValueError("per-row seeds need one row of symbols each")
    noisy = snr_db is not None
    if noisy and np.shape(snr_db) != (len(seeds),):
        raise ValueError("per-row seeds need one snr_db per row")
    n = symbols.shape[1]
    if n > cfg.payload_capacity:
        raise ValueError(f"payload of {n} symbols exceeds capacity {cfg.payload_capacity}")
    if draws is None:
        draws = RoundDraws(cfg, profile, dict.fromkeys(seeds), n, noisy)
    elif (draws.cfg, draws.profile) != (cfg, profile) or any(s not in draws.row for s in seeds):
        raise ValueError("round draws were made for other seeds, config or channel profile")
    elif draws.n < n or noisy and not draws.noisy:
        kind = "noisy" if draws.noisy else "noiseless"
        raise ValueError(f"round draws of {draws.n} {kind} cells cannot carry {n} symbols at snr_db {snr_db}")
    at = np.array([draws.row[s] for s in seeds], dtype=np.intp)
    h, a = draws.h[:, :n], draws.a[:, :n]
    if not noisy:
        eq, est = receive_cells(symbols, at, h, a)
        return (eq[0], est[0], 0.0) if lone else (eq, est, 0.0)
    # one scalar noise_variance per SNR: each row's sigma is that of a lone call
    var = np.array([[chan.noise_variance(s)] for s in np.ravel(snr_db).tolist()])
    eq, est = receive_cells(symbols, at, h, a, draws.z[:, :n], draws.b[:, :n], var)
    return (eq[0], est[0], float(var[0, 0])) if lone else (eq, est, var[:, 0])


def transmit_symbols(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | Sequence[float] | None,
    seeds: LinkSeeds | Sequence[LinkSeeds],
    *,
    draws: RoundDraws | None = None,
) -> np.ndarray:
    """Send payload symbols through one faded OFDM frame; return equalized payload.

    Given one LinkSeeds per row of (B, n) symbols, row b is its own payload
    at snr_db[b] on its own seeds; a lone LinkSeeds sends one payload at one
    SNR. `draws`, if given, is a RoundDraws that holds every row's seeds.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)[0]


def transmit_with_state(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | Sequence[float] | None,
    seeds: LinkSeeds | Sequence[LinkSeeds],
    *,
    draws: RoundDraws | None = None,
):
    """transmit_symbols variant that also returns per-symbol channel state.

    Returns (equalized payload, estimated H at the payload cells, noise_var);
    the channel state is what symbol-level combining across rounds needs.
    Per-row seeds give one row of each per row, and a noise_var per row if
    noisy; a lone LinkSeeds gives one payload's and one float.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)

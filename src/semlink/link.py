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
pilot. The noise on the simulated rows is the same draw the full grid gets:
the whole grid's noise stream is still drawn (channel._noise_rows), because
drawing only the rows in use would change the seed-to-noise mapping and
with it every sweep result for a given seed.

The link runs channel.freq_response, rxdsp.estimate and rxdsp.equalize_mmse
on its rows. Its oracle (tests/test_link.py) runs them on every row of the
full grid, ofdm.frame_build -> channel.apply -> rxdsp.estimate -> equalize_mmse
-> ofdm.frame_extract, with its own payload placement and whole-grid noise
draw; the link is bitwise equal to it.

What a round draws from its seeds (pilot rows, channel realization, H on the
simulated rows, unit-variance noise on them) does not depend on the payload
or the SNR. A RoundDraws holds them; one instance passed to every transmit
call with the same seeds computes them once for all those calls. A sweep's
harness.SessionCache keeps one per session index and round, beside the harq
sources that keep the symbols; other callers pass none and make their own.
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
    """The seed-determined draws of one link round, each made on first use.

    Holds the pilot rows, the channel realization and, per set of simulated
    rows, H on those rows and the unit-variance noise on them. Every array is
    read-only. A transmit call given draws made for other seeds, another
    config or another channel profile raises ValueError.
    """

    def __init__(self, cfg: ofdm.OfdmConfig, profile: chan.ChannelProfile, seeds: LinkSeeds):
        self.cfg = cfg
        self.profile = profile
        self.seeds = seeds
        self.pilots = _frozen(ofdm.pilot_rows(cfg, seeds.pilot))
        self.real = chan.realize(profile, cfg, cfg.n_symbols, seeds.channel)
        self._response = {}
        self._noise = {}

    def response(self, rows: tuple[int, ...]) -> np.ndarray:
        """H on the symbol rows `rows`, in that order."""
        if rows not in self._response:
            self._response[rows] = _frozen(chan.freq_response(self.real, self.cfg, rows))
        return self._response[rows]

    def noise(self, rows: tuple[int, ...]) -> np.ndarray:
        """Unit-variance noise on the symbol rows `rows` (channel._noise_rows)."""
        if rows not in self._noise:
            shape = (self.cfg.n_symbols, self.cfg.l_fft)
            self._noise[rows] = _frozen(chan._noise_rows(self.seeds.noise, shape, rows))
        return self._noise[rows]


def _transmit(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    draws: RoundDraws | None,
):
    """Row-sparse link core; returns (equalized payload, estimated H at the
    payload cells, noise_var)."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    n = symbols.size
    if n > cfg.payload_capacity:
        raise ValueError(f"payload of {n} symbols exceeds capacity {cfg.payload_capacity}")
    if draws is None:
        draws = RoundDraws(cfg, profile, seeds)
    elif (draws.seeds, draws.cfg, draws.profile) != (seeds, cfg, profile):
        raise ValueError("round draws were made for other seeds, config or channel profile")
    pilot_rows = cfg.pilot_rows_idx[:2]  # the rows rxdsp.estimate reads
    data_rows = cfg.data_rows_idx[: -(-n // cfg.l_fft)]
    n_p = len(pilot_rows)

    tx = np.zeros((n_p + len(data_rows), cfg.l_fft), dtype=np.complex128)
    pilots = draws.pilots[:n_p]
    tx[:n_p] = pilots
    tx[n_p:].reshape(-1)[:n] = symbols

    rows = pilot_rows + data_rows
    rx = draws.response(rows) * tx
    noise_var = 0.0
    if snr_db is not None:
        noise_var = chan.noise_variance(snr_db)
        rx = rx + np.sqrt(noise_var) * draws.noise(rows)

    h = rxdsp.estimate(rx[:n_p], pilots, pilot_rows, data_rows, cfg.l_cp)
    eq = rxdsp.equalize_mmse(rx[n_p:], h, noise_var)
    return eq.reshape(-1)[:n], h.reshape(-1)[:n], noise_var


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
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, draws)

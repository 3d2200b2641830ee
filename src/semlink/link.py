"""One-shot physical link: frame, fade, estimate, equalize, extract.

Shared by codec evaluation, detector corpus construction, and the
retransmission protocols. Channel and noise draws are controlled by explicit
seeds so sessions are reproducible and SNR sweeps can share common draws.

The link is row-sparse: per round it simulates only the symbol rows whose
received values reach the output. Those are the pilot rows the estimator
interpolates through (the first two, or the only one), at full width because
the estimate is denoised in the delay domain, and the data rows the payload
occupies. Every other cell of the frame carries zero padding or an unused
pilot. The noise on the simulated rows is the same draw the full grid gets:
the whole grid's noise stream is still drawn (channel._noise_rows), because
drawing only the rows in use would change the seed-to-noise mapping and
with it every sweep result for a given seed.

The full-grid chain ofdm.frame_build -> channel.apply -> rxdsp.estimate ->
rxdsp.equalize_mmse -> ofdm.frame_extract is the oracle: the row-sparse link
is bitwise equal to it (tests/test_link.py, and the link_fast_path golden).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import ofdm, rxdsp


@dataclass(frozen=True)
class LinkSeeds:
    pilot: int
    channel: int
    noise: int


def _transmit(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    signal_power: float,
):
    """Row-sparse link core; returns (equalized payload, estimated H at the
    payload cells, noise_var)."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    n = symbols.size
    if n > cfg.payload_capacity:
        raise ValueError(f"payload of {n} symbols exceeds capacity {cfg.payload_capacity}")
    pilot_rows = cfg.pilot_rows_idx[:2]
    if not pilot_rows:
        raise ValueError("the link needs at least one pilot symbol")
    data_rows = cfg.data_rows_idx[: -(-n // cfg.l_fft)]
    n_p = len(pilot_rows)

    tx = np.zeros((n_p + len(data_rows), cfg.l_fft), dtype=np.complex128)
    pilots = ofdm.pilot_rows(cfg, seeds.pilot)[:n_p]
    tx[:n_p] = pilots
    tx[n_p:].reshape(-1)[:n] = symbols

    rows = pilot_rows + data_rows
    real = chan.realize(profile, cfg, cfg.n_symbols, seeds.channel)
    rx = chan._response_rows(real, cfg, rows) * tx
    noise_var = 0.0
    if snr_db is not None:
        noise_var = chan.noise_variance(snr_db, signal_power)
        z = chan._noise_rows(seeds.noise, (cfg.n_symbols, cfg.l_fft), rows)
        rx = rx + np.sqrt(noise_var) * z

    h_pilot = rxdsp._pilot_estimates(rx[:n_p], pilots, cfg.l_cp)
    h = rxdsp._interpolate(h_pilot, pilot_rows, data_rows)
    eq = rxdsp._mmse(rx[n_p:], h, noise_var, signal_power)
    return eq.reshape(-1)[:n], h.reshape(-1)[:n], noise_var


def transmit_symbols(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    signal_power: float = 1.0,
) -> np.ndarray:
    """Send payload symbols through one faded OFDM frame; return equalized payload."""
    return _transmit(symbols, cfg, profile, snr_db, seeds, signal_power)[0]


def transmit_with_state(
    symbols: np.ndarray,
    cfg: ofdm.OfdmConfig,
    profile: chan.ChannelProfile,
    snr_db: float | None,
    seeds: LinkSeeds,
    signal_power: float = 1.0,
):
    """transmit_symbols variant that also returns per-symbol channel state.

    Returns (equalized payload, estimated H at the payload cells, noise_var);
    the channel state is what symbol-level combining across rounds needs.
    """
    return _transmit(symbols, cfg, profile, snr_db, seeds, signal_power)

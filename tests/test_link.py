"""Row-sparse link tests: bitwise equality with the full-grid chain it replaces."""

import numpy as np
import pytest

from conftest import tiny_config
from semlink import channel, ofdm, rxdsp
from semlink.link import LinkSeeds, RoundDraws, transmit_symbols, transmit_with_state
from semlink.ofdm import OfdmConfig

TINY = tiny_config().ofdm_config()
CONFIGS = {
    "default": OfdmConfig(),
    "fft256": TINY,
    "pilot3": OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=(3,)),
    "pilots1_14": OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=(1, 14)),
    "pilots2_7_12": OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=(2, 7, 12)),
}
PROFILE = channel.default_profile()


def _full_grid(symbols, cfg, profile, snr_db, seeds, signal_power):
    """The oracle: build, fade and equalize the whole frame, then extract."""
    grid = ofdm.frame_build(symbols, cfg, seeds.pilot)
    real = channel.realize(profile, cfg, cfg.n_symbols, seeds.channel)
    rx = channel.apply(grid.grid, real, cfg, snr_db, seeds.noise, signal_power)
    noise_var = 0.0 if snr_db is None else channel.noise_variance(snr_db, signal_power)
    est = rxdsp.estimate(rx, ofdm.pilot_rows(cfg, seeds.pilot), cfg, noise_var)
    eq = rxdsp.equalize_mmse(rx, est, signal_power)
    n = symbols.size
    return ofdm.frame_extract(eq, cfg, n), ofdm.frame_extract(est.h, cfg, n), noise_var


def _payload(n, signal_power, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.sqrt(signal_power / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("size", ["empty", "one", "row", "row+1", "capacity"])
@pytest.mark.parametrize("snr_db", [None, 0.0, 18.0])
@pytest.mark.parametrize("signal_power", [1.0, 2.5])
def test_row_sparse_link_matches_full_grid(name, size, snr_db, signal_power):
    cfg = CONFIGS[name]
    n = {"empty": 0, "one": 1, "row": cfg.l_fft, "row+1": cfg.l_fft + 1,
         "capacity": cfg.payload_capacity}[size]
    symbols = _payload(n, signal_power, seed=n)
    seeds = LinkSeeds(pilot=11 + n, channel=12 + n, noise=13 + n)
    eq, h, noise_var = _full_grid(symbols, cfg, PROFILE, snr_db, seeds, signal_power)

    got_eq, got_h, got_var = transmit_with_state(symbols, cfg, PROFILE, snr_db, seeds, signal_power)
    assert _same_bits(got_eq, eq)
    assert _same_bits(got_h, h)
    assert got_var == noise_var
    assert _same_bits(transmit_symbols(symbols, cfg, PROFILE, snr_db, seeds, signal_power), eq)


def _realize_loop(profile, cfg, n_symbols, seed):
    """Per-symbol oracle: two small draws (real, imaginary) per OFDM symbol."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = np.asarray(profile.powers)
    rho = channel.symbol_correlation(profile, cfg)
    innov_scale = np.sqrt(max(0.0, 1.0 - rho * rho))

    def draw(m):
        return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)

    taps = np.empty((n_symbols, profile.n_taps), dtype=np.complex128)
    taps[0] = np.sqrt(p) * draw(profile.n_taps)
    for j in range(1, n_symbols):
        taps[j] = rho * taps[j - 1] + innov_scale * np.sqrt(p) * draw(profile.n_taps)
    return taps


@pytest.mark.parametrize("speed_kmh,n_taps", [(50.0, 6), (0.0, 1), (120.0, 3)])
@pytest.mark.parametrize("n_symbols", [1, 14])
def test_realize_matches_per_symbol_draws(speed_kmh, n_taps, n_symbols):
    profile = channel.default_profile(speed_kmh=speed_kmh, n_taps=n_taps)
    for seed in range(20):
        real = channel.realize(profile, OfdmConfig(), n_symbols, seed)
        assert _same_bits(real.taps, _realize_loop(profile, OfdmConfig(), n_symbols, seed))


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_link_rejects_a_pilot_free_config(link_fn):
    cfg = OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=())
    with pytest.raises(ValueError):
        link_fn(_payload(8, 1.0, 0), cfg, PROFILE, None, LinkSeeds(1, 2, 3))


def test_link_rejects_payload_beyond_capacity():
    with pytest.raises(ValueError):
        transmit_symbols(_payload(TINY.payload_capacity + 1, 1.0, 0), TINY, PROFILE, None,
                         LinkSeeds(1, 2, 3))


@pytest.mark.parametrize("snr_db", [None, 6.0])
def test_shared_round_draws_change_no_bit(snr_db):
    # one RoundDraws serves payloads of different sizes (one and two data
    # rows) and both link functions, bit for bit as calls that draw afresh
    seeds = LinkSeeds(pilot=21, channel=22, noise=23)
    draws = RoundDraws(TINY, PROFILE, seeds)
    for n in (TINY.l_fft, TINY.l_fft + 1, 5):
        symbols = _payload(n, 1.0, seed=n)
        alone = transmit_with_state(symbols, TINY, PROFILE, snr_db, seeds)
        shared = transmit_with_state(symbols, TINY, PROFILE, snr_db, seeds, draws=draws)
        assert all(_same_bits(a, b) for a, b in zip(alone[:2], shared[:2]))
        assert alone[2] == shared[2]
        assert _same_bits(transmit_symbols(symbols, TINY, PROFILE, snr_db, seeds, draws=draws), alone[0])


def test_round_draws_for_other_seeds_are_rejected():
    draws = RoundDraws(TINY, PROFILE, LinkSeeds(1, 2, 3))
    for seeds, cfg, profile in (
        (LinkSeeds(1, 2, 4), TINY, PROFILE),
        (LinkSeeds(1, 2, 3), OfdmConfig(), PROFILE),
        (LinkSeeds(1, 2, 3), TINY, channel.default_profile(speed_kmh=0.0)),
    ):
        with pytest.raises(ValueError, match="round draws"):
            transmit_symbols(_payload(8, 1.0, 0), cfg, profile, 6.0, seeds, draws=draws)

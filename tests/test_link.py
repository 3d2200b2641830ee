"""Row-sparse link tests: bitwise equality with the full-grid chain it replaces."""

from collections import Counter

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


def _full_grid(symbols, cfg, profile, snr_db, seeds):
    """The oracle: build, fade and equalize the whole frame, then extract."""
    grid = ofdm.frame_build(symbols, cfg, seeds.pilot)
    real = channel.realize(profile, cfg, cfg.n_symbols, seeds.channel)
    rx = channel.apply(grid, real, cfg, snr_db, seeds.noise)
    noise_var = 0.0 if snr_db is None else channel.noise_variance(snr_db)
    pilot_rows = cfg.pilot_rows_idx
    h = rxdsp.estimate(rx[list(pilot_rows)], ofdm.pilot_rows(cfg, seeds.pilot), pilot_rows,
                       range(cfg.n_symbols), cfg.l_cp)
    eq = rxdsp.equalize_mmse(rx, h, noise_var)
    n = symbols.size
    return ofdm.frame_extract(eq, cfg, n), ofdm.frame_extract(h, cfg, n), noise_var


def _payload(n, amplitude, seed):
    """n complex Gaussian symbols of mean power amplitude**2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return amplitude / np.sqrt(2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("size", ["empty", "one", "row", "row+1", "capacity"])
@pytest.mark.parametrize("snr_db", [None, 0.0, 18.0])
@pytest.mark.parametrize("amplitude", [1.0, 2.5])  # SNR stays defined per unit power
def test_row_sparse_link_matches_full_grid(name, size, snr_db, amplitude):
    cfg = CONFIGS[name]
    n = {"empty": 0, "one": 1, "row": cfg.l_fft, "row+1": cfg.l_fft + 1,
         "capacity": cfg.payload_capacity}[size]
    symbols = _payload(n, amplitude, seed=n)
    seeds = LinkSeeds(pilot=11 + n, channel=12 + n, noise=13 + n)
    eq, h, noise_var = _full_grid(symbols, cfg, PROFILE, snr_db, seeds)

    got_eq, got_h, got_var = transmit_with_state(symbols, cfg, PROFILE, snr_db, seeds)
    assert _same_bits(got_eq, eq)
    assert _same_bits(got_h, h)
    assert got_var == noise_var
    assert _same_bits(transmit_symbols(symbols, cfg, PROFILE, snr_db, seeds), eq)


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_link_runs_the_one_receiver_chain(monkeypatch, link_fn):
    # each transmit runs the public estimator and equalizer once; a RoundDraws
    # asks channel.freq_response for H once per new set of simulated rows
    counts = Counter()
    for module, name in ((rxdsp, "estimate"), (rxdsp, "equalize_mmse"), (channel, "freq_response")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    seeds = LinkSeeds(pilot=31, channel=32, noise=33)
    draws = RoundDraws(TINY, PROFILE, seeds)
    # one data row, two, then both row sets again
    for calls, n in enumerate((5, TINY.l_fft + 1, 7, TINY.l_fft + 2), start=1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, 6.0, seeds, draws=draws)
        assert counts["estimate"] == counts["equalize_mmse"] == calls
    assert counts["freq_response"] == 2
    link_fn(_payload(5, 1.0, seed=5), TINY, PROFILE, None, seeds)  # draws of its own
    assert (counts["estimate"], counts["equalize_mmse"], counts["freq_response"]) == (5, 5, 3)


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
    # OfdmConfig refuses to be made without pilots, so no link is handed one
    with pytest.raises(ValueError, match="pilot_symbols"):
        cfg = OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=())
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


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_draws_is_keyword_only(link_fn):
    # a stale positional power argument must not bind to draws
    with pytest.raises(TypeError):
        link_fn(_payload(5, 1.0, seed=5), TINY, PROFILE, 6.0, LinkSeeds(1, 2, 3), 1.0)

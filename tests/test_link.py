"""Row-sparse link tests against the full-grid chain it replaces.

Noiseless calls are bitwise equal to that chain. With noise, the received
payload cells are bitwise equal, and the pilot estimate, which the link splits
into a noiseless and a noise-only part, is within rounding of it.
"""

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
    """The oracle: build, fade and equalize the whole frame, then extract.
    Returns (equalized, estimated H, received) on the payload cells, and the
    noise variance."""
    grid = ofdm.frame_build(symbols, cfg, seeds.pilot)
    real = channel.realize(profile, cfg, cfg.n_symbols, seeds.channel)
    rx = channel.apply(grid, real, cfg, snr_db, seeds.noise)
    noise_var = 0.0 if snr_db is None else channel.noise_variance(snr_db)
    pilot_rows = cfg.pilot_rows_idx
    h = rxdsp.estimate(rx[list(pilot_rows)], ofdm.pilot_rows(cfg, seeds.pilot), pilot_rows,
                       range(cfg.n_symbols), cfg.l_cp)
    eq = rxdsp.equalize_mmse(rx, h, noise_var)
    n = symbols.size
    return tuple(ofdm.frame_extract(a, cfg, n) for a in (eq, h, rx)) + (noise_var,)


def _payload(n, amplitude, seed):
    """n complex Gaussian symbols of mean power amplitude**2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return amplitude / np.sqrt(2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pilot_rows_are_qam_map_of_the_seed_bits(name):
    # ofdm.pilot_rows looks bit pairs up in a table; it must give qam_map's bits
    cfg = CONFIGS[name]
    n_p = len(cfg.pilot_symbols)
    for seed in (0, 1, 2**63 + 5):
        bits = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=n_p * cfg.l_fft * 2)
        want = ofdm.qam_map(bits, 4).reshape(n_p, cfg.l_fft)
        assert _same_bits(ofdm.pilot_rows(cfg, seed), want)


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
    eq, h, rx, noise_var = _full_grid(symbols, cfg, PROFILE, snr_db, seeds)

    got_eq, got_h, got_var = transmit_with_state(symbols, cfg, PROFILE, snr_db, seeds)
    assert got_var == noise_var
    assert _same_bits(transmit_symbols(symbols, cfg, PROFILE, snr_db, seeds), got_eq)
    if snr_db is None:
        assert _same_bits(got_eq, eq)
        assert _same_bits(got_h, h)
        return
    # a noisy estimate is a + sigma * b, the oracle's estimate of the summed
    # pilots up to rounding; the received cells are the oracle's bits, so
    # the equalizer applied to them with the link's estimate is the link's output
    assert got_h.shape == h.shape
    assert np.max(np.abs(got_h - h), initial=0.0) <= 1e-14 * np.max(np.abs(got_h), initial=0.0)
    assert _same_bits(got_eq, rxdsp.equalize_mmse(rx, got_h, noise_var))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_link_noise_rows_are_channel_apply_noise(name):
    # at 0 dB the noise scale is exactly 1, so a zero grid through
    # channel.apply returns its unit-variance noise; the rows a RoundDraws
    # keeps are those rows, and b is the estimate of its pilot rows
    cfg = CONFIGS[name]
    seeds = LinkSeeds(pilot=51, channel=52, noise=53)
    draws = RoundDraws(cfg, PROFILE, seeds)
    z = channel.apply(np.zeros((cfg.n_symbols, cfg.l_fft)), draws.real, cfg, 0.0, seeds.noise)
    for k in (1, 2, len(cfg.data_rows_idx)):
        data_rows = cfg.data_rows_idx[:k]
        got_z, got_b = draws.noisy(data_rows)
        assert _same_bits(got_z, z[list(data_rows)].reshape(-1))
        b = rxdsp.estimate(z[list(draws.pilot_rows)], draws.pilots, draws.pilot_rows, data_rows, cfg.l_cp)
        assert _same_bits(got_b, b.reshape(-1))


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_noiseless_transmit_draws_no_noise(monkeypatch, link_fn):
    def refuse(*args, **kwargs):
        raise AssertionError("a noiseless transmit drew noise")
    monkeypatch.setattr(channel, "_noise_rows", refuse)
    seeds = LinkSeeds(pilot=61, channel=62, noise=63)
    draws = RoundDraws(TINY, PROFILE, seeds)
    for n in (0, 7, TINY.l_fft + 1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, None, seeds)
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, None, seeds, draws=draws)
    assert not draws._noisy


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_link_runs_the_one_receiver_chain(monkeypatch, link_fn):
    # each transmit runs the public equalizer once; a RoundDraws asks
    # channel.freq_response for H and runs the public estimator for a once
    # per new set of simulated data rows, and draws noise and estimates b once
    # per set that a noisy call reaches: rxdsp.estimate runs at most twice per
    # set of data rows, whatever the number of SNRs
    counts = Counter()
    for module, name in ((rxdsp, "estimate"), (rxdsp, "equalize_mmse"), (channel, "freq_response"),
                         (channel, "_noise_rows")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    seeds = LinkSeeds(pilot=31, channel=32, noise=33)
    draws = RoundDraws(TINY, PROFILE, seeds)
    # one data row with no noise, then at 6 dB; two rows at 0 dB; both row
    # sets again at other SNRs and with no noise: (payload size, SNR,
    # estimates, H responses and noise draws so far)
    steps = [
        (5, None, 1, 1, 0), (7, 6.0, 2, 1, 1), (TINY.l_fft + 1, 0.0, 4, 2, 2), (9, 0.0, 4, 2, 2),
        (TINY.l_fft + 2, 18.0, 4, 2, 2), (11, 18.0, 4, 2, 2), (13, None, 4, 2, 2),
        (TINY.l_fft + 3, None, 4, 2, 2),
    ]
    for calls, (n, snr_db, estimates, responses, noises) in enumerate(steps, start=1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, snr_db, seeds, draws=draws)
        assert (counts["estimate"], counts["equalize_mmse"], counts["freq_response"],
                counts["_noise_rows"]) == (estimates, calls, responses, noises)
    link_fn(_payload(5, 1.0, seed=5), TINY, PROFILE, 6.0, seeds)  # draws of its own
    assert (counts["estimate"], counts["equalize_mmse"], counts["freq_response"],
            counts["_noise_rows"]) == (6, 9, 3, 3)


def test_round_draws_estimate_is_read_only_and_payload_free():
    # the kept parts are read-only, made once, and serve every payload at
    # every SNR: a noisy call's estimate is a + sigma * b on its cells, a
    # noiseless call's is a
    seeds = LinkSeeds(pilot=41, channel=42, noise=43)
    draws = RoundDraws(TINY, PROFILE, seeds)
    rows = TINY.data_rows_idx[:1]

    def kept():
        return draws.clean(rows) + draws.noisy(rows)

    parts = kept()
    assert not any(part.flags.writeable for part in parts)
    _, a, _, b = parts
    for n in (3, TINY.l_fft):
        symbols = _payload(n, 1.0, seed=n)
        for snr_db in (0.0, 6.0):
            sigma = np.sqrt(channel.noise_variance(snr_db))
            _, got_h, _ = transmit_with_state(symbols, TINY, PROFILE, snr_db, seeds, draws=draws)
            assert _same_bits(got_h, a[:n] + sigma * b[:n])
        _, got_h, _ = transmit_with_state(symbols, TINY, PROFILE, None, seeds, draws=draws)
        assert _same_bits(got_h, a[:n])
    assert all(x is y for x, y in zip(kept(), parts))


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


@pytest.mark.parametrize(
    "snrs", [(6.0,), (0.0, 18.0, 0.0), (21.5, -3.0, 9.0, 12.0)], ids=["one", "repeated", "unordered"]
)
def test_an_snr_batch_is_each_snr_alone_bit_for_bit(snrs):
    # a 1-D snr_db sends the payload once per SNR: row b of every output is
    # what a call at snrs[b] alone returns, and the draws serve both alike
    cfg, seeds = TINY, LinkSeeds(pilot=5, channel=6, noise=7)
    symbols = _payload(300, 1.0, 8)
    draws = RoundDraws(cfg, PROFILE, seeds)
    eq, h, noise_var = transmit_with_state(symbols, cfg, PROFILE, snrs, seeds, draws=draws)
    assert eq.shape == h.shape == (len(snrs), symbols.size) and noise_var.shape == (len(snrs),)
    assert _same_bits(transmit_symbols(symbols, cfg, PROFILE, list(snrs), seeds), eq)
    for b, snr_db in enumerate(snrs):
        alone = transmit_with_state(symbols, cfg, PROFILE, snr_db, seeds)
        assert _same_bits(alone[0], eq[b]) and _same_bits(alone[1], h[b])
        assert isinstance(alone[2], float) and alone[2] == noise_var[b] == channel.noise_variance(snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        transmit_symbols(symbols, cfg, PROFILE, (*snrs, float("nan")), seeds, draws=draws)

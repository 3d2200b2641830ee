"""Row-sparse link tests against the full-grid chain it replaces, and the
law of the draws that stand in for that chain's noise.

The oracle runs the whole frame with the link's own draws as its noise. H
and the received payload cells are bitwise equal to it; the pilot estimate,
which the link builds in the delay domain from the noiseless taps and the
noise taps apart, and the equalized cells are within the bound stated below.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from semlink import channel, link, ofdm, rxdsp
from semlink.link import LinkSeeds, RoundDraws, receive_cells, transmit_symbols, transmit_with_state
from semlink.ofdm import OfdmConfig

TINY = tiny_config().ofdm_config()
CONFIGS = {
    "default": OfdmConfig(),
    "fft256": TINY,
    "pilot3": OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=(3,)),
    "pilots1_14": OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=(1, 14)),
    "pilots2_7_12": OfdmConfig(l_fft=TINY.l_fft, l_cp=TINY.l_cp, pilot_symbols=(2, 7, 12)),
}
PROFILE = channel.ChannelProfile()
# the link's delay-domain estimate and the oracle's ifft/fft round trip
# round differently: both estimate parts, and the cells equalized with them,
# agree to this share of the largest magnitude on the payload cells
BOUND = 1e-12


# The link's draws, made here from the channel's and the estimator's own
# functions and not from semlink.link: the rows rxdsp.estimate reads, the
# pilot rows' kept delay taps and their line across symbols, and each row's
# noise stream.


def _line(cfg, taps, data_rows):
    """Per-pilot-row delay taps (n_p, l_cp) carried to data_rows on the
    estimator's line and transformed back, flattened."""
    pilot_rows = cfg.pilot_rows_idx[:2]
    return np.fft.fft(rxdsp.interpolate(taps, pilot_rows, data_rows), n=cfg.l_fft).reshape(-1)


def _clean(cfg, seeds, data_rows):
    """(H, a) of a round on every cell of data_rows, flattened: H of the
    pilot rows and data_rows together, and a from the noiseless pilot rows'
    kept taps (channel.delay_response)."""
    pilot_rows = cfg.pilot_rows_idx[:2]
    real = channel.realize(PROFILE, cfg, cfg.n_symbols, seeds.channel)
    h = channel.freq_response(real, cfg, pilot_rows + data_rows)[len(pilot_rows) :]
    return h.reshape(-1), _line(cfg, channel.delay_response(real, cfg, pilot_rows), data_rows)


def _estimate_noise(cfg, seeds, data_rows):
    """b of a round on every cell of data_rows, flattened: from each pilot
    row's l_cp noise taps, drawn from the row's own stream."""
    taps = np.array([channel.noise_cells(seeds.noise, j, cfg.l_cp, cfg.l_fft) for j in cfg.pilot_rows_idx[:2]])
    return _line(cfg, taps, data_rows)


def _payload_noise(cfg, seeds, n):
    """z of a round on the first n payload cells: each data row's cells from
    the row's own stream."""
    z = [channel.noise_cells(seeds.noise, j, cfg.l_fft) for j in cfg.data_rows_idx]
    return np.concatenate(z)[:n]


def _grid_noise(cfg, seeds, n):
    """The oracle's unit-variance noise grid, from the link's draws: the
    first n payload cells carry the payload noise z, and pilot row j, which
    carried p_j, carries p_j * fft(g_j padded to l_fft), where g_j is the
    row's l_cp noise taps (channel.noise_cells), so the truncated LS
    estimate of the row is g_j. Every other cell is zero: no output reads it."""
    z = np.zeros((cfg.n_symbols, cfg.l_fft), dtype=np.complex128)
    data = np.zeros(cfg.payload_capacity, dtype=np.complex128)
    data[:n] = _payload_noise(cfg, seeds, n)
    z[list(cfg.data_rows_idx)] = data.reshape(len(cfg.data_rows_idx), cfg.l_fft)
    for p, j in zip(ofdm.pilot_rows(cfg, seeds.pilot), cfg.pilot_rows_idx[:2]):
        z[j] = p * np.fft.fft(channel.noise_cells(seeds.noise, j, cfg.l_cp, cfg.l_fft), n=cfg.l_fft)
    return z


def _full_grid(symbols, cfg, profile, snr_db, seeds):
    """The oracle: build, fade and equalize the whole frame, then extract.
    Returns (equalized, estimated H, received, H) on the payload cells, and
    the noise variance."""
    n = symbols.size
    grid = ofdm.frame_build(symbols, cfg, seeds.pilot)
    real = channel.realize(profile, cfg, cfg.n_symbols, seeds.channel)
    rx = channel.apply(grid, real, cfg, None)
    noise_var = 0.0
    if snr_db is not None:
        noise_var = channel.noise_variance(snr_db)
        rx = rx + np.sqrt(noise_var) * _grid_noise(cfg, seeds, n)
    pilot_rows = cfg.pilot_rows_idx
    h = rxdsp.estimate(rx[list(pilot_rows)], ofdm.pilot_rows(cfg, seeds.pilot), pilot_rows,
                       range(cfg.n_symbols), cfg.l_cp)
    eq = rxdsp.equalize_mmse(rx, h, noise_var)
    parts = (eq, h, rx, channel.freq_response(real, cfg))
    return tuple(ofdm.frame_extract(a, cfg, n) for a in parts) + (noise_var,)


def _close(got, want):
    """got is want within BOUND of want's largest magnitude."""
    scale = np.max(np.abs(want), initial=0.0)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= BOUND * scale


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
    eq, h, rx, true_h, noise_var = _full_grid(symbols, cfg, PROFILE, snr_db, seeds)

    got_eq, got_h, got_var = transmit_with_state(symbols, cfg, PROFILE, snr_db, seeds)
    assert got_var == noise_var
    assert _same_bits(transmit_symbols(symbols, cfg, PROFILE, snr_db, seeds), got_eq)
    assert _same_bits(RoundDraws(cfg, PROFILE, [seeds], n, False).h[0], true_h)
    assert _close(got_h, h) and _close(got_eq, eq)
    # the received cells are the oracle's bits: the equalizer applied to them
    # with the link's estimate is the link's output
    assert _same_bits(got_eq, rxdsp.equalize_mmse(rx, got_h, noise_var))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimate_parts_are_the_oracles_estimates(name):
    # a is rxdsp.estimate of the noiseless pilot rows, b that of the grid
    # noise's pilot rows alone, on every data row, within BOUND; a and b are
    # this file's own, which the link's are bitwise
    # (test_round_draws_rows_are_each_seed_alone)
    cfg = CONFIGS[name]
    seeds = LinkSeeds(pilot=51, channel=52, noise=53)
    rows = cfg.pilot_rows_idx
    pilots = ofdm.pilot_rows(cfg, seeds.pilot)
    h = channel.freq_response(channel.realize(PROFILE, cfg, cfg.n_symbols, seeds.channel), cfg)
    z = _grid_noise(cfg, seeds, 0)
    for k in (1, 2, len(cfg.data_rows_idx)):
        data_rows = cfg.data_rows_idx[:k]
        got_h, a = _clean(cfg, seeds, data_rows)
        want_a = rxdsp.estimate(h[list(rows)] * pilots, pilots, rows, data_rows, cfg.l_cp)
        want_b = rxdsp.estimate(z[list(rows)], pilots, rows, data_rows, cfg.l_cp)
        assert _same_bits(got_h, h[list(data_rows)].reshape(-1))
        assert _close(a, want_a.reshape(-1)) and _close(_estimate_noise(cfg, seeds, data_rows), want_b.reshape(-1))


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_noiseless_transmit_draws_no_noise(monkeypatch, link_fn):
    def refuse(*args, **kwargs):
        raise AssertionError("a noiseless transmit drew noise")
    monkeypatch.setattr(channel, "noise_cells", refuse)
    monkeypatch.setattr(channel, "_noise_rows", refuse)
    seeds = LinkSeeds(pilot=61, channel=62, noise=63)
    draws = RoundDraws(TINY, PROFILE, [seeds], TINY.l_fft + 1, False)
    for n in (0, 7, TINY.l_fft + 1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, None, seeds)
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, None, seeds, draws=draws)
    assert draws.z is None and draws.b is None


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_link_runs_the_one_receiver_chain(monkeypatch, link_fn):
    # each transmit runs the public equalizer once. A call given a
    # RoundDraws makes nothing of the round; one without makes its own:
    # channel.freq_response once for H and the estimator's line once for a
    # and, if noisy, the two pilot rows' noise taps and the payload's data
    # rows, and the line once more for b. channel.apply's whole rows are
    # never drawn
    counts = Counter()
    for module, name in ((rxdsp, "interpolate"), (rxdsp, "equalize_mmse"), (channel, "freq_response"),
                         (channel, "noise_cells"), (channel, "_noise_rows"), (rxdsp, "estimate")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    seeds = LinkSeeds(pilot=31, channel=32, noise=33)
    draws = RoundDraws(TINY, PROFILE, [seeds], TINY.l_fft + 3, True)
    assert (counts["interpolate"], counts["freq_response"], counts["noise_cells"]) == (2, 1, 2 + 2)
    made = counts.copy()
    for calls, (n, snr_db) in enumerate(((5, None), (TINY.l_fft + 1, 0.0), (TINY.l_fft + 3, 18.0)), start=1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, snr_db, seeds, draws=draws)
        assert counts - made == Counter(equalize_mmse=calls)
    for n, snr_db, lines, noises in ((5, None, 1, 0), (7, 6.0, 2, 2 + 1), (TINY.l_fft + 1, 0.0, 2, 2 + 2)):
        before = counts.copy()
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, snr_db, seeds)  # draws of its own
        assert counts - before == Counter(interpolate=lines, equalize_mmse=1, freq_response=1, noise_cells=noises)
    assert counts["_noise_rows"] == counts["estimate"] == 0


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
    profile = channel.ChannelProfile(speed_kmh=speed_kmh, n_taps=n_taps)
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
    # rows, up to its own) and both link functions, bit for bit as calls
    # that draw afresh
    seeds = LinkSeeds(pilot=21, channel=22, noise=23)
    draws = RoundDraws(TINY, PROFILE, [seeds], TINY.l_fft + 1, snr_db is not None)
    for n in (TINY.l_fft, TINY.l_fft + 1, 5):
        symbols = _payload(n, 1.0, seed=n)
        alone = transmit_with_state(symbols, TINY, PROFILE, snr_db, seeds)
        shared = transmit_with_state(symbols, TINY, PROFILE, snr_db, seeds, draws=draws)
        assert all(_same_bits(a, b) for a, b in zip(alone[:2], shared[:2]))
        assert alone[2] == shared[2]
        assert _same_bits(transmit_symbols(symbols, TINY, PROFILE, snr_db, seeds, draws=draws), alone[0])


def test_round_draws_for_other_seeds_are_rejected():
    # draws of other seeds, config or profile, too short for the payload or
    # noiseless for a noisy call carry no call
    draws = RoundDraws(TINY, PROFILE, [LinkSeeds(1, 2, 3)], 8, False)
    for seeds, cfg, profile, n, snr_db in (
        (LinkSeeds(1, 2, 4), TINY, PROFILE, 8, None),
        (LinkSeeds(1, 2, 3), OfdmConfig(), PROFILE, 8, None),
        (LinkSeeds(1, 2, 3), TINY, channel.ChannelProfile(speed_kmh=0.0), 8, None),
        (LinkSeeds(1, 2, 3), TINY, PROFILE, 9, None),
        (LinkSeeds(1, 2, 3), TINY, PROFILE, 8, 6.0),
    ):
        with pytest.raises(ValueError, match="round draws"):
            transmit_symbols(_payload(n, 1.0, 0), cfg, profile, snr_db, seeds, draws=draws)


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_draws_is_keyword_only(link_fn):
    # a stale positional power argument must not bind to draws
    with pytest.raises(TypeError):
        link_fn(_payload(5, 1.0, seed=5), TINY, PROFILE, 6.0, LinkSeeds(1, 2, 3), 1.0)


@pytest.mark.parametrize(
    "snrs", [(6.0,), (0.0, 18.0, 0.0), (21.5, -3.0, 9.0, 12.0)], ids=["one", "repeated", "unordered"]
)
def test_an_snr_batch_is_each_snr_alone_bit_for_bit(snrs):
    # one payload on one seed, a row per SNR, as a sweep sends an index's
    # SNRs: row b of every output is what a lone call at snrs[b] returns,
    # and the draws serve both alike. A lone LinkSeeds takes one SNR
    cfg, seeds = TINY, LinkSeeds(pilot=5, channel=6, noise=7)
    symbols = _payload(300, 1.0, 8)
    rows = np.stack([symbols] * len(snrs))
    draws = RoundDraws(cfg, PROFILE, [seeds], symbols.size, True)
    eq, h, noise_var = transmit_with_state(rows, cfg, PROFILE, snrs, [seeds] * len(snrs), draws=draws)
    assert eq.shape == h.shape == (len(snrs), symbols.size) and noise_var.shape == (len(snrs),)
    assert _same_bits(transmit_symbols(rows, cfg, PROFILE, list(snrs), [seeds] * len(snrs)), eq)
    for b, snr_db in enumerate(snrs):
        alone = transmit_with_state(symbols, cfg, PROFILE, snr_db, seeds)
        assert _same_bits(alone[0], eq[b]) and _same_bits(alone[1], h[b])
        assert isinstance(alone[2], float) and alone[2] == noise_var[b] == channel.noise_variance(snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        transmit_symbols(rows, cfg, PROFILE, [*snrs[1:], float("nan")], [seeds] * len(snrs), draws=draws)
    with pytest.raises(ValueError, match="snr_db"):
        transmit_symbols(symbols, cfg, PROFILE, snrs, seeds, draws=draws)


@given(
    name=st.sampled_from(sorted(CONFIGS)),
    n=st.integers(0, TINY.payload_capacity),
    snrs=st.none() | st.lists(st.floats(-10.0, 30.0, allow_nan=False), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_payload_cell_link_is_transmit_with_state_bit_for_bit(name, n, snrs, seed):
    # receive_cells on a round's payload-cell parts is the link, noiseless
    # and at a batch of SNRs, each row reading the one seed's parts
    cfg = CONFIGS[name]
    n = min(n, cfg.payload_capacity)
    symbols = _payload(n, 1.0, seed)
    seeds = LinkSeeds(pilot=seed, channel=seed + 1, noise=seed + 2)
    draws = RoundDraws(cfg, PROFILE, [seeds], n, snrs is not None)
    if snrs is None:
        eq, h, noise_var = transmit_with_state(symbols, cfg, PROFILE, None, seeds)
        got_eq, got_h = receive_cells(symbols[None], np.zeros(1, np.intp), draws.h, draws.a)
        assert _same_bits(got_eq[0], eq) and _same_bits(got_h[0], h) and noise_var == 0.0
        return
    var = np.array([[channel.noise_variance(x)] for x in snrs])
    rows = np.stack([symbols] * len(snrs))
    eq, h, noise_var = transmit_with_state(rows, cfg, PROFILE, snrs, [seeds] * len(snrs))
    got_eq, got_h = receive_cells(rows, np.zeros(len(snrs), np.intp), draws.h, draws.a, draws.z, draws.b, var)
    assert _same_bits(got_eq, eq) and _same_bits(got_h, h) and _same_bits(var[:, 0], noise_var)


@given(
    name=st.sampled_from(sorted(CONFIGS)),
    keys=st.lists(st.integers(0, 4), min_size=1, max_size=2 * link._FILL_CHUNK + 1),
    cells=st.lists(st.integers(0, 2**16), min_size=2, max_size=2),
    noisy=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_round_draws_rows_are_each_seed_alone(name, keys, cells, noisy):
    # a RoundDraws of any seeds (repeats allowed, more than one chunk) on n
    # cells holds row k bitwise as seeds[k]'s alone on m >= n cells, cut to
    # n, across one and two data rows; those are this file's own parts.
    # Noiseless draws draw no noise, every array is read-only, and a call
    # that the draws do not fit is refused
    cfg = CONFIGS[name]
    n, m = sorted(c % (2 * cfg.l_fft + 1) for c in cells)
    seeds = [LinkSeeds(pilot=k, channel=100 + k, noise=200 + k) for k in keys]
    with pytest.MonkeyPatch.context() as patch:
        if not noisy:
            patch.setattr(channel, "noise_cells", lambda *args: pytest.fail("noiseless draws drew noise"))
        draws = RoundDraws(cfg, PROFILE, seeds, n, noisy)
    parts = (draws.h, draws.a, draws.z, draws.b)
    assert (draws.z is None and draws.b is None) is not noisy
    assert all(p.shape == (len(seeds), n) and not p.flags.writeable for p in parts if p is not None)
    rows = cfg.data_rows_idx[: -(-m // cfg.l_fft)]
    for k, s in enumerate(seeds):
        alone = RoundDraws(cfg, PROFILE, [s], m, True)
        own = _clean(cfg, s, rows) + (_payload_noise(cfg, s, m), _estimate_noise(cfg, s, rows))
        for part, whole, mine in zip(parts, (alone.h, alone.a, alone.z, alone.b), own):
            assert _same_bits(whole[0], mine[:m])
            assert part is None or _same_bits(part[k], whole[0, :n])
    other_cfg = CONFIGS["fft256" if name == "default" else "default"]
    refused = [(seeds[0], cfg, channel.ChannelProfile(speed_kmh=0.0), n, None),
               (LinkSeeds(pilot=-1, channel=-1, noise=-1), cfg, PROFILE, n, None)]
    if n <= other_cfg.payload_capacity:
        refused.append((seeds[0], other_cfg, PROFILE, n, None))
    if n < cfg.payload_capacity:
        refused.append((seeds[0], cfg, PROFILE, n + 1, None))
    if not noisy:
        refused.append((seeds[0], cfg, PROFILE, n, 6.0))
    for s, c, profile, size, snr_db in refused:
        with pytest.raises(ValueError, match="round draws"):
            transmit_symbols(_payload(size, 1.0, 0), c, profile, snr_db, s, draws=draws)


@pytest.mark.parametrize("name", ["default", "pilot3"])
def test_link_draws_have_the_full_grid_noise_law(name):
    # over 2,000 seeded rounds the link's draws and the old full-width law
    # (white unit-variance noise on whole pilot and payload rows, through the
    # full-grid estimator) give the same statistics: b's per-cell variance is
    # (l_cp / l_fft) * sum_j c_j^2, with c_j the line weights of the payload's
    # row, and z is circular with unit variance
    cfg, rounds, n = CONFIGS[name], 2000, 256
    rows = cfg.data_rows_idx[:1]
    pilot_rows = cfg.pilot_rows_idx[:2]
    weights = rxdsp.interpolate(np.eye(len(pilot_rows)), pilot_rows, rows)[0]
    want_b = cfg.l_cp / cfg.l_fft * float(np.sum(weights**2))
    seeds = [LinkSeeds(pilot=3 * r, channel=3 * r + 1, noise=3 * r + 2) for r in range(rounds)]
    draws = RoundDraws(cfg, PROFILE, seeds, n, True)  # a row per round
    old_b, old_z = [], []
    for s in seeds:
        full = channel._noise_rows(s.noise, pilot_rows + rows, cfg.l_fft)
        pilots = ofdm.pilot_rows(cfg, s.pilot)[: len(pilot_rows)]
        old_b.append(rxdsp.estimate(full[: len(pilot_rows)], pilots, pilot_rows, rows, cfg.l_cp)[0, :n])
        old_z.append(full[len(pilot_rows)][:n])
        assert np.max(np.abs(np.abs(pilots) - 1.0)) <= 1e-15  # so z/p has the law of z
    for b, z in ((draws.b, draws.z), (np.array(old_b), np.array(old_z))):
        # a round's cells are correlated, so the error is that of the per-round means
        per_round = np.mean(np.abs(b) ** 2, axis=1)
        assert abs(per_round.mean() - want_b) <= 4.0 * per_round.std() / np.sqrt(rounds)
        assert abs(np.mean(b**2)) <= 4.0 * np.sqrt(2.0 / rounds) * want_b
        cells = z.size
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 4.0 / np.sqrt(cells)
        assert abs(np.mean(z**2)) <= 4.0 * np.sqrt(2.0 / cells)


@given(
    name=st.sampled_from(sorted(CONFIGS)),
    n=st.integers(0, 300),
    rows=st.lists(st.tuples(st.integers(0, 3), st.floats(-10.0, 30.0)), min_size=1, max_size=6),
    noisy=st.booleans(),
    shared=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_per_row_seeds_are_each_row_alone_bit_for_bit(name, n, rows, noisy, shared):
    # rows of different payloads, SNRs and link seeds (a seed may repeat)
    # stack into one call: row b of every output is what a lone call of its
    # payload at its SNR on its seeds returns, whether the rows find their
    # draws in a RoundDraws of more seeds and cells than they read, or the
    # call makes them
    cfg = CONFIGS[name]
    seeds = [LinkSeeds(pilot=k, channel=100 + k, noise=200 + k) for k, _ in rows]
    symbols = np.stack([_payload(n, 1.0, seed=10 * b + k) for b, (k, _) in enumerate(rows)])
    snrs = [snr for _, snr in rows] if noisy else None
    draws = None
    if shared:
        every = [LinkSeeds(pilot=k, channel=100 + k, noise=200 + k) for k in range(3, -1, -1)]
        draws = RoundDraws(cfg, PROFILE, every, min(n + 7, cfg.payload_capacity), noisy)
    eq, h, noise_var = transmit_with_state(symbols, cfg, PROFILE, snrs, seeds, draws=draws)
    assert eq.shape == h.shape == (len(rows), n)
    assert _same_bits(transmit_symbols(symbols, cfg, PROFILE, snrs, seeds, draws=draws), eq)
    for b, s in enumerate(seeds):
        alone = transmit_with_state(symbols[b], cfg, PROFILE, None if snrs is None else snrs[b], s)
        assert _same_bits(alone[0], eq[b]) and _same_bits(alone[1], h[b])
        assert alone[2] == (0.0 if snrs is None else noise_var[b])


def test_per_row_calls_are_checked():
    seeds = [LinkSeeds(1, 2, 3), LinkSeeds(4, 5, 6)]
    symbols = np.stack([_payload(8, 1.0, 0), _payload(8, 1.0, 1)])
    draws = RoundDraws(TINY, PROFILE, seeds, 8, True)
    for bad in (
        dict(symbols=symbols[0]),  # a row per seed
        dict(symbols=symbols[:1]),
        dict(snr_db=[6.0]),  # an SNR per row
        dict(snr_db=6.0),
    ):
        args = {"symbols": symbols, "snr_db": [6.0, 0.0]} | bad
        with pytest.raises(ValueError, match="per-row"):
            transmit_symbols(args["symbols"], TINY, PROFILE, args["snr_db"], seeds, draws=draws)
    with pytest.raises(ValueError, match="round draws"):  # a row's seeds not in the draws
        transmit_symbols(symbols, TINY, PROFILE, [6.0, 0.0], [seeds[0], LinkSeeds(7, 8, 9)], draws=draws)
    with pytest.raises(ValueError, match="snr_db"):
        transmit_symbols(symbols, TINY, PROFILE, [6.0, float("nan")], seeds)

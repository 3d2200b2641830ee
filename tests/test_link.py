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
from semlink import channel, ofdm, rxdsp
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


def _grid_noise(cfg, seeds, n):
    """The oracle's unit-variance noise grid, from the link's own draws: the
    first n payload cells carry RoundDraws.payload_noise, and pilot row j,
    which carried p_j, carries p_j * fft(g_j padded to l_fft), where g_j is
    the row's l_cp noise taps (channel.noise_cells), so the truncated LS
    estimate of the row is g_j. Every other cell is zero: no output reads it."""
    z = np.zeros((cfg.n_symbols, cfg.l_fft), dtype=np.complex128)
    data = np.zeros(cfg.payload_capacity, dtype=np.complex128)
    data[:n] = RoundDraws(cfg, PROFILE, seeds).payload_noise(n)
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
    assert _same_bits(RoundDraws(cfg, PROFILE, seeds).cells(n)[0], true_h)
    assert _close(got_h, h) and _close(got_eq, eq)
    # the received cells are the oracle's bits: the equalizer applied to them
    # with the link's estimate is the link's output
    assert _same_bits(got_eq, rxdsp.equalize_mmse(rx, got_h, noise_var))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_estimate_parts_are_the_oracles_estimates(name):
    # a is rxdsp.estimate of the noiseless pilot rows, b that of the grid
    # noise's pilot rows alone, on every data row, within BOUND
    cfg = CONFIGS[name]
    seeds = LinkSeeds(pilot=51, channel=52, noise=53)
    draws = RoundDraws(cfg, PROFILE, seeds)
    rows = cfg.pilot_rows_idx
    pilots = ofdm.pilot_rows(cfg, seeds.pilot)
    h = channel.freq_response(draws.real, cfg)
    z = _grid_noise(cfg, seeds, 0)
    for k in (1, 2, len(cfg.data_rows_idx)):
        data_rows = cfg.data_rows_idx[:k]
        got_h, a = draws.clean(data_rows)
        want_a = rxdsp.estimate(h[list(rows)] * pilots, pilots, rows, data_rows, cfg.l_cp)
        want_b = rxdsp.estimate(z[list(rows)], pilots, rows, data_rows, cfg.l_cp)
        assert _same_bits(got_h, h[list(data_rows)].reshape(-1))
        assert _close(a, want_a.reshape(-1)) and _close(draws.estimate_noise(data_rows), want_b.reshape(-1))


def test_payload_noise_reads_each_rows_stream_as_a_prefix(monkeypatch):
    # data row i's cells are the first cells of its own stream, whatever
    # payload sizes came before; a payload no longer than one drawn before
    # draws nothing
    seeds = LinkSeeds(pilot=1, channel=2, noise=3)
    l_fft, rows = TINY.l_fft, TINY.data_rows_idx
    whole = np.concatenate([channel.noise_cells(seeds.noise, j, l_fft) for j in rows])
    calls = Counter()
    noise_cells = channel.noise_cells

    def counted(*args):
        calls["noise_cells"] += 1
        return noise_cells(*args)
    monkeypatch.setattr(channel, "noise_cells", counted)
    for sizes in ((5, l_fft + 3, 7, TINY.payload_capacity), (TINY.payload_capacity, 1, l_fft)):
        draws = RoundDraws(TINY, PROFILE, seeds)
        for n in sizes:
            before = calls["noise_cells"]
            z = draws.payload_noise(n)
            assert _same_bits(z, whole[:n]) and not z.flags.writeable
            assert calls["noise_cells"] - before == (0 if n <= max(sizes[: sizes.index(n)], default=0)
                                                     else -(-n // l_fft))


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_noiseless_transmit_draws_no_noise(monkeypatch, link_fn):
    def refuse(*args, **kwargs):
        raise AssertionError("a noiseless transmit drew noise")
    monkeypatch.setattr(channel, "noise_cells", refuse)
    monkeypatch.setattr(channel, "_noise_rows", refuse)
    seeds = LinkSeeds(pilot=61, channel=62, noise=63)
    draws = RoundDraws(TINY, PROFILE, seeds)
    for n in (0, 7, TINY.l_fft + 1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, None, seeds)
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, None, seeds, draws=draws)
    assert not draws._b and draws._z.size == 0


@pytest.mark.parametrize("link_fn", [transmit_symbols, transmit_with_state])
def test_link_runs_the_one_receiver_chain(monkeypatch, link_fn):
    # each transmit runs the public equalizer once; a RoundDraws asks
    # channel.freq_response for H and takes the estimator's line across
    # symbols for a once per new set of simulated data rows, and draws the
    # pilot rows' noise taps and takes the line for b once per set that a
    # noisy call reaches: the line runs at most twice per set of data rows,
    # whatever the number of SNRs. Payload noise is drawn per data row when
    # a payload outgrows what was drawn; channel.apply's whole rows never
    counts = Counter()
    for module, name in ((rxdsp, "interpolate"), (rxdsp, "equalize_mmse"), (channel, "freq_response"),
                         (channel, "noise_cells"), (channel, "_noise_rows"), (rxdsp, "estimate")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    seeds = LinkSeeds(pilot=31, channel=32, noise=33)
    draws = RoundDraws(TINY, PROFILE, seeds)
    # one data row with no noise, then at 6 dB; two rows at 0 dB; both row
    # sets again at other SNRs and with no noise: (payload size, SNR, lines,
    # H responses and noise draws so far), two pilot rows' taps per b
    steps = [
        (5, None, 1, 1, 0), (7, 6.0, 2, 1, 2 + 1), (TINY.l_fft + 1, 0.0, 4, 2, 5 + 2), (9, 0.0, 4, 2, 7),
        (TINY.l_fft + 2, 18.0, 4, 2, 7 + 2), (11, 18.0, 4, 2, 9), (13, None, 4, 2, 9),
        (TINY.l_fft + 3, None, 4, 2, 9),
    ]
    for calls, (n, snr_db, lines, responses, noises) in enumerate(steps, start=1):
        link_fn(_payload(n, 1.0, seed=n), TINY, PROFILE, snr_db, seeds, draws=draws)
        assert (counts["interpolate"], counts["equalize_mmse"], counts["freq_response"],
                counts["noise_cells"]) == (lines, calls, responses, noises)
    link_fn(_payload(5, 1.0, seed=5), TINY, PROFILE, 6.0, seeds)  # draws of its own
    assert (counts["interpolate"], counts["equalize_mmse"], counts["freq_response"],
            counts["noise_cells"]) == (6, 9, 3, 12)
    assert counts["_noise_rows"] == counts["estimate"] == 0


def test_round_draws_estimate_is_read_only_and_payload_free():
    # the kept parts are read-only, made once, and serve every payload at
    # every SNR: a noisy call's estimate is a + sigma * b on its cells, a
    # noiseless call's is a
    seeds = LinkSeeds(pilot=41, channel=42, noise=43)
    draws = RoundDraws(TINY, PROFILE, seeds)
    rows = TINY.data_rows_idx[:1]

    def kept():
        return draws.clean(rows) + (draws.payload_noise(TINY.l_fft), draws.estimate_noise(rows))

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
    assert all(np.shares_memory(x, y) for x, y in zip(kept(), parts))  # none made again


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
        (LinkSeeds(1, 2, 3), TINY, channel.ChannelProfile(speed_kmh=0.0)),
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


@given(
    name=st.sampled_from(sorted(CONFIGS)),
    n=st.integers(0, TINY.payload_capacity),
    snrs=st.none() | st.lists(st.floats(-10.0, 30.0, allow_nan=False), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_payload_cell_link_is_transmit_with_state_bit_for_bit(name, n, snrs, seed):
    # receive_cells on a round's payload-cell parts (RoundDraws.cells) is the
    # link, noiseless and at a 1-D batch of SNRs, and so is a lone SNR as the
    # rank corpus passes it: parts (n,) and a (1, 1) noise variance
    cfg = CONFIGS[name]
    n = min(n, cfg.payload_capacity)
    symbols = _payload(n, 1.0, seed)
    seeds = LinkSeeds(pilot=seed, channel=seed + 1, noise=seed + 2)
    if snrs is None:
        eq, h, noise_var = transmit_with_state(symbols, cfg, PROFILE, None, seeds)
        got_eq, got_h = receive_cells(symbols, *RoundDraws(cfg, PROFILE, seeds).cells(n, noisy=False))
        assert _same_bits(got_eq, eq) and _same_bits(got_h, h) and noise_var == 0.0
        return
    parts = RoundDraws(cfg, PROFILE, seeds).cells(n)
    var = np.array([[channel.noise_variance(x)] for x in snrs])
    eq, h, noise_var = transmit_with_state(symbols, cfg, PROFILE, snrs, seeds)
    got_eq, got_h = receive_cells(symbols, *parts, var)
    assert _same_bits(got_eq, eq) and _same_bits(got_h, h) and _same_bits(var[:, 0], noise_var)
    eq, h, _ = transmit_with_state(symbols, cfg, PROFILE, snrs[0], seeds)
    got_eq, got_h = receive_cells(symbols, *parts, var[:1])
    assert _same_bits(got_eq[0], eq) and _same_bits(got_h[0], h)


def test_round_draws_cells_are_its_kept_parts_on_the_payload_cells():
    seeds = LinkSeeds(pilot=71, channel=72, noise=73)
    draws = RoundDraws(TINY, PROFILE, seeds)
    for n, rows in ((5, TINY.data_rows_idx[:1]), (TINY.l_fft + 2, TINY.data_rows_idx[:2])):
        kept = draws.clean(rows) + (draws.payload_noise(n), draws.estimate_noise(rows))
        cells = draws.cells(n)
        assert len(cells) == 4 and all(c.size == n for c in cells)
        assert all(_same_bits(c, k[:n]) for c, k in zip(cells, kept))
        assert all(_same_bits(c, k[:n]) for c, k in zip(draws.cells(n, noisy=False), kept[:2]))


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
    new_b, new_z, old_b, old_z = [], [], [], []
    for r in range(rounds):
        seeds = LinkSeeds(pilot=3 * r, channel=3 * r + 1, noise=3 * r + 2)
        _, _, z, b = RoundDraws(cfg, PROFILE, seeds).cells(n)
        new_b.append(b)
        new_z.append(z)
        full = channel._noise_rows(seeds.noise, pilot_rows + rows, cfg.l_fft)
        pilots = ofdm.pilot_rows(cfg, seeds.pilot)[: len(pilot_rows)]
        old_b.append(rxdsp.estimate(full[: len(pilot_rows)], pilots, pilot_rows, rows, cfg.l_cp)[0, :n])
        old_z.append(full[len(pilot_rows)][:n])
        assert np.max(np.abs(np.abs(pilots) - 1.0)) <= 1e-15  # so z/p has the law of z
    for b, z in ((np.array(new_b), np.array(new_z)), (np.array(old_b), np.array(old_z))):
        # a round's cells are correlated, so the error is that of the per-round means
        per_round = np.mean(np.abs(b) ** 2, axis=1)
        assert abs(per_round.mean() - want_b) <= 4.0 * per_round.std() / np.sqrt(rounds)
        assert abs(np.mean(b**2)) <= 4.0 * np.sqrt(2.0 / rounds) * want_b
        cells = z.size
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) <= 4.0 / np.sqrt(cells)
        assert abs(np.mean(z**2)) <= 4.0 * np.sqrt(2.0 / cells)

"""OFDM framing tests: QAM mapping, pilot layout, CP, and transform inverses."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_time, to_time
from semlink.ofdm import (
    QAM_ORDERS,
    OfdmConfig,
    frame_build,
    frame_extract,
    pilot_rows,
    qam_demap_hard,
    qam_map,
)

CFG = OfdmConfig()
SMALL = OfdmConfig(l_fft=64, n_symbols=14, l_cp=8)


def test_qpsk_gray_table():
    # first bit drives I, second Q; 0 -> +1, 1 -> -1, unit energy
    s = qam_map(np.array([0, 0, 0, 1, 1, 0, 1, 1]), 4)
    r = 1.0 / np.sqrt(2.0)
    expected = np.array([r + 1j * r, r - 1j * r, -r + 1j * r, -r - 1j * r])
    assert np.allclose(s, expected, atol=1e-15)


@pytest.mark.parametrize("order", QAM_ORDERS)
def test_constellation_unit_energy(order):
    m = int(np.log2(order))
    # enumerate every bit group once
    bits = ((np.arange(order)[:, None] >> np.arange(m - 1, -1, -1)) & 1).reshape(-1)
    points = qam_map(bits, order)
    assert len(np.unique(np.round(points, 12))) == order
    assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("order", (16, 256))
def test_gray_adjacency(order):
    # nearest horizontal/vertical neighbours differ in exactly one bit
    m = int(np.log2(order))
    levels = int(np.sqrt(order))
    bits = ((np.arange(order)[:, None] >> np.arange(m - 1, -1, -1)) & 1).reshape(-1)
    points = qam_map(bits, order)
    # key each point by its odd-integer lattice coordinates (exact)
    axis = np.sort(np.unique(np.round(points.real, 12)))
    d = axis[1] - axis[0]
    coord = lambda p: (int(round(p.real / (d / 2))), int(round(p.imag / (d / 2))))
    labels = {coord(p): g for g, p in zip(bits.reshape(-1, m), points)}
    checked = 0
    for (x, y), g in labels.items():
        for q in ((x + 2, y), (x, y + 2)):
            if q in labels:
                assert int(np.sum(g != labels[q])) == 1
                checked += 1
    assert checked == 2 * levels * (levels - 1)


@given(
    order=st.sampled_from(QAM_ORDERS),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_demap_inverts_map(order, data):
    m = int(np.log2(order))
    n = data.draw(st.integers(min_value=1, max_value=40))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m)))
    assert np.array_equal(qam_demap_hard(qam_map(bits, order), order), bits)


def _per_bit_demap(symbols, order):
    """Hard demap bit by bit: each axis's nearest level index, Gray-coded,
    then its bits shifted out one at a time, most significant first."""
    m = int(np.log2(order)) // 2
    levels = 1 << m
    scale = np.sqrt(2.0 * (levels * levels - 1) / 3.0)
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    out = np.empty((symbols.size, 2 * m), dtype=np.uint8)
    for axis, vals in ((0, symbols.real), (1, symbols.imag)):
        idx = np.clip(np.round(((levels - 1) - vals * scale) / 2.0), 0, levels - 1)
        gray = idx.astype(np.int64) ^ (idx.astype(np.int64) >> 1)
        for b in range(m):
            out[:, axis * m + b] = (gray >> (m - 1 - b)) & 1
    return out.reshape(-1)


def _axis_values(order):
    """One axis coordinate: anywhere, on a decision boundary or a level of
    the order (an integer over the constellation scale), one float step off
    one, or far outside the constellation."""
    levels = 1 << (int(np.log2(order)) // 2)
    scale = np.sqrt(2.0 * (levels * levels - 1) / 3.0)
    on_grid = st.integers(-levels - 1, levels + 1).map(lambda j: j / scale)
    nudged = st.tuples(on_grid, st.sampled_from([-np.inf, np.inf])).map(lambda t: np.nextafter(*t))
    return st.one_of(
        st.floats(-2.0, 2.0), on_grid, nudged, st.floats(-1e100, 1e100), st.sampled_from([-0.0, 0.0])
    )


@given(order=st.sampled_from(QAM_ORDERS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_demap_table_matches_the_per_bit_oracle(order, data):
    axis = _axis_values(order)
    points = data.draw(st.lists(st.tuples(axis, axis), min_size=1, max_size=40))
    symbols = np.array([complex(re, im) for re, im in points])
    got = qam_demap_hard(symbols, order)
    assert got.dtype == np.uint8
    assert got.tobytes() == _per_bit_demap(symbols, order).tobytes()


def test_qam_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qam_map(np.zeros(8, dtype=int), 8)
    with pytest.raises(ValueError):
        qam_map(np.zeros(3, dtype=int), 4)
    with pytest.raises(ValueError):
        qam_map(np.array([0, 2]), 4)


@pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.nan), np.inf, complex(-np.inf, 1.0)])
def test_qam_demap_hard_rejects_a_non_finite_symbol(bad):
    # cast to an integer level, NaN would warn and then give fixed bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            qam_demap_hard(np.array([bad, 1 + 1j]), 16)


def test_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(l_cp=4096)
    with pytest.raises(ValueError):
        OfdmConfig(pilot_symbols=(0, 12))
    with pytest.raises(ValueError):
        OfdmConfig(pilot_symbols=(3, 3))
    with pytest.raises(ValueError, match="pilot_symbols"):
        OfdmConfig(pilot_symbols=())
    with pytest.raises(ValueError, match="pilot_symbols"):
        OfdmConfig(n_symbols=2, pilot_symbols=(1, 2))
    for spacing in (0.0, -15e3):
        with pytest.raises(ValueError, match="subcarrier_spacing"):
            OfdmConfig(subcarrier_spacing=spacing)


def test_pilot_layout_default():
    assert CFG.pilot_rows_idx == (2, 11)
    assert len(CFG.data_rows_idx) == 12
    assert CFG.payload_capacity == 12 * 2048


@given(n_symbols=st.integers(2, 20), data=st.data())
@settings(max_examples=100, deadline=None)
def test_row_tuples_are_computed_once_and_leave_the_config_a_value(n_symbols, data):
    pilots = tuple(data.draw(st.lists(st.integers(1, n_symbols), min_size=1, max_size=n_symbols - 1,
                                      unique=True)))
    cfg = OfdmConfig(l_fft=16, n_symbols=n_symbols, pilot_symbols=pilots, l_cp=4)
    twin = OfdmConfig(l_fft=16, n_symbols=n_symbols, pilot_symbols=pilots, l_cp=4)
    assert cfg.pilot_rows_idx == tuple(p - 1 for p in pilots)
    assert cfg.data_rows_idx == tuple(i for i in range(n_symbols) if i not in set(cfg.pilot_rows_idx))
    assert cfg.pilot_rows_idx is cfg.pilot_rows_idx and cfg.data_rows_idx is cfg.data_rows_idx
    # the cached tuples are not fields: a config that has computed them is
    # equal to, hashes like and replaces like one that has not
    assert cfg == twin and hash(cfg) == hash(twin)
    assert replace(cfg, l_cp=2) == replace(twin, l_cp=2)
    assert replace(cfg, pilot_symbols=(n_symbols,)).pilot_rows_idx == (n_symbols - 1,)


def test_pilot_rows_deterministic():
    a = pilot_rows(SMALL, 123)
    b = pilot_rows(SMALL, 123)
    c = pilot_rows(SMALL, 124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # QPSK alphabet only
    assert np.allclose(np.abs(a), 1.0, atol=1e-12)


def test_frame_roundtrip_exact():
    rng = np.random.default_rng(5)
    payload = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    grid = frame_build(payload, SMALL, pilot_seed=7)
    assert np.array_equal(frame_extract(grid, SMALL, 500), payload)


def test_frame_full_capacity_no_padding():
    rng = np.random.default_rng(6)
    n = SMALL.payload_capacity
    payload = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grid = frame_build(payload, SMALL, pilot_seed=7)
    data = grid[list(SMALL.data_rows_idx), :]
    assert np.array_equal(data.reshape(-1), payload)


def test_frame_empty_payload_zero_data_rows():
    grid = frame_build(np.zeros(0, dtype=complex), SMALL, pilot_seed=7)
    data = grid[list(SMALL.data_rows_idx), :]
    assert not np.any(data)
    pilots = grid[list(SMALL.pilot_rows_idx), :]
    assert np.array_equal(pilots, pilot_rows(SMALL, 7))


def test_frame_overflow_rejected():
    with pytest.raises(ValueError):
        frame_build(np.zeros(SMALL.payload_capacity + 1, dtype=complex), SMALL, 7)


def test_time_roundtrip_identity():
    rng = np.random.default_rng(8)
    for cfg in (SMALL, CFG):
        shape = (cfg.n_symbols, cfg.l_fft)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = from_time(to_time(grid, cfg), cfg)
        assert np.max(np.abs(back - grid)) / np.max(np.abs(grid)) < 1e-9


def test_cyclic_prefix_is_tail_copy():
    rng = np.random.default_rng(9)
    grid = rng.standard_normal((14, 64)) + 1j * rng.standard_normal((14, 64))
    t = to_time(grid, SMALL)
    assert t.shape == (14, SMALL.l_cp + SMALL.l_fft)
    assert np.array_equal(t[:, : SMALL.l_cp], t[:, -SMALL.l_cp :])


def test_parseval_per_symbol():
    rng = np.random.default_rng(10)
    for cfg in (SMALL, CFG):
        shape = (cfg.n_symbols, cfg.l_fft)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        body = to_time(grid, cfg)[:, cfg.l_cp :]
        e_time = np.sum(np.abs(body) ** 2, axis=1)
        e_freq = np.sum(np.abs(grid) ** 2, axis=1)
        assert np.max(np.abs(e_time - e_freq) / e_freq) < 1e-9


def test_single_subcarrier_is_complex_exponential():
    k = 5
    n_fft = SMALL.l_fft
    grid = np.zeros((14, n_fft), dtype=complex)
    grid[0, k] = 1.0
    body = to_time(grid, SMALL)[0, SMALL.l_cp :]
    for n in (0, 17, 63):
        expected = np.exp(2j * np.pi * k * n / n_fft) / np.sqrt(n_fft)
        assert abs(body[n] - expected) < 1e-12


def test_full_chain_identity_channel():
    rng = np.random.default_rng(11)
    payload = rng.standard_normal(700) + 1j * rng.standard_normal(700)
    grid = frame_build(payload, SMALL, pilot_seed=3)
    out = frame_extract(from_time(to_time(grid, SMALL), SMALL), SMALL, 700)
    assert np.max(np.abs(out - payload)) < 1e-9


def test_derived_timing_properties():
    assert CFG.sample_rate == 2048 * 15e3
    assert abs(CFG.symbol_duration - (2048 + 144) / (2048 * 15e3)) < 1e-18

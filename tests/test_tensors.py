"""Feature tensors, importance masking and the packed wire format."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.tensors import (
    FeatureTensor,
    ImportanceMask,
    apply_mask,
    importance_map,
    pack_nonzero,
    unpack,
)


def _rand_feature(rng, c=3, h=6, w=5):
    return FeatureTensor(rng.standard_normal((c, h, w)))


def test_feature_tensor_rejects_nonfinite():
    bad = np.zeros((1, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        FeatureTensor(bad)


def test_feature_tensor_immutable():
    f = FeatureTensor(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        f.data[0, 0, 0] = 1.0


def test_importance_map_2x2_example():
    # per-cell magnitudes 1,2,3,4 -> k=2 keeps the two largest cells
    f = FeatureTensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    mask = importance_map(f, 2)
    assert mask.cells.tolist() == [[False, False], [True, True]]


def test_importance_map_full_cr_selects_all():
    rng = np.random.default_rng(0)
    mask = importance_map(_rand_feature(rng), 6 * 5)
    assert mask.cells.all()


def test_importance_map_matches_sort_oracle_at_paper_scale():
    rng = np.random.default_rng(1)
    f = FeatureTensor(rng.standard_normal((64, 100, 252)))
    k = 126  # 5e-3 of the 100 x 252 grid, rounded up
    mask = importance_map(f, k)
    assert mask.n_selected == k
    mag = np.sqrt((f.data**2).sum(axis=0)).reshape(-1)
    oracle = np.zeros(mag.size, dtype=bool)
    oracle[np.argsort(-mag, kind="stable")[:k]] = True
    assert np.array_equal(mask.cells.reshape(-1), oracle)


def test_importance_map_tie_break_lowest_index():
    f = FeatureTensor(np.ones((1, 2, 2)))
    mask = importance_map(f, 2)
    assert mask.cells.tolist() == [[True, True], [False, False]]


def test_importance_map_rejects_bad_cr():
    # the cell count a cr rounds to must be 1..H*W: 0, negative and H*W+1 are rejected
    rng = np.random.default_rng(2)
    for k in (0, -1, 91):
        with pytest.raises(ValueError, match=r"cell count must be in \[1, 90\]"):
            importance_map(_rand_feature(rng, 4, 10, 9), k)


def test_importance_map_keeps_exactly_k_cells():
    rng = np.random.default_rng(3)
    for k in (1, 27, 69, 90):
        f = _rand_feature(rng, 4, 10, 9)
        assert importance_map(f, k).n_selected == k


def test_mask_occupancy_within_one_cell(default_cfg):
    # mask_cells rounds cr * H * W up to whole cells; the mask keeps that many
    rng = np.random.default_rng(3)
    s = default_cfg.scene
    for cr in (0.01, 0.3, 0.77, 1.0):
        cfg = replace(default_cfg, codec=replace(default_cfg.codec, cr=cr))
        mask = importance_map(_rand_feature(rng, 2, s.height, s.width), cfg.mask_cells())
        assert mask.n_selected == cfg.mask_cells()
        assert abs(mask.n_selected - cr * s.height * s.width) <= 1.0


def test_apply_mask_identity_and_zero():
    rng = np.random.default_rng(4)
    f = _rand_feature(rng)
    ones = ImportanceMask(np.ones(f.shape[1:], dtype=bool))
    assert np.array_equal(apply_mask(f, ones).data, f.data)
    # a zero mask is not constructible through importance_map (k >= 1);
    # build an explicit low-occupancy mask and check the unselected cells zero
    mask = importance_map(f, 3)
    masked = apply_mask(f, mask)
    assert np.all(masked.data[:, ~mask.cells] == 0.0)
    assert np.array_equal(masked.data[:, mask.cells], f.data[:, mask.cells])


def test_apply_mask_elementwise_oracle():
    rng = np.random.default_rng(5)
    f = _rand_feature(rng)
    mask = importance_map(f, 12)
    got = apply_mask(f, mask).data
    for c in range(f.shape[0]):
        for i in range(f.shape[1]):
            for j in range(f.shape[2]):
                assert got[c, i, j] == f.data[c, i, j] * mask.cells[i, j]


def test_apply_mask_idempotent():
    rng = np.random.default_rng(6)
    f = _rand_feature(rng)
    mask = importance_map(f, 9)
    once = apply_mask(f, mask)
    twice = apply_mask(once, mask)
    assert np.array_equal(once.data, twice.data)


def test_apply_mask_shape_mismatch():
    rng = np.random.default_rng(7)
    f = _rand_feature(rng, 2, 4, 4)
    mask = importance_map(_rand_feature(rng, 2, 5, 5), 13)
    with pytest.raises(ValueError, match="shape"):
        apply_mask(f, mask)


def test_pack_full_mask_is_row_major_flatten():
    rng = np.random.default_rng(8)
    f = _rand_feature(rng)
    ones = ImportanceMask(np.ones(f.shape[1:], dtype=bool))
    assert np.array_equal(pack_nonzero(f, ones), f.data.reshape(-1))


def test_pack_length():
    rng = np.random.default_rng(9)
    f = _rand_feature(rng, 4, 8, 8)
    mask = importance_map(f, 16)
    assert pack_nonzero(f, mask).size == 4 * mask.n_selected


def test_unpack_rejects_wrong_length():
    rng = np.random.default_rng(10)
    f = _rand_feature(rng)
    mask = importance_map(f, 15)
    with pytest.raises(ValueError, match="entries"):
        unpack(np.zeros(3), mask, f.shape)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(2, 8),
    st.integers(2, 8),
    st.data(),
    st.integers(0, 2**31 - 1),
)
def test_pack_unpack_round_trip(c, h, w, data, seed):
    rng = np.random.default_rng(seed)
    f = FeatureTensor(rng.standard_normal((c, h, w)))
    mask = importance_map(f, data.draw(st.integers(1, h * w)))
    masked = apply_mask(f, mask)
    back = unpack(pack_nonzero(masked, mask), mask, masked.shape)
    assert np.array_equal(back.data, masked.data)

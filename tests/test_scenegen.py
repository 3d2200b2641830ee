"""Synthetic scenes, the proxy readout head, and the similarity score."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semlink.scenegen import (
    SIMILARITY_CAP,
    ProxyHead,
    Scene,
    SceneConfig,
    confidence_map,
    generate_scene,
    perception_loss,
    perception_loss_grad,
    sent_cells,
    true_similarity,
)
from semlink.tensors import FeatureTensor, ImportanceMask, importance_map, pack_nonzero, unpack

from conftest import whole_grid_perception_loss_grad

CFG = SceneConfig(channels=8, height=12, width=10, logit_amp=4.0)
HEAD = ProxyHead.from_seed(77, CFG.channels)


def test_head_is_orthonormal_and_deterministic():
    gram = HEAD.basis.T @ HEAD.basis
    assert np.allclose(gram, np.eye(5), atol=1e-12)
    again = ProxyHead.from_seed(77, CFG.channels)
    assert np.array_equal(HEAD.basis, again.basis)
    other = ProxyHead.from_seed(78, CFG.channels)
    assert not np.array_equal(HEAD.basis, other.basis)


def test_head_adjoint_is_right_inverse():
    rng = np.random.default_rng(0)
    reg = rng.standard_normal((4, 3, 4))
    logits = rng.standard_normal((4, 3))
    f = FeatureTensor(HEAD.adjoint(reg, logits))
    reg2, logits2 = HEAD.readout(f)
    assert np.allclose(reg2, reg, atol=1e-12)
    assert np.allclose(logits2, logits, atol=1e-12)


def test_head_rejects_few_channels():
    with pytest.raises(ValueError):
        ProxyHead.from_seed(1, 4)


def test_generate_scene_deterministic():
    s1, f1 = generate_scene(123, CFG, HEAD)
    s2, f2 = generate_scene(123, CFG, HEAD)
    assert np.array_equal(s1.labels, s2.labels)
    assert np.array_equal(s1.targets, s2.targets)
    assert np.array_equal(f1.data, f2.data)


def test_generate_scene_zero_rate():
    cfg = SceneConfig(channels=8, height=12, width=10, object_rate=1e-12)
    scene, _ = generate_scene(5, cfg, HEAD)
    assert scene.labels.sum() == 0


def test_active_fraction_matches_rate():
    rate = 0.06
    n_cells = CFG.height * CFG.width
    fractions = [
        generate_scene(seed, CFG, HEAD)[0].labels.sum() / n_cells for seed in range(1000)
    ]
    # Poisson(rate * n) counts: SE of the mean fraction over 1000 seeds
    se = math.sqrt(rate / n_cells / 1000)
    assert abs(np.mean(fractions) - rate) < 3 * se


def _one_cell_setup():
    head = ProxyHead.from_seed(9, 5)
    targets = np.array([[[0.7, -0.2, 1.1, 0.4]]])
    scene = Scene(targets, np.array([[1]]))
    return head, scene, targets


def test_perception_loss_hand_computed_one_cell():
    # regression off by 0.3 in each of 4 dims, class probability exactly 0.5
    head, scene, targets = _one_cell_setup()
    f = FeatureTensor(head.adjoint(targets - 0.3, np.zeros((1, 1))))
    expected = 4 * (0.5 * 0.3**2) + 0.25 * 0.25 * math.log(2.0)
    assert perception_loss(f, scene, head) == pytest.approx(expected, abs=1e-12)


def test_perception_loss_near_perfect_prediction():
    head, scene, targets = _one_cell_setup()
    f = FeatureTensor(head.adjoint(targets, np.full((1, 1), 10.0)))
    assert perception_loss(f, scene, head) < 1e-3


def test_perception_loss_nonnegative_and_noise_monotone():
    rng = np.random.default_rng(1)
    wins = 0
    for trial in range(100):
        scene, f = generate_scene(trial, CFG, HEAD)
        clean = perception_loss(f, scene, HEAD)
        assert clean >= 0.0
        noisy = FeatureTensor(f.data + 2.0 * rng.standard_normal(f.data.shape))
        if perception_loss(noisy, scene, HEAD) >= clean:
            wins += 1
    assert wins >= 90


def test_perception_loss_grad_matches_finite_differences():
    scene, f = generate_scene(42, CFG, HEAD)
    mask = importance_map(f, 30)
    c = f.shape[0]
    packed = pack_nonzero(f, mask)
    loss, grad = perception_loss_grad(packed.reshape(1, c, -1), sent_cells([scene], [mask]), HEAD)
    whole = unpack(packed, mask, f.shape)
    assert loss[0] == pytest.approx(perception_loss(whole, scene, HEAD), rel=1e-12)
    rng = np.random.default_rng(2)
    h = 1e-6
    for j in rng.integers(packed.size, size=20):
        up = packed.copy()
        dn = packed.copy()
        up[j] += h
        dn[j] -= h
        fd = (
            perception_loss(unpack(up, mask, f.shape), scene, HEAD)
            - perception_loss(unpack(dn, mask, f.shape), scene, HEAD)
        ) / (2 * h)
        assert grad.reshape(-1)[j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


ROW_KINDS = ("drawn", "no active cell", "active cells all unsent", "full mask")


def _scene_and_mask(kind, h, w, k, rng):
    """A drawn scene and a mask of k cells, bent to the named ROW_KINDS case."""
    n_cells = h * w
    if kind == "full mask":
        k = n_cells
    cells = np.zeros(n_cells, dtype=bool)
    cells[rng.choice(n_cells, size=k, replace=False)] = True
    labels = rng.random(n_cells) < 0.3
    if kind == "no active cell":
        labels[:] = False
    elif kind == "active cells all unsent":
        labels &= ~cells
        if k < n_cells:
            labels[np.flatnonzero(~cells)[0]] = True
    targets = rng.standard_normal((n_cells, 4)) * labels[:, None]
    scene = Scene(targets.reshape(h, w, 4), labels.reshape(h, w).astype(np.uint8))
    return scene, ImportanceMask(cells.reshape(h, w))


@given(
    c=st.integers(5, 9),
    h=st.integers(1, 6),
    w=st.integers(1, 6),
    k_frac=st.floats(0.0, 1.0),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(c=8, h=4, w=4, k_frac=0.2, kinds=["no active cell", "active cells all unsent", "drawn"],
         scale=1.0, seed=1)
@example(c=5, h=3, w=2, k_frac=0.0, kinds=["full mask", "drawn", "no active cell"], scale=30.0, seed=2)
def test_batched_perception_loss_grad_matches_whole_grid_oracle(c, h, w, k_frac, kinds, scale, seed):
    # the batched term on the sent cells against the per-sample whole-grid
    # oracle: gradients bit for bit, losses to rounding (the cells not sent
    # are summed in another order)
    n_cells = h * w
    if "full mask" in kinds:
        k = n_cells
    else:
        k = min(n_cells, 1 + int(k_frac * n_cells))
    rng = np.random.default_rng(seed)
    head = ProxyHead.from_seed(seed, c)
    scenes, masks = zip(*(_scene_and_mask(kind, h, w, k, rng) for kind in kinds))
    rec = scale * rng.standard_normal((len(kinds), c, k))

    loss, grad = perception_loss_grad(rec, sent_cells(scenes, masks), head)
    assert loss.shape == (len(kinds),) and grad.shape == rec.shape
    for i, (scene, mask) in enumerate(zip(scenes, masks)):
        f = unpack(rec[i], mask, (c, h, w))
        l_full, g_full = whole_grid_perception_loss_grad(f, scene, head)
        assert grad[i].tobytes() == g_full[:, mask.cells].tobytes()
        assert loss[i] == pytest.approx(l_full, rel=1e-12)


@given(
    c=st.integers(5, 9),
    h=st.integers(1, 8),
    w=st.integers(1, 8),
    k_frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(ROW_KINDS),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    zeros=st.sampled_from([0.0, -0.0]),
    zero_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
@example(c=8, h=16, w=16, k_frac=0.05, kind="drawn", scale=1.0, zeros=-0.0, zero_frac=0.1, seed=3)
@example(c=5, h=1, w=1, k_frac=0.0, kind="active cells all unsent", scale=1.0, zeros=-0.0,
         zero_frac=1.0, seed=4)
@example(c=5, h=3, w=4, k_frac=0.5, kind="no active cell", scale=30.0, zeros=0.0, zero_frac=0.0, seed=5)
@example(c=6, h=4, w=3, k_frac=0.0, kind="full mask", scale=1e3, zeros=-0.0, zero_frac=0.3, seed=6)
def test_sent_score_is_the_training_term_and_the_whole_grid_map(c, h, w, k_frac, kind, scale, zeros,
                                                                 zero_frac, seed):
    # the loss and map a session records, from the sent cells alone: the loss
    # is that of the batched training term for the same row, bit for bit,
    # with the message as row 1 of three; the map is confidence_map's of the
    # unpacked feature, bit for bit; the loss is perception_loss's to rounding
    rng = np.random.default_rng(seed)
    head = ProxyHead.from_seed(seed, c)
    k = min(h * w, 1 + int(k_frac * h * w))
    scenes, masks = zip(*(_scene_and_mask(kind, h, w, k, rng) for _ in range(3)))
    k = masks[1].n_selected
    messages = scale * rng.standard_normal((3, c, k))
    messages[rng.random(messages.shape) < zero_frac] = zeros
    message = messages[1].reshape(-1)
    loss, cmap = sent_cells(scenes[1:2], masks[1:2]).score(message, head)
    batched, _ = perception_loss_grad(messages, sent_cells(scenes, masks), head)
    assert np.float64(loss).tobytes() == batched[1].tobytes()
    whole = unpack(message, masks[1], (c, h, w))
    assert cmap.shape == (h, w)
    assert cmap.tobytes() == confidence_map(whole, head).tobytes()
    assert loss == pytest.approx(perception_loss(whole, scenes[1], head), rel=1e-12)


def _rest_of_whole_grids(scenes, masks):
    """SentCells.rest by the whole-grid products: smooth_l1 of every target
    and focal_loss at p = 0.5 of every cell, times the masks of the unsent
    (active) cells, summed per sample."""
    from semlink.scenegen import focal_loss, smooth_l1

    cells = np.stack([m.cells for m in masks])
    labels = np.stack([s.labels for s in scenes])
    targets = np.stack([s.targets for s in scenes])
    active, unsent = labels == 1, ~cells
    local = np.sum(smooth_l1(targets) * (active & unsent)[..., None], axis=(1, 2, 3))
    conf = np.sum(focal_loss(np.full(labels.shape, 0.5), labels) * unsent, axis=(1, 2))
    return local / np.maximum(active.sum(axis=(1, 2)), 1) + conf / labels[0].size


@given(
    h=st.integers(1, 20),
    w=st.integers(1, 20),
    k_frac=st.floats(0.0, 1.0),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
@example(h=16, w=16, k_frac=0.05, kinds=["drawn", "no active cell"], seed=3)
def test_sent_rest_is_the_whole_grid_products_bit_for_bit(h, w, k_frac, kinds, seed):
    # rest forms the unsent cells' terms alone, and sums the arrays that the
    # whole-grid products give, in their order
    rng = np.random.default_rng(seed)
    k = h * w if "full mask" in kinds else min(h * w, 1 + int(k_frac * h * w))
    scenes, masks = zip(*(_scene_and_mask(kind, h, w, k, rng) for kind in kinds))
    rest = sent_cells(scenes, masks).rest
    assert rest.tobytes() == _rest_of_whole_grids(scenes, masks).tobytes()


def test_batched_sent_score_is_each_message_alone():
    # a batch of messages scores as each message alone, bit for bit
    rng = np.random.default_rng(4)
    scene, f = generate_scene(5, CFG, HEAD)
    sent = sent_cells([scene], [importance_map(f, 7)])
    messages = rng.standard_normal((2, 3, CFG.channels * 7))
    loss, cmap = sent.score(messages, HEAD)
    assert loss.shape == (2, 3) and cmap.shape == (2, 3, CFG.height, CFG.width)
    assert sent.loss(messages, HEAD).tobytes() == loss.tobytes()  # the same losses, with no map
    for i, message in enumerate(messages.reshape(-1, CFG.channels * 7)):
        one_loss, one_map = sent.score(message, HEAD)
        assert one_loss.shape == () and one_map.shape == (CFG.height, CFG.width)
        assert one_loss.tobytes() == loss.reshape(-1)[i].tobytes()
        assert one_map.tobytes() == cmap.reshape(-1, CFG.height, CFG.width)[i].tobytes()


def test_sent_score_of_many_masks_is_each_row_alone():
    # SentCells of several scenes scores row i of a batch on scene i's mask:
    # its loss and map are those of a SentCells of that scene alone
    rng = np.random.default_rng(6)
    pairs = [generate_scene(seed, CFG, HEAD) for seed in (5, 6, 7)]
    masks = [importance_map(f, 7) for _, f in pairs]
    sent = sent_cells([scene for scene, _ in pairs], masks)
    order = [2, 0, 2, 1]
    messages = rng.standard_normal((len(order), CFG.channels * 7))
    loss, cmap = sent.rows(order).score(messages, HEAD)
    assert sent.rows(order).loss(messages, HEAD).tobytes() == loss.tobytes()
    for i, row in enumerate(order):
        one_loss, one_map = sent_cells([pairs[row][0]], [masks[row]]).score(messages[i], HEAD)
        assert one_loss.tobytes() == loss[i].tobytes()
        assert one_map.tobytes() == cmap[i].tobytes()
        assert np.all(cmap[i][~masks[row].cells] == 0.5)


def test_sent_score_rejects_a_message_it_cannot_read():
    scene, f = generate_scene(5, CFG, HEAD)
    mask = importance_map(f, 7)
    sent = sent_cells([scene], [mask])
    message = pack_nonzero(f, mask)
    for read in (sent.score, sent.loss):
        for bad in (message[:-1], np.append(message, 0.0), np.tile(message, 2), message[:, None]):
            with pytest.raises(ValueError):
                read(bad, HEAD)
        for value in (np.nan, np.inf):
            broken = message.copy()
            broken[3] = value
            with pytest.raises(ValueError, match="finite"):
                read(broken, HEAD)


def test_confidence_map_zero_feature():
    f = FeatureTensor(np.zeros((8, 4, 4)))
    assert np.all(confidence_map(f, HEAD) == 0.5)


def test_confidence_map_saturates_high_logit():
    head, scene, targets = _one_cell_setup()
    f = FeatureTensor(head.adjoint(np.zeros((1, 1, 4)), np.full((1, 1), 40.0)))
    assert confidence_map(f, head)[0, 0] >= 1.0 - 1e-6


def test_confidence_map_matches_scalar_oracle():
    _, f = generate_scene(3, CFG, HEAD)
    values = confidence_map(f, HEAD)
    _, logits = HEAD.readout(f)
    for i in range(f.shape[1]):
        for j in range(f.shape[2]):
            assert values[i, j] == pytest.approx(1.0 / (1.0 + math.exp(-logits[i, j])))


def _similarity(f_ref, f_hat, scene, head):
    return true_similarity(perception_loss(f_ref, scene, head), perception_loss(f_hat, scene, head))


def test_true_similarity_identical_hits_cap():
    scene, f = generate_scene(4, CFG, HEAD)
    assert _similarity(f, f, scene, HEAD) == SIMILARITY_CAP


def test_true_similarity_decade_arithmetic():
    # build two features whose loss gap is exactly 0.1 -> score 1
    head, scene, targets = _one_cell_setup()
    f_ref = FeatureTensor(head.adjoint(targets, np.full((1, 1), 10.0)))
    l_ref = perception_loss(f_ref, scene, head)
    # a pure localization offset d adds 4 * d^2 / 2 to the loss
    d = math.sqrt(2 * 0.1 / 4)
    f_hat = FeatureTensor(head.adjoint(targets - d, np.full((1, 1), 10.0)))
    gap = abs(perception_loss(f_hat, scene, head) - l_ref)
    assert gap == pytest.approx(0.1, rel=1e-9)
    assert _similarity(f_ref, f_hat, scene, head) == pytest.approx(1.0, abs=1e-9)


def test_true_similarity_cap_binds_on_tiny_gap():
    head, scene, targets = _one_cell_setup()
    f_ref = FeatureTensor(head.adjoint(targets, np.full((1, 1), 10.0)))
    d = math.sqrt(2 * 1e-8 / 4)
    f_hat = FeatureTensor(head.adjoint(targets - d, np.full((1, 1), 10.0)))
    assert _similarity(f_ref, f_hat, scene, head) == SIMILARITY_CAP


def test_true_similarity_monotone_in_gap():
    head, scene, targets = _one_cell_setup()
    f_ref = FeatureTensor(head.adjoint(targets, np.full((1, 1), 10.0)))
    scores = []
    for gap in (1e-3, 1e-2, 1e-1, 1.0):
        d = math.sqrt(2 * gap / 4)
        f_hat = FeatureTensor(head.adjoint(targets - d, np.full((1, 1), 10.0)))
        scores.append(_similarity(f_ref, f_hat, scene, head))
    assert scores == sorted(scores, reverse=True)
    assert all(s <= SIMILARITY_CAP for s in scores)

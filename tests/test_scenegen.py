"""Synthetic scenes, the proxy readout head, and the similarity score."""

import math

import numpy as np
import pytest

from semlink.scenegen import (
    SIMILARITY_CAP,
    ProxyHead,
    Scene,
    SceneConfig,
    confidence_map,
    generate_scene,
    perception_loss,
    perception_loss_grad,
    true_similarity,
)
from semlink.tensors import FeatureTensor

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
    loss, grad = perception_loss_grad(f, scene, HEAD)
    assert loss == pytest.approx(perception_loss(f, scene, HEAD), rel=1e-12)
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(20):
        c = rng.integers(f.shape[0])
        i = rng.integers(f.shape[1])
        j = rng.integers(f.shape[2])
        up = f.data.copy()
        dn = f.data.copy()
        up[c, i, j] += h
        dn[c, i, j] -= h
        fd = (
            perception_loss(FeatureTensor(up), scene, HEAD)
            - perception_loss(FeatureTensor(dn), scene, HEAD)
        ) / (2 * h)
        assert grad[c, i, j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


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

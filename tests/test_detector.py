"""Similarity scorer tests: pairwise objective, lambda gradients, ranking."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semlink import detector as det
from semlink import nnkit
from semlink.detector import (
    DetectorConfig,
    RankCorpus,
    SimilarityScorer,
    ack_decide,
    calibrate_scorer,
    new_scorer,
    pair_objective,
    pairwise_accuracy,
    pool_map,
    roc_auc,
    score_pooled,
    split_corpus,
    train_ranker,
)
from semlink.scenegen import (
    SIMILARITY_CAP,
    ProxyHead,
    SceneConfig,
    confidence_map,
    generate_scene,
)
from semlink.seeding import derive_seed
from semlink.tensors import FeatureTensor, apply_mask, importance_map

from conftest import score


def pair_probability(s_m: float, s_n: float, sharpness: float = 1.0):
    """Modeled probability that sample m outranks sample n."""
    d = sharpness * (np.asarray(s_m, dtype=np.float64) - np.asarray(s_n, dtype=np.float64))
    p = nnkit.sigmoid(np.atleast_1d(d))
    return p.reshape(np.shape(d)) if np.ndim(d) else float(p[0])


def make_separable_corpus(
    head,
    scene_cfg,
    cells: int,
    n_queries: int,
    n_levels: int,
    master_seed: int,
    pool: int = 16,
    s_gap: float = 0.75,
) -> RankCorpus:
    """Synthetic corpus with a guaranteed similarity ladder.

    Samplings add feature noise over the whole tensor (synthesized
    reconstruction error, not restricted to the transmitted cells, so every
    confidence cell carries level information) with a scale that doubles per
    level after the clean level 0. Labels are equally spaced similarities
    (gap >= 0.5), so perfect ordering is achievable and held-out accuracy
    measures the scorer, not the labels.
    """
    noise_scales = 0.5 * (2.0 ** np.arange(n_levels) - 1.0)  # level 0 stays clean
    maps = np.empty((n_queries, 1 + n_levels, pool * pool))
    for q in range(n_queries):
        scene, f = generate_scene(derive_seed(master_seed, "sep-scene", q), scene_cfg, head)
        mask = importance_map(f, cells)
        f_ref = apply_mask(f, mask)
        maps[q, 0] = pool_map(confidence_map(f_ref, head), pool).reshape(-1)
        rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, "sep-noise", q)))
        for level, scale in enumerate(noise_scales):
            noisy = f_ref.data + scale * rng.standard_normal(f_ref.data.shape)
            maps[q, 1 + level] = pool_map(confidence_map(FeatureTensor(noisy), head), pool).reshape(-1)
    s_true = np.tile(SIMILARITY_CAP - s_gap * np.arange(n_levels), (n_queries, 1))
    return RankCorpus(maps, s_true)


SCENE_CFG = SceneConfig(channels=5, height=12, width=12, logit_amp=2.0)
HEAD = ProxyHead.from_seed(4, 5)


def _small_corpus(n_queries=32, n_levels=4, seed=99):
    return make_separable_corpus(
        HEAD, SCENE_CFG, 15, n_queries=n_queries, n_levels=n_levels,
        master_seed=seed, pool=8,
    )


def test_pair_probability_tie_is_half():
    assert pair_probability(0.4, 0.4) == 0.5


def test_pair_probability_log3_gap():
    assert abs(pair_probability(math.log(3.0), 0.0) - 0.75) < 1e-12


def test_pair_probability_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        assert abs(pair_probability(a, b) + pair_probability(b, a) - 1.0) < 1e-12


def test_pair_probability_sharpness():
    assert abs(pair_probability(1.0, 0.0, sharpness=3.0) - pair_probability(3.0, 0.0)) < 1e-15


def pair_loss(s_m, s_n, sharpness: float = 1.0) -> float:
    """pair_objective's loss of one pair whose first score should be the larger."""
    return pair_objective(np.array([s_m, s_n]), np.array([1.0, 0.0]), sharpness)[0]


def test_pair_loss_tie_is_log2():
    assert abs(pair_loss(0.5, 0.5) - math.log(2.0)) < 1e-12


def test_pair_loss_vanishes_when_order_satisfied():
    assert pair_loss(40.0, 0.0) < 1e-12
    assert pair_loss(4.0, 0.0, sharpness=10.0) < 1e-12


def test_pair_loss_is_cross_entropy():
    # the cross entropy of "m above n": -log P, and -log(1 - P) when swapped
    rng = np.random.default_rng(1)
    for _ in range(20):
        sm, sn = 3.0 * rng.standard_normal(2)
        p = pair_probability(sm, sn)
        assert abs(pair_loss(sm, sn) + math.log(p)) < 1e-10
        assert abs(pair_loss(sn, sm) + math.log(1 - p)) < 1e-10


def test_lambda_two_sample_closed_form():
    # one oriented pair; equal scores give exactly +/- sharpness/2
    lam = pair_objective(np.array([0.3, 0.3]), np.array([1.0, 0.0]), 1.0)[2]
    assert lam[0] == -0.5
    assert lam[1] == 0.5
    lam2 = pair_objective(np.array([0.3, 0.3]), np.array([1.0, 0.0]), 2.0)[2]
    assert lam2[0] == -1.0


def test_lambda_orientation():
    # the sample with larger true similarity is pushed up (negative gradient)
    lam = pair_objective(np.array([0.2, 0.9]), np.array([5.0, 1.0]), 1.0)[2]
    assert lam[0] < 0 < lam[1]


def test_lambda_equal_truth_is_zero():
    lam = pair_objective(np.array([0.1, 0.9, 0.5]), np.array([2.0, 2.0, 2.0]), 1.0)[2]
    assert np.array_equal(lam, np.zeros(3))


def test_lambda_single_sample():
    assert np.array_equal(pair_objective(np.array([0.3]), np.array([1.0]), 1.0)[2], np.zeros(1))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lambda_sums_to_zero_exactly(data):
    k = data.draw(st.integers(2, 12))
    s_hat = np.array(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=k, max_size=k)))
    s_true = np.array(data.draw(st.lists(
        st.floats(0, 6, allow_nan=False), min_size=k, max_size=k)))
    lam = pair_objective(s_hat, s_true, 1.0)[2]
    assert np.sum(lam) == 0.0
    assert math.fsum(lam.tolist()) == 0.0


def test_lambda_matches_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = 5
        s_hat = rng.uniform(0.05, 0.95, size=k)
        s_true = rng.uniform(0.0, 6.0, size=k)

        def total_loss(s):
            return pair_objective(s, s_true, 1.0)[0]

        lam = pair_objective(s_hat, s_true, 1.0)[2]
        h = 1e-5
        fd = np.empty(k)
        for i in range(k):
            sp, sm = s_hat.copy(), s_hat.copy()
            sp[i] += h
            sm[i] -= h
            fd[i] = (total_loss(sp) - total_loss(sm)) / (2 * h)
        assert np.linalg.norm(lam - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_lambda_shape_mismatch():
    with pytest.raises(ValueError):
        pair_objective(np.zeros(3), np.zeros(4), 1.0)


def test_ack_tie_is_nack():
    assert not ack_decide(0.72, 0.72)
    assert ack_decide(0.7200001, 0.72)
    assert not ack_decide(0.5, 0.72)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(ack_threshold=1.5)
    with pytest.raises(ValueError):
        DetectorConfig(sharpness=0.0)
    # a query needs two samplings to hold a pair
    for snrs in ((), (9.0,)):
        with pytest.raises(ValueError, match="corpus_snr_db"):
            DetectorConfig(corpus_snr_db=snrs)


def test_zero_weight_scorer_outputs_half():
    cfg = DetectorConfig(pool=4, branch_width=8)
    scorer = new_scorer(cfg, seed=0)
    zeroed = SimilarityScorer(
        nnkit.DenseNet([type(l)(np.zeros_like(l.w), np.zeros_like(l.b), l.act, l.prelu_alpha)
                        for l in scorer.branch.layers]),
        nnkit.DenseNet([type(l)(np.zeros_like(l.w), np.zeros_like(l.b), l.act, l.prelu_alpha)
                        for l in scorer.head.layers]),
    )
    assert zeroed.pool == 4
    assert score(zeroed, np.zeros((4, 4)), np.ones((4, 4))) == 0.5


def test_score_in_unit_interval():
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = score(scorer, rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (4, 4)))
        assert 0.0 < s < 1.0


def test_query_scores_match_single_scores():
    # a query's one taped pass scores each sampling as a session round does
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=7)
    rng = np.random.default_rng(8)
    maps = rng.uniform(0, 1, (6, 16))  # the reference, then 5 samplings
    singles = [score(scorer, maps[0].reshape(4, 4), samp.reshape(4, 4)) for samp in maps[1:]]
    assert np.allclose(nnkit.sigmoid(det.query_logits(scorer, maps)), singles, atol=1e-15)


def test_score_pooled_rejects_bad_shape():
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=7)
    ref_emb = det.embed_reference(scorer, np.zeros((4, 4)))
    for shape in [(3, 3), (16,), (2, 16), (2, 4, 3), ()]:  # (..., pool, pool) maps only
        with pytest.raises(ValueError):
            score_pooled(scorer, ref_emb, np.zeros(shape))


def test_batched_maps_score_and_pool_as_they_do_alone():
    # a batch of maps runs as a stack of one-row matrices, so each score is
    # bitwise that of its map alone; pooling a batch pools each map alone
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=7)
    rng = np.random.default_rng(12)
    ref_emb = det.embed_reference(scorer, rng.uniform(0, 1, (4, 4)))
    maps = rng.uniform(0, 1, (2, 3, 4, 4))
    scores = score_pooled(scorer, ref_emb, maps)
    assert scores.shape == (2, 3)
    alone = [float(score_pooled(scorer, ref_emb, m)) for m in maps.reshape(-1, 4, 4)]
    assert np.float64(alone).tobytes() == scores.reshape(-1).tobytes()
    for shape, pool in (((8, 12), 4), ((13, 11), 4)):
        grids = rng.uniform(0, 1, (3, *shape))
        pooled = pool_map(grids, pool)
        assert pooled.tobytes() == np.stack([pool_map(g, pool) for g in grids]).tobytes()


def test_pool_map_constant():
    assert np.allclose(pool_map(np.full((12, 10), 0.7), 5), 0.7, atol=1e-15)


def test_pool_map_identity_when_sizes_match():
    rng = np.random.default_rng(9)
    m = rng.uniform(0, 1, (8, 8))
    out = pool_map(m, 8)
    assert np.array_equal(out, m)
    assert not np.shares_memory(out, m)


def _pool_loop(values, pool):
    """Cell-by-cell adaptive average pooling: the oracle for pool_map."""
    h, w = values.shape
    hb = [(i * h) // pool for i in range(pool + 1)]
    wb = [(j * w) // pool for j in range(pool + 1)]
    out = np.empty((pool, pool))
    for i in range(pool):
        for j in range(pool):
            out[i, j] = values[hb[i] : hb[i + 1], wb[j] : wb[j + 1]].mean()
    return out


@pytest.mark.parametrize("shape,pool", [((16, 16), 8), ((12, 12), 4), ((32, 16), 16), ((20, 15), 5)])
def test_pool_map_exact_divisors_match_the_loop(shape, pool):
    m = np.random.default_rng(10).uniform(0, 1, shape)
    # the reshape sums each block in another order: at most an ulp apart
    assert np.allclose(pool_map(m, pool), _pool_loop(m, pool), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("shape,pool", [((13, 11), 4), ((17, 16), 16), ((16, 17), 16), ((12, 10), 8)])
def test_pool_map_uneven_blocks_match_the_loop(shape, pool):
    m = np.random.default_rng(11).uniform(0, 1, shape)
    assert np.array_equal(pool_map(m, pool), _pool_loop(m, pool))


def test_pool_map_hand_example():
    m = np.arange(16, dtype=float).reshape(4, 4)
    out = pool_map(m, 2)
    expected = np.array([[m[:2, :2].mean(), m[:2, 2:].mean()],
                         [m[2:, :2].mean(), m[2:, 2:].mean()]])
    assert np.array_equal(out, expected)


def test_pool_map_too_small():
    with pytest.raises(ValueError):
        pool_map(np.zeros((4, 4)), 8)


def test_separable_corpus_structure():
    corpus = _small_corpus(n_queries=4, n_levels=4)
    assert corpus.maps.shape == (4, 5, 64) and corpus.s_true.shape == (4, 4)
    maps, s_true = corpus.maps[0], corpus.s_true[0]
    assert np.array_equal(s_true, SIMILARITY_CAP - 0.75 * np.arange(4))
    assert np.min(np.diff(s_true)) <= -0.5
    # level 0 is the clean reference itself
    assert np.array_equal(maps[1], maps[0])
    assert not np.array_equal(maps[2], maps[0])


def test_separable_corpus_deterministic():
    a = _small_corpus(n_queries=3)
    b = _small_corpus(n_queries=3)
    assert a.maps.tobytes() == b.maps.tobytes()


def test_split_corpus_partition():
    corpus = _small_corpus(n_queries=8)
    cfg = DetectorConfig(holdout=0.25)
    train_c, hold_c = split_corpus(corpus, cfg, seed=1)
    assert len(train_c.s_true) == len(train_c.maps) == 6
    assert len(hold_c.s_true) == len(hold_c.maps) == 2


@pytest.mark.parametrize(
    "maps_shape,s_shape",
    [((4, 5, 16), (4, 5)), ((4, 5, 16), (3, 4)), ((4, 5), (4, 4)), ((4, 5, 16), (4,)),
     ((4, 5, 4, 4), (4, 4)), ((0, 5, 16), (0, 5))],
)
def test_rank_corpus_rejects_inconsistent_shapes(maps_shape, s_shape):
    # maps is (Q, 1+K, pool*pool), a reference row before the K samplings of s_true's (Q, K)
    with pytest.raises(ValueError, match="inconsistent corpus shapes"):
        RankCorpus(np.zeros(maps_shape), np.zeros(s_shape))


def test_rank_corpus_hands_out_read_only_float64_arrays():
    corpus = RankCorpus(np.ones((2, 3, 4), dtype=np.float32), [[0.5, 0.25], [1.0, 0.0]])
    for a in (corpus.maps, corpus.s_true):
        assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    for part in split_corpus(corpus, DetectorConfig(holdout=0.5), seed=1):
        assert not part.maps.flags.writeable and not part.s_true.flags.writeable


@given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_split_corpus_is_an_ordered_partition(n, holdout, seed):
    try:
        cfg = DetectorConfig(corpus_queries=n, holdout=holdout)
    except ValueError:
        assume(False)
    # query q is marked by q in its maps and its similarities
    ids = np.arange(n, dtype=np.float64)
    corpus = RankCorpus(np.repeat(ids, 3 * 2).reshape(n, 3, 2), np.repeat(ids, 2).reshape(n, 2))
    train_c, hold_c = split_corpus(corpus, cfg, seed)
    train_ids, hold_ids = train_c.s_true[:, 0], hold_c.s_true[:, 0]
    for part, part_ids in ((train_c, train_ids), (hold_c, hold_ids)):
        assert np.array_equal(part.maps, np.repeat(part_ids, 3 * 2).reshape(-1, 3, 2))
        assert np.all(np.diff(part_ids) > 0)  # corpus order
    assert not set(train_ids) & set(hold_ids)
    assert sorted(set(train_ids) | set(hold_ids)) == ids.tolist()
    assert hold_ids.size == det._holdout_count(holdout, n)


@pytest.mark.parametrize("n,holdout", [(1, 0.9), (2, 0.0), (2, 0.5), (4, 0.6), (40, 0.97)])
def test_detector_config_holdout_leaves_training_queries(n, holdout):
    cfg = DetectorConfig(corpus_queries=n, holdout=holdout)
    train_c, _ = split_corpus(_small_corpus(n_queries=n), cfg, seed=1)
    assert len(train_c.s_true) >= 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"corpus_queries": 0},
        {"batch_queries": 0},
        {"corpus_queries": 4, "holdout": 0.9},  # round(3.6) = 4 held out of 4
        {"corpus_queries": 2, "holdout": 1.5},
        {"holdout": -0.1},
        {"holdout": math.inf},
    ],
)
def test_detector_config_rejects_unusable_corpus_settings(kwargs):
    with pytest.raises(ValueError):
        DetectorConfig(**kwargs)


def test_training_improves_ranking():
    corpus = _small_corpus(n_queries=48)
    cfg = DetectorConfig(pool=8, branch_width=16, epochs=25, lr=2e-3, holdout=0.25,
                         weight_decay=5e-2, batch_queries=8)
    scorer = new_scorer(cfg, seed=11)
    _, hold_c = split_corpus(corpus, cfg, seed=3)
    acc_before = pairwise_accuracy(scorer, hold_c)
    scorer, hist = train_ranker(corpus, scorer, cfg, seed=3)
    acc_after = pairwise_accuracy(scorer, hold_c)
    assert acc_after > acc_before
    assert acc_after >= 0.8
    assert hist["pair_loss"][-1] < hist["pair_loss"][0]
    assert len(hist["holdout_accuracy"]) == 25


def test_training_deterministic():
    corpus = _small_corpus(n_queries=12)
    cfg = DetectorConfig(pool=8, branch_width=16, epochs=4, lr=1e-3, batch_queries=4)
    a = new_scorer(cfg, seed=11)
    b = new_scorer(cfg, seed=11)
    a, _ = train_ranker(corpus, a, cfg, seed=3)
    b, _ = train_ranker(corpus, b, cfg, seed=3)
    for la, lb in zip(a.branch.layers + a.head.layers, b.branch.layers + b.head.layers):
        assert np.array_equal(la.w, lb.w)


def _net_bits(scorer):
    return [a.tobytes() for l in scorer.branch.layers + scorer.head.layers for a in (l.w, l.b)]


def test_train_ranker_restores_best_epoch():
    # the returned nets are those of the best held-out epoch, not the last:
    # bitwise those of the same seed trained for exactly that many epochs
    corpus = _small_corpus(n_queries=16)
    cfg = DetectorConfig(pool=8, branch_width=16, epochs=8, lr=3e-3, batch_queries=4)
    scorer, hist = train_ranker(corpus, new_scorer(cfg, seed=11), cfg, seed=3)
    best = int(np.argmax(hist["holdout_accuracy"]))
    assert 0 < best < cfg.epochs - 1  # later epochs moved the weights away
    short_cfg = replace(cfg, epochs=best + 1)
    short, _ = train_ranker(corpus, new_scorer(cfg, seed=11), short_cfg, seed=3)
    assert _net_bits(scorer) == _net_bits(short)


def _pair_loop(s_hat, s_true, sharpness):
    """Oracle of pair_objective's loss and pair count: a running total of
    each ordered pair's logistic cost, in row-major pair order."""
    total, pairs = 0.0, 0
    for m in range(s_true.size):
        for n in range(s_true.size):
            if s_true[m] > s_true[n]:
                total += float(np.logaddexp(0.0, -sharpness * (s_hat[m] - s_hat[n])))
                pairs += 1
    return total, pairs


def _pair_lambdas(s_hat, s_true, sharpness):
    """Oracle of pair_objective's lambdas: each oriented pair's gradient
    term, snapped to the 2^-30 grid, summed per sample."""
    if s_hat.size < 2:
        return np.zeros(s_hat.size)
    d = sharpness * (s_hat[:, None] - s_hat[None, :])
    lam_pair = -sharpness * nnkit.sigmoid(-d)
    lam_pair = np.where(s_true[:, None] > s_true[None, :], lam_pair, 0.0)
    lam_pair = np.round(lam_pair * 2.0**30) / 2.0**30
    return lam_pair.sum(axis=1) - lam_pair.sum(axis=0)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_pair_objective_matches_the_old_forms(data):
    k = data.draw(st.integers(0, 12))
    scale = data.draw(st.sampled_from([1.0, 30.0]))
    s_hat = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=k, max_size=k)))
    # few distinct levels draw ties, which contribute no pair
    levels = data.draw(st.sampled_from([st.integers(0, 3).map(float), st.floats(0, 6)]))
    s_true = np.array(data.draw(st.lists(levels, min_size=k, max_size=k)), dtype=np.float64)
    sharpness = data.draw(st.sampled_from([0.5, 1.0, 7.0]))
    loss, pairs, lam = pair_objective(s_hat, s_true, sharpness)
    want_loss, want_pairs = _pair_loop(s_hat, s_true, sharpness)
    assert pairs == want_pairs
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert lam.tobytes() == _pair_lambdas(s_hat, s_true, sharpness).tobytes()


def test_pairwise_accuracy_matches_the_pair_loop():
    corpus = _small_corpus(n_queries=6, n_levels=5)
    # tied labels (samplings 1 and 2) and tied logits on ordered pairs (0, 1 and 2, 3):
    # the reference, then the first query's samplings 0, 0, 1, 1 and 2
    tied_maps = corpus.maps[0, [0, 1, 1, 2, 2, 3]]
    tied_s = np.array([1.0, 0.5, 0.5, 0.2, 0.1])
    corpus = RankCorpus(np.concatenate([corpus.maps, tied_maps[None]]), np.vstack([corpus.s_true, tied_s]))
    scorer = new_scorer(DetectorConfig(pool=8, branch_width=16), seed=5)
    good = total = 0
    for maps, st in zip(corpus.maps, corpus.s_true):
        z = det.query_logits(scorer, maps)
        for m in range(st.size):
            for n in range(st.size):
                if st[m] > st[n]:
                    total += 1
                    good += int(z[m] > z[n])
    assert pairwise_accuracy(scorer, corpus) == good / total
    assert math.isnan(pairwise_accuracy(scorer, RankCorpus(np.zeros((0, 6, 64)), np.zeros((0, 5)))))


def test_calibration_preserves_ordering_and_anchors():
    corpus = _small_corpus(n_queries=24)
    cfg = DetectorConfig(pool=8, branch_width=16, epochs=10, lr=2e-3, batch_queries=8)
    scorer = new_scorer(cfg, seed=11)
    scorer, _ = train_ranker(corpus, scorer, cfg, seed=3)
    cal = calibrate_scorer(scorer, corpus)
    assert abs(pairwise_accuracy(cal, corpus) - pairwise_accuracy(scorer, corpus)) < 1e-12
    z = np.concatenate([det.query_logits(cal, maps) for maps in corpus.maps])
    s = corpus.s_true.reshape(-1)
    lo_cut, hi_cut = np.quantile(s, [0.25, 0.75])
    assert abs(z[s >= hi_cut].mean() - math.log(0.95 / 0.05)) < 1e-9
    assert abs(z[s <= lo_cut].mean() - math.log(0.3 / 0.7)) < 1e-9


def _pairwise_auc(scores, labels) -> float:
    """AUC by brute force over every (positive, negative) pair, a tie counting one half."""
    pos = [s for s, positive in zip(scores, labels) if positive]
    neg = [s for s, positive in zip(scores, labels) if not positive]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


# scores from a few values, so most draws hold ties within and across the classes
_TIED_SCORES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))


@given(
    st.lists(st.tuples(_TIED_SCORES, st.booleans()), min_size=2, max_size=60).filter(
        lambda drawn: len({positive for _, positive in drawn}) == 2
    )
)
@settings(max_examples=200, deadline=None)
def test_roc_auc_values(drawn):
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert roc_auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 1, 0, 0])) == 0.5
    with pytest.raises(ValueError):
        roc_auc(np.array([0.5, 0.6]), np.array([1, 1]))
    scores, labels = zip(*drawn)
    assert roc_auc(np.array(scores), np.array(labels)) == _pairwise_auc(scores, labels)


def test_scorer_serialization_roundtrip():
    # the scorer's nets as the checkpoint holds them score to float32 resolution
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=21)
    back = replace(scorer, branch=nnkit.stored(scorer.branch), head=nnkit.stored(scorer.head))
    assert back.pool == 4
    rng = np.random.default_rng(3)
    ref, hyp = rng.uniform(0, 1, (2, 4, 4))
    assert abs(score(back, ref, hyp) - score(scorer, ref, hyp)) < 1e-6

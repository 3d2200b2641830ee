"""Similarity scorer tests: pairwise objective, lambda gradients, ranking."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink import detector as det
from semlink import nnkit
from semlink.detector import (
    DetectorConfig,
    RankCorpus,
    RankQuery,
    SimilarityScorer,
    ack_decide,
    calibrate_scorer,
    lambda_gradients,
    load_corpus,
    load_scorer,
    new_scorer,
    pair_loss,
    pairwise_accuracy,
    pool_map,
    roc_auc,
    save_corpus,
    save_scorer,
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
    queries = []
    for q in range(n_queries):
        scene, f = generate_scene(derive_seed(master_seed, "sep-scene", q), scene_cfg, head)
        mask = importance_map(f, cells)
        f_ref = apply_mask(f, mask)
        ref_pooled = pool_map(confidence_map(f_ref, head), pool)
        rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, "sep-noise", q)))
        samp, s_true = [], []
        for level, scale in enumerate(noise_scales):
            noisy = f_ref.data + scale * rng.standard_normal(f_ref.data.shape)
            samp.append(pool_map(confidence_map(FeatureTensor(noisy), head), pool))
            s_true.append(SIMILARITY_CAP - s_gap * level)
        queries.append(RankQuery(ref_pooled, np.stack(samp), np.asarray(s_true)))
    return RankCorpus(tuple(queries), pool)


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
    lam = lambda_gradients(np.array([0.3, 0.3]), np.array([1.0, 0.0]))
    assert lam[0] == -0.5
    assert lam[1] == 0.5
    lam2 = lambda_gradients(np.array([0.3, 0.3]), np.array([1.0, 0.0]), sharpness=2.0)
    assert lam2[0] == -1.0


def test_lambda_orientation():
    # the sample with larger true similarity is pushed up (negative gradient)
    lam = lambda_gradients(np.array([0.2, 0.9]), np.array([5.0, 1.0]))
    assert lam[0] < 0 < lam[1]


def test_lambda_equal_truth_is_zero():
    lam = lambda_gradients(np.array([0.1, 0.9, 0.5]), np.array([2.0, 2.0, 2.0]))
    assert np.array_equal(lam, np.zeros(3))


def test_lambda_single_sample():
    assert np.array_equal(lambda_gradients(np.array([0.3]), np.array([1.0])), np.zeros(1))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lambda_sums_to_zero_exactly(data):
    k = data.draw(st.integers(2, 12))
    s_hat = np.array(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=k, max_size=k)))
    s_true = np.array(data.draw(st.lists(
        st.floats(0, 6, allow_nan=False), min_size=k, max_size=k)))
    lam = lambda_gradients(s_hat, s_true)
    assert np.sum(lam) == 0.0
    assert math.fsum(lam.tolist()) == 0.0


def test_lambda_matches_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(25):
        k = 5
        s_hat = rng.uniform(0.05, 0.95, size=k)
        s_true = rng.uniform(0.0, 6.0, size=k)

        def total_loss(s):
            out = 0.0
            for m in range(k):
                for n in range(k):
                    if s_true[m] > s_true[n]:
                        out += float(pair_loss(s[m], s[n]))
            return out

        lam = lambda_gradients(s_hat, s_true)
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
        lambda_gradients(np.zeros(3), np.zeros(4))


def test_ack_tie_is_nack():
    assert not ack_decide(0.72, 0.72)
    assert ack_decide(0.7200001, 0.72)
    assert not ack_decide(0.5, 0.72)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(ack_threshold=1.5)
    with pytest.raises(ValueError):
        DetectorConfig(sharpness=0.0)


def test_zero_weight_scorer_outputs_half():
    cfg = DetectorConfig(pool=4, branch_width=8)
    scorer = new_scorer(cfg, seed=0)
    zeroed = SimilarityScorer(
        nnkit.DenseNet([type(l)(np.zeros_like(l.w), np.zeros_like(l.b), l.act, l.prelu_alpha)
                        for l in scorer.branch.layers]),
        nnkit.DenseNet([type(l)(np.zeros_like(l.w), np.zeros_like(l.b), l.act, l.prelu_alpha)
                        for l in scorer.head.layers]),
        pool=4,
    )
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
    query = RankQuery(rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (5, 4, 4)), rng.uniform(0, 1, 5))
    singles = [score(scorer, query.ref_pooled, samp) for samp in query.samp_pooled]
    assert np.allclose(det.query_scores(scorer, query), singles, atol=1e-15)
    assert np.allclose(nnkit.sigmoid(det.query_logits(scorer, query)), singles, atol=1e-15)


def test_score_pooled_rejects_bad_shape():
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=7)
    ref_emb = det.embed_reference(scorer, np.zeros((4, 4)))
    for shape in [(3, 3), (16,), (2, 4, 4), (2, 16)]:  # one (pool, pool) map only
        with pytest.raises(ValueError):
            score_pooled(scorer, ref_emb, np.zeros(shape))


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
    assert len(corpus.queries) == 4
    q = corpus.queries[0]
    assert np.array_equal(q.s_true, SIMILARITY_CAP - 0.75 * np.arange(4))
    assert np.min(np.diff(q.s_true)) <= -0.5
    # level 0 is the clean reference itself
    assert np.array_equal(q.samp_pooled[0], q.ref_pooled)
    assert not np.array_equal(q.samp_pooled[1], q.ref_pooled)


def test_separable_corpus_deterministic():
    a = _small_corpus(n_queries=3)
    b = _small_corpus(n_queries=3)
    for qa, qb in zip(a.queries, b.queries):
        assert np.array_equal(qa.samp_pooled, qb.samp_pooled)


def test_split_corpus_partition():
    corpus = _small_corpus(n_queries=8)
    cfg = DetectorConfig(holdout=0.25)
    train_c, hold_c = split_corpus(corpus, cfg, seed=1)
    assert len(train_c.queries) == 6
    assert len(hold_c.queries) == 2


@pytest.mark.parametrize("n,holdout", [(1, 0.9), (2, 0.0), (2, 0.5), (4, 0.6), (40, 0.97)])
def test_detector_config_holdout_leaves_training_queries(n, holdout):
    cfg = DetectorConfig(corpus_queries=n, holdout=holdout)
    train_c, _ = split_corpus(_small_corpus(n_queries=n), cfg, seed=1)
    assert len(train_c.queries) >= 1


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


def _query_pair_loss_loop(s_hat, s_true, sharpness):
    total, pairs = 0.0, 0
    for m in range(s_true.size):
        for n in range(s_true.size):
            if s_true[m] > s_true[n]:
                total += float(pair_loss(s_hat[m], s_hat[n], sharpness))
                pairs += 1
    return total, pairs


def test_query_pair_loss_matches_the_pair_loop():
    rng = np.random.default_rng(12)
    for trial in range(300):
        k = int(rng.integers(1, 12))
        s_hat = rng.uniform(0.0, 1.0, k) if trial % 3 else rng.standard_normal(k) * 30.0
        s_true = rng.integers(0, 4, k).astype(np.float64)  # ties contribute no pair
        sharpness = float(rng.choice([0.5, 1.0, 7.0]))
        got = det.query_pair_loss(s_hat, s_true, sharpness)
        want = _query_pair_loss_loop(s_hat, s_true, sharpness)
        assert got[1] == want[1] and np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()


def test_pairwise_accuracy_matches_the_pair_loop():
    corpus = _small_corpus(n_queries=6, n_levels=5)
    # tied labels (samplings 1 and 2) and tied logits on ordered pairs (0, 1 and 2, 3)
    tied = RankQuery(corpus.queries[0].ref_pooled, corpus.queries[0].samp_pooled[[0, 0, 1, 1]],
                     np.array([1.0, 0.5, 0.5, 0.2]))
    corpus = RankCorpus(corpus.queries + (tied,), corpus.pool)
    scorer = new_scorer(DetectorConfig(pool=8, branch_width=16), seed=5)
    good = total = 0
    for query in corpus.queries:
        z, st = det.query_logits(scorer, query), query.s_true
        for m in range(st.size):
            for n in range(st.size):
                if st[m] > st[n]:
                    total += 1
                    good += int(z[m] > z[n])
    assert pairwise_accuracy(scorer, corpus) == good / total
    assert math.isnan(pairwise_accuracy(scorer, RankCorpus((), 8)))


def test_calibration_preserves_ordering_and_anchors():
    corpus = _small_corpus(n_queries=24)
    cfg = DetectorConfig(pool=8, branch_width=16, epochs=10, lr=2e-3, batch_queries=8)
    scorer = new_scorer(cfg, seed=11)
    scorer, _ = train_ranker(corpus, scorer, cfg, seed=3)
    cal = calibrate_scorer(scorer, corpus)
    assert abs(pairwise_accuracy(cal, corpus) - pairwise_accuracy(scorer, corpus)) < 1e-12
    z = np.concatenate([det.query_logits(cal, q) for q in corpus.queries])
    s = np.concatenate([q.s_true for q in corpus.queries])
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


def test_corpus_serialization_roundtrip(tmp_path):
    corpus = _small_corpus(n_queries=3)
    path = tmp_path / "c.bin"
    save_corpus(path, corpus)
    back = load_corpus(path)
    assert back.pool == corpus.pool
    assert len(back.queries) == 3
    for qa, qb in zip(corpus.queries, back.queries):
        assert np.array_equal(qb.ref_pooled, qa.ref_pooled.astype(np.float32))
        assert np.array_equal(qb.samp_pooled, qa.samp_pooled.astype(np.float32))


def test_scorer_serialization_roundtrip(tmp_path):
    scorer = new_scorer(DetectorConfig(pool=4, branch_width=8), seed=21)
    path = tmp_path / "s.ckpt"
    save_scorer(path, scorer)
    back = load_scorer(path)
    assert back.pool == 4
    rng = np.random.default_rng(3)
    ref, hyp = rng.uniform(0, 1, (2, 4, 4))
    # float32 storage: scores agree to float32 resolution
    assert abs(score(back, ref, hyp) - score(scorer, ref, hyp)) < 1e-6


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_corpus(path)
    with pytest.raises(ValueError):
        load_scorer(path)

"""Learned semantic acknowledgement: a twin-branch similarity scorer.

The scorer pools the reference and reconstructed confidence maps to a fixed
grid, embeds both through one shared dense branch, and maps the concatenated
embeddings to a single sigmoid score. Training is pairwise rank learning on
queries of K samplings of the same source: each pair ordered by true
similarity contributes a logistic cost, and the per-sample lambda
accumulation of those pair gradients drives the parameter update.

The rank corpus is sampled through harq.SemanticSource, the source every
semantic session runs from, so a corpus sampling is the reception a session
round makes: the same candidate, pooled map and true similarity.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import codec as codec_mod
from . import nnkit
from .link import LinkSeeds, transmit_symbols
from .scenegen import generate_scene
from .seeding import derive_seed


@dataclass(frozen=True)
class DetectorConfig:
    ack_threshold: float = 0.72
    sharpness: float = 1.0  # pairwise logistic scale
    pool: int = 16
    branch_width: int = 64
    corpus_queries: int = 160  # rank-corpus sources, each sent once per corpus SNR
    corpus_snr_db: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0)
    epochs: int = 50
    lr: float = 2e-4
    holdout: float = 0.25
    # the rank objective is scale-free in the logit, so margins grow without
    # bound under Adam; decoupled decay keeps the head in its responsive range
    weight_decay: float = 5e-2
    # queries averaged per Adam step; single-query steps are too noisy and
    # destroy the ordering a few epochs after it is first reached
    batch_queries: int = 8

    def __post_init__(self):
        if not 0.0 < self.ack_threshold < 1.0:
            raise ValueError("ack_threshold must be in (0, 1)")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("pool", "branch_width", "corpus_queries", "batch_queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.holdout) and self.holdout >= 0.0) or (
            self.corpus_queries - _holdout_count(self.holdout, self.corpus_queries) < 1
        ):
            raise ValueError(
                f"holdout must be >= 0 and leave at least one of the {self.corpus_queries} "
                f"corpus queries for training, got {self.holdout}"
            )


def _holdout_count(holdout: float, n: int) -> int:
    """Held-out queries of n: at least one, unless n is 1."""
    return max(1, int(round(holdout * n))) if n > 1 else 0


@dataclass
class SimilarityScorer:
    branch: nnkit.DenseNet  # shared twin branch over pooled maps
    head: nnkit.DenseNet  # concatenated embeddings -> sigmoid score
    pool: int = 16


def new_scorer(cfg: DetectorConfig, seed: int) -> SimilarityScorer:
    n_in = cfg.pool * cfg.pool
    w = cfg.branch_width
    branch = nnkit.init_dense((n_in, w, w), ("relu", "relu"), seed)
    head = nnkit.init_dense((2 * w, w, 1), ("relu", "sigmoid"), seed + 1)
    return SimilarityScorer(branch, head, cfg.pool)


def pool_map(values: np.ndarray, pool: int) -> np.ndarray:
    """Adaptive average pooling of an (H, W) map down to (pool, pool).

    A map whose sides are multiples of pool (a pool-sized map among them,
    which comes back as a new array of the same values) is averaged over
    equal blocks by one reshape; other sizes average uneven blocks cell by
    cell.
    """
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    if h < pool or w < pool:
        raise ValueError(f"map shape {values.shape} smaller than pool grid {pool}")
    if h % pool == 0 and w % pool == 0:
        return values.reshape(pool, h // pool, pool, w // pool).mean(axis=(1, 3))
    out = np.empty((pool, pool))
    hb = [(i * h) // pool for i in range(pool + 1)]
    wb = [(j * w) // pool for j in range(pool + 1)]
    for i in range(pool):
        for j in range(pool):
            out[i, j] = values[hb[i] : hb[i + 1], wb[j] : wb[j + 1]].mean()
    return out


def embed_reference(scorer: SimilarityScorer, ref_pooled: np.ndarray) -> np.ndarray:
    """The scorer branch's (1, width) embedding of a pre-pooled reference map."""
    width = scorer.pool * scorer.pool
    return nnkit.forward(scorer.branch, np.asarray(ref_pooled, dtype=np.float64).reshape(1, width))


def score_pooled(scorer: SimilarityScorer, ref_emb: np.ndarray, hyp_pooled: np.ndarray) -> float:
    """Score one pre-pooled (pool, pool) map against ref_emb, the
    embed_reference of the reference map."""
    hyp = np.asarray(hyp_pooled, dtype=np.float64)
    if hyp.shape != (scorer.pool, scorer.pool):
        raise ValueError(f"bad pooled map shape {hyp.shape} for pool {scorer.pool}")
    emb_hyp = nnkit.forward(scorer.branch, hyp.reshape(1, -1))
    return float(nnkit.forward(scorer.head, np.concatenate([ref_emb, emb_hyp], axis=1))[0, 0])


def ack_decide(s_hat: float, threshold: float) -> bool:
    """ACK only if the score strictly exceeds the threshold; ties are NACK."""
    return bool(s_hat > threshold)


def pair_loss(s_m, s_n, sharpness: float = 1.0):
    """Pairwise logistic cost of a pair whose first score should be the larger."""
    d = sharpness * (np.asarray(s_m, dtype=np.float64) - np.asarray(s_n, dtype=np.float64))
    return np.logaddexp(0.0, -d)


_LAMBDA_GRID = float(2**30)


def lambda_gradients(s_hat: np.ndarray, s_true: np.ndarray, sharpness: float = 1.0) -> np.ndarray:
    """Per-sample gradient of the summed pair losses with respect to the scores.

    Pairs are taken once each, oriented so the first element has the larger
    true similarity; equal-similarity pairs contribute nothing. The returned
    vector sums to zero exactly.
    """
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
    s_true = np.asarray(s_true, dtype=np.float64).reshape(-1)
    if s_hat.shape != s_true.shape:
        raise ValueError("score and similarity vectors must match")
    k = s_hat.size
    if k < 2:
        return np.zeros(k)
    d = sharpness * (s_hat[:, None] - s_hat[None, :])
    lam_pair = -sharpness * nnkit.sigmoid(-d)
    oriented = s_true[:, None] > s_true[None, :]
    lam_pair = np.where(oriented, lam_pair, 0.0)
    # snap pair terms to a dyadic grid: sums of 2^-30 multiples are exact in
    # double precision, so the zero-sum identity below holds bitwise rather
    # than merely to rounding error (the 5e-10 snap is far below any
    # gradient tolerance that matters)
    lam_pair = np.round(lam_pair * _LAMBDA_GRID) / _LAMBDA_GRID
    return lam_pair.sum(axis=1) - lam_pair.sum(axis=0)


@dataclass(frozen=True)
class RankQuery:
    ref_pooled: np.ndarray  # (pool, pool)
    samp_pooled: np.ndarray  # (K, pool, pool)
    s_true: np.ndarray  # (K,)

    def __post_init__(self):
        ref = np.asarray(self.ref_pooled, dtype=np.float64)
        samp = np.asarray(self.samp_pooled, dtype=np.float64)
        s = np.asarray(self.s_true, dtype=np.float64)
        if samp.ndim != 3 or samp.shape[1:] != ref.shape or s.shape != (samp.shape[0],):
            raise ValueError("inconsistent query shapes")
        for a in (ref, samp, s):
            a.setflags(write=False)
        object.__setattr__(self, "ref_pooled", ref)
        object.__setattr__(self, "samp_pooled", samp)
        object.__setattr__(self, "s_true", s)


@dataclass(frozen=True)
class RankCorpus:
    queries: tuple[RankQuery, ...]
    pool: int


def _query_pass(scorer, query: RankQuery):
    """(scores, embeddings, branch tape, head tape) of one taped pass: the
    branch embeds the reference (row 0) and the K samplings in one batch, and
    the head scores each sampling against the reference."""
    k = query.s_true.size
    x = np.concatenate(
        [query.ref_pooled.reshape(1, -1), query.samp_pooled.reshape(k, -1)], axis=0
    )
    emb, tape_b = nnkit.forward_tape(scorer.branch, x)
    head_in = np.concatenate([np.repeat(emb[0:1], k, axis=0), emb[1:]], axis=1)
    s_hat, tape_h = nnkit.forward_tape(scorer.head, head_in)
    return s_hat[:, 0], emb, tape_b, tape_h


def _query_step(scorer, query: RankQuery, sharpness: float):
    """Scores, lambdas, and parameter gradients for one query."""
    s_hat, emb, tape_b, tape_h = _query_pass(scorer, query)
    lam = lambda_gradients(s_hat, query.s_true, sharpness)
    if not np.any(lam):
        return s_hat, None, None
    head_grads, g_head_in = nnkit.backward(scorer.head, tape_h, lam[:, None])
    width = emb.shape[1]
    g_emb = np.empty_like(emb)
    g_emb[0] = g_head_in[:, :width].sum(axis=0)
    g_emb[1:] = g_head_in[:, width:]
    branch_grads, _ = nnkit.backward(scorer.branch, tape_b, g_emb)
    return s_hat, branch_grads, head_grads


def split_corpus(corpus: RankCorpus, cfg: DetectorConfig, seed: int) -> tuple[RankCorpus, RankCorpus]:
    """Deterministic train/held-out split by shuffled query index."""
    n = len(corpus.queries)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n)
    n_hold = _holdout_count(cfg.holdout, n)
    hold = set(order[:n_hold].tolist())
    train_q = tuple(q for i, q in enumerate(corpus.queries) if i not in hold)
    hold_q = tuple(q for i, q in enumerate(corpus.queries) if i in hold)
    return RankCorpus(train_q, corpus.pool), RankCorpus(hold_q, corpus.pool)


def train_ranker(
    corpus: RankCorpus, scorer: SimilarityScorer, cfg: DetectorConfig, seed: int
) -> tuple[SimilarityScorer, dict]:
    """Adam rank training over queries; returns the scorer and a history dict.

    The held-out split tracks pairwise ordering accuracy per epoch and the
    best-accuracy parameters are restored at the end (ties keep the earliest
    epoch), so long runs cannot regress past their best ordering. adam_step
    updates the nets in place, so the best epoch's nets are kept as copies.
    """
    train_c, hold_c = split_corpus(corpus, cfg, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    b_state = nnkit.AdamState.init(scorer.branch)
    h_state = nnkit.AdamState.init(scorer.head)
    history = {"pair_loss": [], "holdout_accuracy": []}
    best_acc, best_nets = -1.0, None
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_c.queries))
        ep_loss, ep_pairs = 0.0, 0
        for start in range(0, order.size, cfg.batch_queries):
            b_grads = nnkit.zeros_like_grads(scorer.branch)
            h_grads = nnkit.zeros_like_grads(scorer.head)
            got = 0
            for qi in order[start : start + cfg.batch_queries]:
                query = train_c.queries[qi]
                s_hat, branch_grads, head_grads = _query_step(scorer, query, cfg.sharpness)
                loss, pairs = query_pair_loss(s_hat, query.s_true, cfg.sharpness)
                ep_loss += loss
                ep_pairs += pairs
                if branch_grads is None:
                    continue
                nnkit.add_grads(b_grads, branch_grads)
                nnkit.add_grads(h_grads, head_grads)
                got += 1
            if not got:
                continue
            _scale_grads(b_grads, 1.0 / got)
            _scale_grads(h_grads, 1.0 / got)
            scorer.branch, _ = nnkit.adam_step(
                scorer.branch, b_grads, b_state, cfg.lr, weight_decay=cfg.weight_decay
            )
            scorer.head, _ = nnkit.adam_step(
                scorer.head, h_grads, h_state, cfg.lr, weight_decay=cfg.weight_decay
            )
        acc = pairwise_accuracy(scorer, hold_c)
        history["pair_loss"].append(ep_loss / max(1, ep_pairs))
        history["holdout_accuracy"].append(acc)
        if not math.isnan(acc) and acc > best_acc:
            best_acc, best_nets = acc, copy.deepcopy((scorer.branch, scorer.head))
    if best_nets is not None:
        scorer.branch, scorer.head = best_nets
    return scorer, history


def _scale_grads(grads, factor: float) -> None:
    for gw, gb in grads:
        gw *= factor
        gb *= factor


def query_pair_loss(s_hat: np.ndarray, s_true: np.ndarray, sharpness: float):
    """Summed pair loss over the strictly ordered pairs of one query, and
    their count; lambda_gradients is its gradient in s_hat."""
    m, n = np.nonzero(s_true[:, None] > s_true[None, :])
    losses = pair_loss(s_hat[m], s_hat[n], sharpness)
    # cumsum adds left to right from 0.0, as a running float total would
    total = np.cumsum(np.concatenate(([0.0], losses)))[-1]
    return float(total), int(m.size)


def query_scores(scorer: SimilarityScorer, query: RankQuery) -> np.ndarray:
    return _query_pass(scorer, query)[0]


def query_logits(scorer: SimilarityScorer, query: RankQuery) -> np.ndarray:
    """Pre-sigmoid scores; same ordering as query_scores but never rounds
    to exact ties when the sigmoid saturates."""
    return _query_pass(scorer, query)[3].preacts[-1][:, 0].copy()


def pairwise_accuracy(scorer: SimilarityScorer, corpus: RankCorpus) -> float:
    """Fraction of strictly-ordered true pairs the scorer orders correctly."""
    good, total = 0, 0
    for query in corpus.queries:
        s_hat = query_logits(scorer, query)
        ordered = query.s_true[:, None] > query.s_true[None, :]
        total += int(np.count_nonzero(ordered))
        good += int(np.count_nonzero(ordered & (s_hat[:, None] > s_hat[None, :])))
    return good / total if total else float("nan")


CALIBRATION_ANCHORS = (0.3, 0.95)  # calibrated scores of the bottom and top quartiles


def calibrate_scorer(scorer: SimilarityScorer, corpus: RankCorpus) -> SimilarityScorer:
    """Affine logit recalibration against a corpus score distribution.

    Rank training fixes only the ordering of scores, not their location, so
    the raw sigmoid outputs may crowd one end of (0,1) where a fixed
    acknowledgement threshold cannot separate them. This anchors the mean
    logit of the corpus's bottom and top true-similarity quartiles at the
    scores CALIBRATION_ANCHORS, folding the affine map into the final head
    layer. Ordering (and therefore ranking accuracy) is unchanged; only the
    score locations an acknowledgement threshold cuts through move.
    """
    z = np.concatenate([query_logits(scorer, q) for q in corpus.queries])
    s = np.concatenate([q.s_true for q in corpus.queries])
    lo_cut, hi_cut = np.quantile(s, [0.25, 0.75])
    z_lo = float(z[s <= lo_cut].mean())
    z_hi = float(z[s >= hi_cut].mean())
    s_lo, s_hi = CALIBRATION_ANCHORS
    l_lo = math.log(s_lo / (1.0 - s_lo))
    l_hi = math.log(s_hi / (1.0 - s_hi))
    a = (l_hi - l_lo) / (z_hi - z_lo) if z_hi > z_lo else 1.0
    b = l_hi - a * z_hi
    last = scorer.head.layers[-1]
    scaled = nnkit.DenseLayer(a * last.w, a * last.b + b, last.act, last.prelu_alpha)
    head = nnkit.DenseNet(scorer.head.layers[:-1] + [scaled])
    return SimilarityScorer(scorer.branch, head, scorer.pool)


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs that the
    scores order correctly, a tie counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos, neg = scores[labels], np.sort(scores[~labels])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both positive and negative labels")
    below, upto = np.searchsorted(neg, pos, "left"), np.searchsorted(neg, pos, "right")
    return float((below + 0.5 * (upto - below)).sum() / (pos.size * neg.size))


def build_corpus(cfg, head, codec) -> RankCorpus:
    """Rank corpus of an experiment config from the full link:
    cfg.detector.corpus_queries sources, each sent once at every SNR of
    cfg.detector.corpus_snr_db and pooled to cfg.detector.pool.

    Query q is a harq.SemanticSource of one scene with `codec` as its only
    pair and no scorer; its reference map comes from the masked feature
    actually transmitted, and each sampling is the source's reception of an
    independent channel draw at one of the listed SNRs.
    """
    from .harq import SemanticSource  # harq imports this module

    det = cfg.detector
    ms = derive_seed(cfg.experiment.master_seed, "corpus")
    profile = cfg.channel_profile()
    cells = cfg.mask_cells()
    queries = []
    for q in range(det.corpus_queries):
        scene, f = generate_scene(derive_seed(ms, "corpus-scene", q), cfg.scene, head)
        src = SemanticSource(codec, None, None, head, scene, f, cells, det.pool)
        samp, s_true = [], []
        for k, snr_db in enumerate(det.corpus_snr_db):
            seeds = LinkSeeds.derive(ms, "corpus", q, k)
            rx = transmit_symbols(src.sym_first, cfg.ofdm, profile, snr_db, seeds)
            _, pooled, _, s = src.receive(codec_mod.decode(codec, rx))
            samp.append(pooled)
            s_true.append(s)
        queries.append(RankQuery(src.ref_pooled, np.stack(samp), np.asarray(s_true)))
    return RankCorpus(tuple(queries), det.pool)


_CORPUS_MAGIC = b"RKCP"
_SCORER_MAGIC = b"SCOR"


def save_corpus(path, corpus: RankCorpus) -> None:
    """Serialize pooled maps and similarity scores as little-endian float32."""
    with open(path, "wb") as fh:
        fh.write(_CORPUS_MAGIC)
        fh.write(struct.pack("<II", len(corpus.queries), corpus.pool))
        for query in corpus.queries:
            fh.write(struct.pack("<I", query.s_true.size))
            fh.write(query.ref_pooled.astype("<f4").tobytes())
            fh.write(query.samp_pooled.astype("<f4").tobytes())
            fh.write(query.s_true.astype("<f4").tobytes())


def load_corpus(path) -> RankCorpus:
    """Inverse of save_corpus; a corrupt or truncated file raises ValueError."""
    what = "rank-corpus file"
    with open(path, "rb") as fh:
        if fh.read(4) != _CORPUS_MAGIC:
            raise ValueError("not a rank-corpus file")
        n_queries, pool = nnkit.read_header(fh, "<II", what)
        cell = pool * pool
        queries = []
        for _ in range(n_queries):
            (k,) = nnkit.read_header(fh, "<I", what)
            if cell == 0 or k == 0:
                raise ValueError(f"corrupt {what}: zero pool size or sampling count")
            ref = nnkit.read_floats(fh, cell, what)
            samp = nnkit.read_floats(fh, cell * k, what)
            s_true = nnkit.read_floats(fh, k, what)
            queries.append(
                RankQuery(ref.reshape(pool, pool), samp.reshape(k, pool, pool), s_true)
            )
    return RankCorpus(tuple(queries), pool)


def save_scorer(path, scorer: SimilarityScorer) -> None:
    with open(path, "wb") as fh:
        fh.write(_SCORER_MAGIC)
        fh.write(struct.pack("<I", scorer.pool))
        nnkit.write_net(fh, scorer.branch)
        nnkit.write_net(fh, scorer.head)


def load_scorer(path) -> SimilarityScorer:
    with open(path, "rb") as fh:
        if fh.read(4) != _SCORER_MAGIC:
            raise ValueError("not a scorer checkpoint")
        (pool,) = nnkit.read_header(fh, "<I", "scorer checkpoint")
        branch = nnkit.read_net(fh)
        head = nnkit.read_net(fh)
    if not (branch.n_in == pool * pool and head.n_in == 2 * branch.n_out and head.n_out == 1):
        raise ValueError("corrupt scorer checkpoint: sizes do not fit together")
    return SimilarityScorer(branch, head, pool)

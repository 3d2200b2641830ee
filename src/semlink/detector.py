"""Learned semantic acknowledgement: a twin-branch similarity scorer.

The scorer pools the reference and reconstructed confidence maps to a fixed
grid, embeds both through one shared dense branch, and maps the concatenated
embeddings to a single sigmoid score. Training is pairwise rank learning on
queries of K samplings of the same source: each pair ordered by true
similarity contributes a logistic cost, whose gradient in the scores,
summed per sample (the lambdas of RankNet/LambdaRank), drives the parameter
update; pair_objective computes both from one oriented pair matrix.

The rank corpus is two arrays: per query, the pooled reference map and its
K samplings' pooled maps, and the samplings' true similarities. It is
sampled through harq.SemanticSource, the source every semantic session runs
from, so a corpus sampling is the reception a session round makes: the same
pooled map and true similarity (scenegen.SentCells.score). A query's
samplings are sent through the link's entry, link.transmit_symbols, as one
call of a row per sampling, each at its own link seeds and SNR, as a
session round's rows are.
The scorer is stored in harness.train_all's one bundle.ckpt, and the
calibration table is computed with nnkit.stored copies of its nets.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import codec as codec_mod
from . import nnkit
from .link import LinkSeeds, transmit_symbols
from .scenegen import generate_scene
from .seeding import derive_seed
from .tensors import _frozen


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
        for name in ("pool", "branch_width", "corpus_queries", "epochs", "batch_queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.weight_decay >= 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if len(self.corpus_snr_db) < 2:  # a query's pairs are samplings at two SNRs
            raise ValueError(f"corpus_snr_db must list at least two SNRs, got {self.corpus_snr_db}")
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

    @property
    def pool(self) -> int:
        """Side of the pooled maps the branch reads: the root of its input width."""
        return math.isqrt(self.branch.n_in)


def new_scorer(cfg: DetectorConfig, seed: int) -> SimilarityScorer:
    n_in = cfg.pool * cfg.pool
    w = cfg.branch_width
    branch = nnkit.init_dense((n_in, w, w), ("relu", "relu"), seed)
    head = nnkit.init_dense((2 * w, w, 1), ("relu", "sigmoid"), seed + 1)
    return SimilarityScorer(branch, head)


def pool_map(values: np.ndarray, pool: int) -> np.ndarray:
    """Adaptive average pooling of (..., H, W) maps down to (..., pool, pool).

    Maps whose sides are multiples of pool (pool-sized maps among them, which
    come back as a new array of the same values) are averaged over equal
    blocks by one reshape; other sizes average uneven blocks cell by cell.
    """
    values = np.asarray(values, dtype=np.float64)
    *lead, h, w = values.shape
    if h < pool or w < pool:
        raise ValueError(f"map shape {values.shape} smaller than pool grid {pool}")
    if h % pool == 0 and w % pool == 0:
        return values.reshape(*lead, pool, h // pool, pool, w // pool).mean(axis=(-3, -1))
    out = np.empty((*lead, pool, pool))
    hb = [(i * h) // pool for i in range(pool + 1)]
    wb = [(j * w) // pool for j in range(pool + 1)]
    for i in range(pool):
        for j in range(pool):
            out[..., i, j] = values[..., hb[i] : hb[i + 1], wb[j] : wb[j + 1]].mean(axis=(-2, -1))
    return out


def embed_reference(scorer: SimilarityScorer, ref_pooled: np.ndarray) -> np.ndarray:
    """The scorer branch's (1, width) embedding of a pre-pooled reference map."""
    width = scorer.pool * scorer.pool
    return nnkit.forward(scorer.branch, np.asarray(ref_pooled, dtype=np.float64).reshape(1, width))


def score_pooled(scorer: SimilarityScorer, ref_emb: np.ndarray, hyp_pooled: np.ndarray) -> np.ndarray:
    """Scores (...) of pre-pooled (..., pool, pool) maps against ref_emb, the
    embed_reference of the reference map, each map a one-row matrix. A
    (B, 1, width) ref_emb gives each of B maps its own reference."""
    hyp = np.asarray(hyp_pooled, dtype=np.float64)
    if hyp.shape[-2:] != (scorer.pool, scorer.pool) or hyp.ndim < 2:
        raise ValueError(f"bad pooled map shape {hyp.shape} for pool {scorer.pool}")
    emb_hyp = nnkit.forward(scorer.branch, hyp.reshape(-1, 1, scorer.pool * scorer.pool))
    head_in = np.concatenate([np.broadcast_to(ref_emb, emb_hyp.shape), emb_hyp], axis=-1)
    return nnkit.forward(scorer.head, head_in).reshape(hyp.shape[:-2])


def ack_decide(s_hat: float, threshold: float) -> bool:
    """ACK only if the score strictly exceeds the threshold; ties are NACK."""
    return bool(s_hat > threshold)


_LAMBDA_GRID = float(2**30)


def pair_objective(s_hat: np.ndarray, s_true: np.ndarray, sharpness: float):
    """One query's pairwise rank objective: the summed logistic cost
    log(1 + exp(-sharpness * (s_hat[m] - s_hat[n]))) of its pairs, their
    count, and the cost's gradient in s_hat (the lambdas, summing to zero
    exactly). Pairs are taken once each, oriented so that s_true[m] >
    s_true[n]; equal-similarity pairs contribute nothing.
    """
    s_hat = np.asarray(s_hat, dtype=np.float64).reshape(-1)
    s_true = np.asarray(s_true, dtype=np.float64).reshape(-1)
    if s_hat.shape != s_true.shape:
        raise ValueError("score and similarity vectors must match")
    d = sharpness * (s_hat[:, None] - s_hat[None, :])
    oriented = s_true[:, None] > s_true[None, :]
    # cumsum adds left to right from 0.0, as a running float total would
    loss = np.cumsum(np.concatenate(([0.0], np.logaddexp(0.0, -d[oriented]))))[-1]
    lam_pair = np.where(oriented, -sharpness * nnkit.sigmoid(-d), 0.0)
    # snap pair terms to a dyadic grid: sums of 2^-30 multiples are exact in
    # double precision, so the zero-sum identity below holds bitwise rather
    # than merely to rounding error (the 5e-10 snap is far below any
    # gradient tolerance that matters)
    lam_pair = np.round(lam_pair * _LAMBDA_GRID) / _LAMBDA_GRID
    return float(loss), int(np.count_nonzero(oriented)), lam_pair.sum(axis=1) - lam_pair.sum(axis=0)


@dataclass(frozen=True)
class RankCorpus:
    """Q queries of K samplings each, as two read-only float64 arrays.

    maps is (Q, 1+K, pool*pool): row 0 of a query is its reference map
    pooled and flattened, rows 1..K its samplings' maps. s_true is (Q, K),
    each sampling's true similarity to its reference.
    """

    maps: np.ndarray
    s_true: np.ndarray

    def __post_init__(self):
        maps, s_true = (_frozen(np.asarray(a, dtype=np.float64)) for a in (self.maps, self.s_true))
        if maps.ndim != 3 or s_true.ndim != 2 or maps.shape[:2] != (len(s_true), s_true.shape[1] + 1):
            raise ValueError(f"inconsistent corpus shapes: maps {maps.shape}, s_true {s_true.shape}")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "s_true", s_true)


def _query_pass(scorer, maps: np.ndarray):
    """(scores, embeddings, branch tape, head tape) of one taped pass over a
    query's (1+K, pool*pool) maps: the branch embeds the reference (row 0) and
    the K samplings in one batch, and the head scores each sampling against
    the reference."""
    emb, tape_b = nnkit.forward_tape(scorer.branch, maps)
    k = maps.shape[0] - 1
    head_in = np.concatenate([np.repeat(emb[0:1], k, axis=0), emb[1:]], axis=1)
    s_hat, tape_h = nnkit.forward_tape(scorer.head, head_in)
    return s_hat[:, 0], emb, tape_b, tape_h


def _query_step(scorer, maps: np.ndarray, s_true: np.ndarray, sharpness: float):
    """One query's pair_objective loss and pair count, and the branch and head
    gradients its lambdas back-propagate (None for both if all are zero)."""
    s_hat, emb, tape_b, tape_h = _query_pass(scorer, maps)
    loss, pairs, lam = pair_objective(s_hat, s_true, sharpness)
    if not np.any(lam):
        return loss, pairs, None, None
    head_grads, g_head_in = nnkit.backward(scorer.head, tape_h, lam[:, None])
    width = emb.shape[1]
    g_emb = np.empty_like(emb)
    g_emb[0] = g_head_in[:, :width].sum(axis=0)
    g_emb[1:] = g_head_in[:, width:]
    branch_grads, _ = nnkit.backward(scorer.branch, tape_b, g_emb)
    return loss, pairs, branch_grads, head_grads


def split_corpus(corpus: RankCorpus, cfg: DetectorConfig, seed: int) -> tuple[RankCorpus, RankCorpus]:
    """Deterministic train/held-out split: the first _holdout_count queries of
    a seeded permutation are held out. Both parts keep the corpus order."""
    n = len(corpus.s_true)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    held = np.isin(np.arange(n), order[: _holdout_count(cfg.holdout, n)])
    return (
        RankCorpus(corpus.maps[~held], corpus.s_true[~held]),
        RankCorpus(corpus.maps[held], corpus.s_true[held]),
    )


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
        order = rng.permutation(len(train_c.s_true))
        ep_loss, ep_pairs = 0.0, 0
        for start in range(0, order.size, cfg.batch_queries):
            b_grads = nnkit.zeros_like_grads(scorer.branch)
            h_grads = nnkit.zeros_like_grads(scorer.head)
            got = 0
            for qi in order[start : start + cfg.batch_queries]:
                loss, pairs, branch_grads, head_grads = _query_step(
                    scorer, train_c.maps[qi], train_c.s_true[qi], cfg.sharpness
                )
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


def query_logits(scorer: SimilarityScorer, maps: np.ndarray) -> np.ndarray:
    """Pre-sigmoid scores of a query's K samplings (maps as in RankCorpus);
    they order as the scores do but never round to exact ties when the
    sigmoid saturates."""
    return _query_pass(scorer, maps)[3].preacts[-1][:, 0].copy()


def _corpus_logits(scorer: SimilarityScorer, corpus: RankCorpus) -> np.ndarray:
    """(Q, K) query_logits of every query."""
    return np.array([query_logits(scorer, maps) for maps in corpus.maps]).reshape(corpus.s_true.shape)


def pairwise_accuracy(scorer: SimilarityScorer, corpus: RankCorpus) -> float:
    """Fraction of strictly-ordered true pairs the scorer orders correctly."""
    z, s = _corpus_logits(scorer, corpus), corpus.s_true
    ordered = s[:, :, None] > s[:, None, :]
    total = int(np.count_nonzero(ordered))
    good = int(np.count_nonzero(ordered & (z[:, :, None] > z[:, None, :])))
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
    z, s = _corpus_logits(scorer, corpus).reshape(-1), corpus.s_true.reshape(-1)
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
    return SimilarityScorer(scorer.branch, head)


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
    pair and no scorer; its reference map (maps[q, 0]) comes from the masked
    feature actually transmitted, and sampling k (maps[q, 1 + k] and
    s_true[q, k]) is the source's reception of an independent channel draw
    at the k-th listed SNR, at the link seeds of (q, k) and the config's
    [ofdm] and [channel]. The K are sent as one link.transmit_symbols call,
    each row bitwise a lone call of its own, and decoded and scored as one
    batch. The arrays are rounded to float32 once (and held as float64):
    the precision the scorer is trained and calibrated on.
    """
    from .harq import SemanticSource  # harq imports this module

    det = cfg.detector
    ms = derive_seed(cfg.experiment.master_seed, "corpus")
    cells = cfg.mask_cells()
    n_snr = len(det.corpus_snr_db)
    maps = np.empty((det.corpus_queries, 1 + n_snr, det.pool * det.pool))
    s_true = np.empty((det.corpus_queries, n_snr))
    for q in range(det.corpus_queries):
        scene, f = generate_scene(derive_seed(ms, "corpus-scene", q), cfg.scene, head)
        src = SemanticSource(codec, None, None, head, [scene], [f], cells, det.pool)
        maps[q, 0] = src.ref_pooled.reshape(-1)
        seeds = [LinkSeeds.derive(ms, "corpus", q, k) for k in range(n_snr)]
        rx = transmit_symbols(src.sym_first[[0] * n_snr], cfg.ofdm, cfg.channel, det.corpus_snr_db, seeds)
        pooled, _, s_true[q] = src.receive(codec_mod.decode(codec, rx), [0] * n_snr)
        maps[q, 1:] = pooled.reshape(n_snr, -1)
    return RankCorpus(maps.astype(np.float32), s_true.astype(np.float32))

"""Experiment harness: training orchestration, seeded session sweeps and
the tables both write.

train_all runs on two processes: every Adam step and the detector chain
(rank corpus, ranker, calibration) in the calling process, and pair 2's
random draws in a producer forked once pair 1 is stored, which runs ahead
while the detector trains. Each stage draws from its own derived seed, so
the artifacts depend neither on the stage order nor on which process draws.

Every table a run writes, the training curves, the detector calibration and
the two sweep CSVs, goes through _write_csv and its one cell rule.

Everything here is deterministic in the master seed.  Session seeds are
derived per session index and round, never from the mode, SNR or threshold,
so protocol variants see identical channel and noise draws and sweep CSVs
are byte-identical regardless of the worker count.

A sweep is therefore a common-random-number design, and run_sweep exploits
it: it runs the grid one block of session indices at a time (at most
BLOCK_INDICES of them), and every (index, mode, SNR) of the block shares one
SessionCache. The cache holds what depends on the block's indices alone:
their harq.SemanticSource and harq.BaselineSource (each holds a row per
index and computes its codewords and reference values once, for every
session that runs from it), and per round one link.RoundDraws of the
block's indices (H, the noise and the two parts of the pilot estimate on
the n_cu payload cells that every pipeline's symbols fit, which every SNR
combines). It also holds the receptions: the first session of a pipeline
(semantic or baseline) to read the block computes every round that the
grid's modes read, at every (index, SNR) row of the block and the grid
whose session is not yet acknowledged, as one batch of one link call,
decode and scoring pass per round (harq.SemanticSource.rounds,
BaselineSource.rounds), and each session is its (index, SNR) row. A cache
serves its config's grid and nothing else. It lives for one block of one
run_sweep call, so memory does not grow with the number of sessions and no
later sweep starts warm. A session runs on the cache it is given
(run_session), and every round it records is a harq.Reception, with its ACK
verdict.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from queue import SimpleQueue

import numpy as np

from . import codec as codec_mod
from . import detector as det_mod
from . import nnkit
from .config import BASELINE_MODES, SEMANTIC_MODES, ExperimentConfig, override
from .harq import (
    BaselineSource,
    HarqSession,
    SemanticSource,
    finalize,
    run_baseline_session,
    run_semantic_session,
    throughput,
)
from .link import LinkSeeds, RoundDraws, transmit_symbols, transmit_with_state
from .scenegen import ProxyHead, generate_scene
from .seeding import derive_seed
from .tensors import importance_map, pack_nonzero

BUNDLE = "bundle.ckpt"
_BUNDLE_MAGIC = b"SLBD"
_NET_NAMES = ("pair 1 encoder", "pair 1 decoder", "pair 2 encoder", "pair 2 decoder",
              "scorer branch", "scorer head")


@dataclass
class RuntimeBundle:
    """Trained artifacts plus their config, ready to run sessions.

    Pair 1 carries every first transmission (and is the whole pipeline for
    no-HARQ and resend mode); pair 2 only ever sends the low-SNR correction.
    """

    cfg: ExperimentConfig
    head: ProxyHead
    codec_pair1: codec_mod.SemanticCodec
    codec_pair2: codec_mod.SemanticCodec
    scorer: det_mod.SimilarityScorer


@dataclass(frozen=True)
class SessionRecord:
    """One protocol session flattened for CSV output."""

    session_id: int
    mode: str
    snr_db: float
    beta: float | None  # None for CRC-acknowledged modes
    rounds_used: int
    ack_round: int  # 0 when never acknowledged
    final_round: int
    final_s_true: float
    final_task_loss: float
    s_hat: tuple  # per round, None where unscored or unused
    s_true: tuple


# ---------------------------------------------------------------------------
# training


def build_training_set(cfg: ExperimentConfig, head: ProxyHead) -> codec_mod.TrainingSet:
    scene_cfg = cfg.scene
    n = cfg.codec.train_samples
    cells = cfg.mask_cells()
    packed = np.empty((n, cfg.packed_length()), dtype=np.float64)
    scenes, masks = [], []
    shape = (scene_cfg.channels, scene_cfg.height, scene_cfg.width)
    for i in range(n):
        seed = derive_seed(cfg.experiment.master_seed, "train-scene", i)
        scene, f = generate_scene(seed, scene_cfg, head)
        mask = importance_map(f, cells)
        packed[i] = pack_nonzero(f, mask)
        scenes.append(scene)
        masks.append(mask)
    return codec_mod.TrainingSet(packed, tuple(scenes), tuple(masks), shape, head)


def make_head(cfg: ExperimentConfig) -> ProxyHead:
    return ProxyHead.from_seed(
        derive_seed(cfg.experiment.master_seed, "head"), cfg.scene.channels
    )


def train_all(cfg: ExperimentConfig, out_dir, log=None) -> RuntimeBundle:
    """Train the codecs and the similarity scorer; write bundle.ckpt and curves.

    bundle.ckpt stores both codec pairs and the scorer as float32 weights.
    Each stage continues from nnkit.stored copies, the weights as the
    checkpoint holds them: pair 2 trains against the stored pair 1, the corpus
    is built from it, the ranker trains and calibrates on that corpus, and the
    calibration table is computed with the stored scorer.

    The work runs on two processes, each stage on its own derive_seed, so
    every artifact is byte-identical to running the stages one after another:
    - this process trains pair 1, then the detector chain (_train_detector),
      then pair 2: every Adam step runs here;
    - the producer, forked once pair 1 is stored, makes pair 2's random draws
      (codec.step_draws: the batches, the noise and the frozen pair's target)
      and streams them, one per step, to pair 2's training here. It runs
      ahead while the detector chain trains, its items queued in the child.
    Failures: an exception in the producer is raised here, at the pair-2 step
    that reads past it, with its type and message; a producer that exits
    without sending is a ValueError naming its exit code. If any stage fails,
    the producer is stopped, so no child outlives the call.

    The returned bundle is bitwise equal to what load_bundle gives for
    out_dir. Files are staged beside out_dir and moved in once every stage
    has passed: a run that fails leaves out_dir as it was, or absent.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ValueError(f"output path is not a directory: {out}")
    out.parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    say = log if log is not None else (lambda msg: None)
    ms = cfg.experiment.master_seed
    try:
        head = make_head(cfg)
        say("building training scenes")
        tset = build_training_set(cfg, head)
        band1 = (cfg.codec_pair1.snr_lo, cfg.codec_pair1.snr_hi)
        band2 = (cfg.codec_pair2.snr_lo, cfg.codec_pair2.snr_hi)
        seed2 = derive_seed(ms, "codec-pair2")

        say("training first codec pair")
        c_p1, curve_p1 = codec_mod.train_no_harq(tset, cfg.codec, derive_seed(ms, "codec-pair1"), band1)
        c_p1 = replace(c_p1, encoder=nnkit.stored(c_p1.encoder), decoder=nnkit.stored(c_p1.decoder))

        say("making the second pair's draws in a child process")
        producer = _Child("pair 2 draws", lambda: codec_mod.step_draws(tset, cfg.codec, seed2, band2, c_p1))
        try:
            say("training the detector")
            scorer = _train_detector(cfg, head, c_p1, work)
            say("training second codec pair on the frozen residual")
            c_p2, curve_p2 = codec_mod.train_harq2_pair(c_p1, tset, cfg.codec, seed2, band2, producer.items())
        except BaseException:
            producer.proc.terminate()
            raise
        finally:
            producer.proc.join()
            producer.conn.close()
        c_p2 = replace(c_p2, encoder=nnkit.stored(c_p2.encoder), decoder=nnkit.stored(c_p2.decoder))
        _write_csv(work / "train_codecs.csv", ("codec", "phase", "epoch", "loss"), [
            (name, phase, epoch, loss)
            for name, curve in (("pair1", curve_p1), ("pair2", curve_p2))
            for phase, series in (("recon", curve.recon), ("total", curve.total), ("task", curve.task))
            for epoch, loss in enumerate(series, start=1)
        ])
        _write_bundle(work / BUNDLE, c_p1, c_p2, scorer)

        out.mkdir(exist_ok=True)
        for path in work.iterdir():
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    say("training artifacts written")
    return RuntimeBundle(cfg, head, c_p1, c_p2, scorer)


def _train_detector(cfg: ExperimentConfig, head: ProxyHead, pair1, work: Path) -> det_mod.SimilarityScorer:
    """The detector chain on the stored pair 1: the rank corpus, the ranker
    and its calibration. Writes train_detector.csv and
    detector_calibration.csv into work and returns the stored scorer."""
    ms = cfg.experiment.master_seed
    corpus = det_mod.build_corpus(cfg, head, pair1)
    scorer = det_mod.new_scorer(cfg.detector, derive_seed(ms, "scorer"))
    scorer, history = det_mod.train_ranker(corpus, scorer, cfg.detector, derive_seed(ms, "ranker"))
    scorer = det_mod.calibrate_scorer(scorer, corpus)
    scorer = replace(scorer, branch=nnkit.stored(scorer.branch), head=nnkit.stored(scorer.head))
    _write_csv(work / "train_detector.csv", ("epoch", "pair_loss", "holdout_accuracy"), [
        (epoch, pair_loss, accuracy)
        for epoch, (pair_loss, accuracy) in enumerate(
            zip(history["pair_loss"], history["holdout_accuracy"]), start=1
        )
    ])
    _write_calibration(work / "detector_calibration.csv", cfg, corpus, scorer)
    return scorer


class _Child:
    """A forked producer process of train_all, and the reading end of its pipe.

    The child runs items() and sends ("item", x) for each x it yields, or
    ("error", exc) for the exception that stopped it; then it exits."""

    def __init__(self, what: str, items):
        ctx = multiprocessing.get_context("fork")
        self.what = what
        self.conn, end = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=_serve, args=(end, self.conn, items))
        self.proc.start()
        end.close()

    def receive(self):
        """The child's next item; raises the exception it sent, or a
        ValueError naming its exit code if it exits without sending."""
        try:
            kind, payload = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise ValueError(
                f"{self.what} process exited with code {self.proc.exitcode} before sending its result"
            ) from None
        if kind == "error":
            raise payload
        return payload

    def items(self):
        """The child's items, one receive() per next()."""
        while True:
            yield self.receive()


def _serve(conn, parent_end, items) -> None:
    """A _Child's process: send what items() yields, then close. It closes
    its copy of the parent's end first, so that a send fails, not hangs, if
    the parent goes. Each message is pickled here: an item that does not
    pickle is the error sent. A sender thread writes the messages, so the
    items run ahead while the pipe is full; once it has stopped, no more are
    made."""
    parent_end.close()
    queue = SimpleQueue()
    # a daemon, so that an interrupt that skips the join below does not keep
    # the child waiting on it
    sender = threading.Thread(target=_send_all, args=(conn, queue), daemon=True)
    sender.start()
    try:
        for item in items():
            if not sender.is_alive():
                break
            queue.put(pickle.dumps(("item", item)))
    except Exception as exc:
        queue.put(pickle.dumps(("error", exc)))
    queue.put(None)
    sender.join()
    conn.close()


def _send_all(conn, queue) -> None:
    """Write the queue's pickled messages up to None, and stop at the first
    write that fails: the reader has gone."""
    while (message := queue.get()) is not None:
        try:
            conn.send_bytes(message)
        except OSError:
            return


def _nets(pair1, pair2, scorer) -> tuple:
    """The six nets of a trained system, in bundle.ckpt's order (_NET_NAMES)."""
    return (pair1.encoder, pair1.decoder, pair2.encoder, pair2.decoder, scorer.branch, scorer.head)


def _write_bundle(path, pair1, pair2, scorer) -> None:
    """bundle.ckpt: its magic, then the six nets of _nets through nnkit.write_net,
    and nothing after them."""
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_MAGIC)
        for net in _nets(pair1, pair2, scorer):
            nnkit.write_net(fh, net)


def _built_layouts(cfg: ExperimentConfig) -> list:
    """nnkit.layout of the six nets that new_codec and new_scorer build from cfg;
    the nets are freed on return, before load_bundle reads the stored ones."""
    pair = codec_mod.new_codec(cfg.codec, cfg.packed_length(), 0)
    return [nnkit.layout(net) for net in _nets(pair, pair, det_mod.new_scorer(cfg.detector, 0))]


def load_bundle(cfg: ExperimentConfig, art_dir) -> RuntimeBundle:
    """The trained system that train_all wrote to art_dir, checked against cfg
    by one rule: each net's nnkit.layout is that of the net the constructors
    build from cfg, the one home of the architecture, and so of the codecs'
    n_cu and the scorer's pool. A missing, truncated or corrupt bundle.ckpt,
    bytes after its last net, or another layout raise ValueError naming the
    file."""
    path = Path(art_dir) / BUNDLE
    if not path.is_file():
        raise ValueError(f"missing training artifact: {path}")
    proxy_head, built = make_head(cfg), _built_layouts(cfg)
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != _BUNDLE_MAGIC:
                raise ValueError("not a bundle checkpoint")
            nets = [nnkit.read_net(fh) for _ in built]
            if fh.read(1):
                raise ValueError("bytes after the last net")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for name, net, want in zip(_NET_NAMES, nets, built):
        if nnkit.layout(net) != want:
            raise ValueError(
                f"{path}: artifacts do not match config: {name} has layers {nnkit.layout(net)}, "
                f"the config builds {want}"
            )
    enc1, dec1, enc2, dec2, branch, head = nets
    pair1, pair2 = codec_mod.SemanticCodec(enc1, dec1), codec_mod.SemanticCodec(enc2, dec2)
    return RuntimeBundle(cfg, proxy_head, pair1, pair2, det_mod.SimilarityScorer(branch, head))


def _write_calibration(path, cfg: ExperimentConfig, corpus, scorer) -> None:
    """Per corpus SNR: mean predicted score vs mean true similarity.

    This is the table used to place the acknowledgement threshold between
    the scores of reliable and unreliable receptions. Every query holds one
    sampling per corpus SNR.
    """
    snrs = cfg.detector.corpus_snr_db
    # both sums add the queries in corpus order: another order rounds differently
    s_hat = sum(nnkit.sigmoid(det_mod.query_logits(scorer, maps)) for maps in corpus.maps)
    s_true = corpus.s_true.sum(axis=0)
    n = len(corpus.maps)
    rows = [(snr, sh / n, st / n) for snr, sh, st in zip(snrs, s_hat, s_true)]
    _write_csv(path, ("snr_db", "mean_score", "mean_true_similarity"), rows)


# ---------------------------------------------------------------------------
# sessions


class SessionCache:
    """What every mode and SNR of a block of session indices share.

    Each part is made on first use: the semantic and baseline sources of the
    block's scenes (one of each for the block, a row per index; the scenes
    are drawn once, and dropped once every source that the grid reads is
    made), per round one RoundDraws of the block's indices, and the rows.
    The first session of a pipeline (semantic or baseline) to read the
    block computes the rounds of the pipeline's modes in the config at
    every (index, SNR) of the block and the config as one batch: one link
    call, combining or decode, and scoring per round. It serves the
    config's grid alone: a session of another mode or SNR is refused. Each
    mode's round goes only to the rows where its session has not been
    acknowledged by then, at the config's threshold or by the CRC. A sweep
    of baseline modes alone never builds the semantic source, so it runs on
    a bundle without codecs or scorer. Sharing one cache changes no result:
    each row is bitwise that of a batch of its index and SNR alone.
    """

    def __init__(self, bundle: RuntimeBundle, indices):
        self.bundle = bundle
        self.indices = tuple(indices)
        self._draws: dict[int, RoundDraws] = {}
        self._rows: dict[tuple[int, str, float], list] = {}

    @functools.cached_property
    def scenes(self) -> list:
        """(scene, feature) of each index of the block."""
        cfg = self.bundle.cfg
        seeds = [derive_seed(cfg.experiment.master_seed, "session-scene", idx) for idx in self.indices]
        return [generate_scene(seed, cfg.scene, self.bundle.head) for seed in seeds]

    @functools.cached_property
    def semantic(self) -> SemanticSource:
        b = self.bundle
        scenes, features = zip(*self.scenes)
        return SemanticSource(
            b.codec_pair1, b.codec_pair2, b.scorer, b.head, scenes, features, b.cfg.mask_cells(),
            b.cfg.detector.pool,
        )

    @functools.cached_property
    def baseline(self) -> BaselineSource:
        cfg = self.bundle.cfg
        scenes, features = zip(*self.scenes)
        return BaselineSource(
            self.bundle.head, scenes, features, cfg.baseline_cells(),
            cfg.baseline.mod_order, cfg.baseline.code_copies,
        )

    def draws(self, t: int) -> RoundDraws:
        """The link draws of round t, a row per index of the block in block
        order, on the n_cu payload cells that every pipeline's symbols fit
        (config.baseline_cells keeps the codeword within them): the same
        for every mode, SNR and threshold."""
        if t not in self._draws:
            cfg = self.bundle.cfg
            seeds = [LinkSeeds.derive(cfg.experiment.master_seed, "session", idx, t) for idx in self.indices]
            self._draws[t] = RoundDraws(cfg.ofdm, cfg.channel, seeds, cfg.codec.n_cu, True)
        return self._draws[t]

    def rows(self, idx: int, mode: str, snr_db: float) -> list:
        """The rounds that the session of index idx and mode at snr_db reads,
        up to its first acknowledged one: one row of SemanticSource.rounds,
        at the config's threshold, or of BaselineSource.rounds. Each round
        is one link call on the round's draws, a row per (index, SNR) of the
        block and the config's grid. ValueError for an index outside the
        block, and for a mode or SNR outside the grid."""
        if (idx, mode, snr_db) not in self._rows:
            if idx not in self.indices:
                raise ValueError(f"session index {idx} is not in this cache's block {self.indices}")
            cfg = self.bundle.cfg
            e = cfg.experiment
            if mode not in e.modes:
                raise ValueError(f"mode {mode!r} is not in the config's modes {e.modes}")
            if snr_db not in e.snr_db:
                raise ValueError(f"snr_db {snr_db} is not in the config's snr_db {e.snr_db}")
            scenes = [i for i in range(len(self.indices)) for _ in e.snr_db]
            row_snrs = [s for _ in self.indices for s in e.snr_db]
            if mode in BASELINE_MODES:
                pipeline, rounds = BASELINE_MODES, self.baseline.rounds
            else:
                pipeline = SEMANTIC_MODES
                rounds = functools.partial(self.semantic.rounds, threshold=cfg.detector.ack_threshold)
            if all(("baseline" if m in BASELINE_MODES else "semantic") in vars(self) for m in e.modes):
                vars(self).pop("scenes", None)  # each source the grid reads keeps what it needs of them
            modes = tuple(m for m in e.modes if m in pipeline)

            def send(t, symbols, rows):
                draws = self.draws(t)
                seeds = [draws.seeds[scenes[b]] for b in rows]
                args = (symbols, cfg.ofdm, cfg.channel, [row_snrs[b] for b in rows], seeds)
                if pipeline is BASELINE_MODES:
                    return transmit_with_state(*args, draws=draws)
                return transmit_symbols(*args, draws=draws)

            for m, per_row in rounds(modes, e.round_budget, scenes, send).items():
                keys = [(self.indices[i], m, s) for i, s in zip(scenes, row_snrs)]
                self._rows.update(zip(keys, per_row))
        return self._rows[idx, mode, snr_db]


def run_session(cache: SessionCache, idx: int, mode: str, snr_db: float) -> SessionRecord:
    """Run one seeded protocol session of the cache's bundle at session index
    idx, one of the cache's block, and flatten it into a record.

    The mode and snr_db must be in the bundle config's grid (ValueError
    otherwise, SessionCache.rows), and the threshold and round budget are
    the config's, where they are checked, as a non-finite SNR is. The other
    sessions of the block may share the cache; run_sweep makes one per
    block and drops it when the block is done. A session on a cache of its
    index alone records the same.
    """
    cfg = cache.bundle.cfg
    if mode in SEMANTIC_MODES:
        beta, run = cfg.detector.ack_threshold, run_semantic_session
    elif mode in BASELINE_MODES:
        beta, run = None, run_baseline_session
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _flatten(run(cache.rows(idx, mode, snr_db)), idx, mode, snr_db, beta, cfg.experiment.round_budget)


def _flatten(session: HarqSession, idx, mode, snr_db, beta, budget) -> SessionRecord:
    final_round, final = finalize(session)
    unused = (None,) * (budget - session.rounds_used)
    s_hat = tuple(r.s_hat for r in session.rounds) + unused
    s_true = tuple(r.s_true for r in session.rounds) + unused
    return SessionRecord(
        session_id=idx,
        mode=mode,
        snr_db=float(snr_db),
        beta=beta,
        rounds_used=session.rounds_used,
        ack_round=session.ack_round,
        final_round=final_round,
        final_s_true=float(final.s_true),
        final_task_loss=float(final.task_loss),
        s_hat=s_hat,
        s_true=s_true,
    )


# ---------------------------------------------------------------------------
# sweeps

_WORKER_STATE: dict = {}

# The most session indices that a SessionCache holds at once. A block's
# memory grows with its indices: per index it keeps the payload cells of each
# round's link draws and its receptions (tests/test_harness.py pins that
# part, about 0.12 MiB at the default geometry), and each round's batch works
# on the index's (SNR, payload cell) arrays: about 0.2 MiB per index at the
# peak of a round. Blocks of 2 stay within the 0.4-0.5 MiB that a sweep of
# one index at a time held when it kept its draws l_fft wide.
BLOCK_INDICES = 2


def _pool_init(bundle, grid):
    _WORKER_STATE["args"] = (bundle, grid)


def _pool_task(indices):
    return _run_block(*_WORKER_STATE["args"], indices)


def _run_block(bundle, grid, indices) -> list[list[SessionRecord]]:
    """Per index of the block, every (mode, snr_db) of `grid`, all on one
    SessionCache."""
    cache = SessionCache(bundle, indices)
    return [[run_session(cache, idx, mode, snr_db) for mode, snr_db in grid] for idx in indices]


def run_sweep(
    bundle: RuntimeBundle,
    modes,
    snr_list,
    out_dir,
    sessions: int | None = None,
    workers: int | None = None,
    log=None,
) -> list[SessionRecord]:
    """Run a mode x SNR grid of seeded sessions and write the two sweep CSVs.

    `modes`, `snr_list` and any `sessions` or `workers` are set in the
    bundle config's [experiment] section by config.override, and so checked
    as a config file is, before the output directory is made.

    The grid runs one block of consecutive session indices at a time, of
    min(BLOCK_INDICES, ceil(sessions / workers)) indices: all (index, mode,
    SNR) sessions of a block share one SessionCache, which is dropped when
    the block is done, so the scenes, the codewords, the link draws and
    every reception of a block are computed once for the whole grid, each
    round at all its (index, SNR) rows in one batch. With workers > 1 each
    worker takes whole blocks. Records come back, and the CSVs are written,
    in (mode, SNR, index) order. Per-session seeds do not depend on how
    indices are grouped or distributed, so the CSV bytes are identical for
    any block size and worker count, and equal to those of running each
    session on a cache of its own.
    """
    counts = {k: v for k, v in (("sessions", sessions), ("workers", workers)) if v is not None}
    cfg = override(bundle.cfg, "experiment", modes=tuple(modes), snr_db=tuple(map(float, snr_list)), **counts)
    bundle, e = replace(bundle, cfg=cfg), cfg.experiment
    say = log if log is not None else (lambda msg: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    grid = [(mode, snr_db) for mode in e.modes for snr_db in e.snr_db]
    size = min(BLOCK_INDICES, -(-e.sessions // e.workers))
    blocks = [range(k, min(k + size, e.sessions)) for k in range(0, e.sessions, size)]
    say(f"running {len(grid) * e.sessions} sessions on {e.workers} worker(s)")
    if e.workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(e.workers, initializer=_pool_init, initargs=(bundle, grid)) as pool:
            by_block = pool.map(_pool_task, blocks, chunksize=1)
    else:
        by_block = [_run_block(bundle, grid, block) for block in blocks]
    by_index = [rows for block in by_block for rows in block]
    records = [rows[k] for k in range(len(grid)) for rows in by_index]

    write_session_csv(out / "sessions.csv", records, e.round_budget)
    write_summary_csv(out / "summary.csv", records, e.modes, e.snr_db, e.round_budget)
    say(f"wrote {out / 'sessions.csv'} and {out / 'summary.csv'}")
    return records


def write_session_csv(path, records, budget: int) -> None:
    head = ["session_id", "mode", "snr_db", "beta", "rounds_used", "ack_round",
            "final_round", "final_s_true", "final_task_loss"]
    head += [f"s_hat_{t}" for t in range(1, budget + 1)]
    head += [f"s_true_{t}" for t in range(1, budget + 1)]
    rows = [
        (r.session_id, r.mode, r.snr_db, r.beta, r.rounds_used, r.ack_round, r.final_round,
         r.final_s_true, r.final_task_loss, *r.s_hat, *r.s_true)
        for r in records
    ]
    _write_csv(path, head, rows)


def write_summary_csv(path, records, modes, snr_list, budget: int) -> None:
    head = ["mode", "snr_db", "beta", "sessions", "ack_rate", "throughput",
            "mean_rounds", "mean_final_s", "mean_task_loss"]
    head += [f"rounds_{t}" for t in range(1, budget + 1)]
    groups = {}  # each (mode, SNR) group's records, in record order
    for r in records:
        groups.setdefault((r.mode, r.snr_db), []).append(r)
    rows = []
    for mode in modes:
        for snr_db in snr_list:
            group = groups.get((mode, snr_db))
            if not group:
                continue
            n = len(group)
            betas = {r.beta for r in group}
            rows.append((
                mode, snr_db, betas.pop() if len(betas) == 1 else None, n,
                sum(r.ack_round > 0 for r in group) / n,
                throughput(group),
                sum(r.rounds_used for r in group) / n,
                sum(r.final_s_true for r in group) / n,
                sum(r.final_task_loss for r in group) / n,
                *(sum(r.rounds_used == t for r in group) for t in range(1, budget + 1)),
            ))
    _write_csv(path, head, rows)


def _write_csv(path, head, rows) -> None:
    """The one writer of the tables a run writes. Each cell is a str as is, an
    int through str, a float as .10g, and empty for None or NaN."""

    def cell(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        if value is None or math.isnan(value):
            return ""
        return format(float(value), ".10g")

    lines = [",".join(head)] + [",".join(map(cell, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

"""semlink benchmark: run one seeded workload, check its outputs, print metrics.

    python3 bench/run.py --workload sweep-semantic --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):
  sweep-semantic  set-up trains a small artifact set; timed: noharq,sim1,sim2 sweeps
  sweep-baseline  set-up builds the proxy head only; timed: base1,base2 sweeps
  train           timed: train_all on seed-drawn data, each followed by evaluation sweeps

With --trace 0 nothing is traced but one timer around each
harness.run_session call, and the run prints the end-to-end metrics, every
time normalised to a reference kernel timed in between (calibrate.py). With --trace 1 it
wraps the public functions of every layer and prints per-layer calls, self
time and work counts, per timed pass. Progress goes to stderr; the last line
of stdout is one JSON object. A failed output check exits with status 1
before any result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SEMANTIC_MODES = ("noharq", "sim1", "sim2")
BASELINE_MODES = ("base1", "base2")

# Every workload trains this config: default geometry (l_fft 2048, n_cu 256,
# hidden 192, pool 16) with fewer samples, codec epochs and corpus queries,
# scaled so that train_all's stages stay near the default run's shares of
# its time: codec training about 67%, corpus 23%, ranker 9%, against 74%,
# 19% and 6% in the default run (README.md).
TRAIN_OVERRIDES = {
    "codec": {"train_samples": 224, "recon_epochs": 22, "task_epochs": 8},
    "detector": {"corpus_queries": 32, "epochs": 50},
}
# Master seed of the sweep workloads, for their training and their sessions.
# It does not follow --seed: which rounds a semantic session needs depends
# mostly on its scene, and one sweep holds only `sessions` scenes, so with
# seed-drawn scenes the mix of 1- and 3-round sessions, and with it every
# sweep timing, moves by 10-50% from seed to seed (README.md).
SWEEP_SEED = 2024


@dataclass(frozen=True)
class Workload:
    modes: tuple[str, ...]  # modes swept
    sessions: int  # sessions per (mode, SNR) point
    timed: str  # "sweep": sweeps are timed; "train": train_all is timed
    setups: int  # set-ups per block (sweeps) or cycle (train); setup_s is their median
    trained: bool = True  # False: the sweep's set-up builds its bundle without training
    trend: tuple[str, ...] = ("ack_rate", "mean_final_s")  # summary columns that rise with SNR


WORKLOADS = {
    "sweep-semantic": Workload(SEMANTIC_MODES, 5, "sweep", setups=1),
    "sweep-baseline": Workload(BASELINE_MODES, 12, "sweep", setups=10, trained=False),
    # noharq sends exactly one round per session, so the evaluation sweep's
    # timings do not depend on how well the seed-drawn training went. Its ACK
    # rate is not required to rise with SNR: on some seeds the trained scorer
    # acknowledges every session at every SNR (CHANGES.md, FOUND).
    "train": Workload(("noharq",), 15, "train", setups=10, trend=("mean_final_s",)),
}
SWEEP_BLOCKS = 2  # blocks of set-up and timed sweeps per sweep-workload run
EVAL_SWEEPS = 5  # evaluation sweeps after each timed train_all call

LAYERS = {
    "harness": ("run_session", "build_training_set", "write_session_csv", "write_summary_csv"),
    "harq": ("run_semantic_session", "run_baseline_session", "crc24", "finalize"),
    "link": ("transmit_symbols", "transmit_with_state"),
    "ofdm": ("frame_build", "pilot_rows", "frame_extract", "qam_map", "qam_demap_hard"),
    "channel": ("realize", "apply", "freq_response"),
    "rxdsp": ("estimate", "equalize_mmse"),
    "codec": ("encode", "decode", "surrogate_roundtrip", "train_no_harq", "train_harq2_pair"),
    "nnkit": ("forward", "forward_tape", "backward", "adam_step"),
    "detector": ("pool_map", "score_pooled", "build_corpus", "train_ranker", "calibrate_scorer"),
    "scenegen": (
        "generate_scene", "confidence_map", "true_similarity", "perception_loss", "perception_loss_grad",
    ),
    "tensors": ("importance_map", "pack_nonzero", "unpack", "apply_mask"),
}
TRACED = tuple(f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs)
# Functions that training calls every few milliseconds: after a call to one
# of them, an untraced training run takes a calibration tick if the last one
# is at least Calibrator.interval old (calibrate.py).
TICK_POINTS = ("nnkit.adam_step", "link.transmit_symbols")
WORK_COUNTS = {
    "link.payload_symbols": "symbols",
    "channel.apply.cells": "cells",
    "harq.rounds": "rounds",
    "harq.acks": "acks",
}
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "sessions_per_s": "1/s",
    "ms_per_round": "ms",
    "session_ms_p50": "ms",
    "session_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "ranker_holdout_accuracy": "fraction",
    "codec_final_loss": "loss",
}


class CheckFailed(Exception):
    pass


def say(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def require(failures) -> None:
    if failures:
        raise CheckFailed("\n".join(failures))


def import_program():
    """Import semlink from this checkout's src/, never from an installed copy."""
    if not (SRC / "semlink" / "__init__.py").is_file():
        raise SystemExit(f"error: no semlink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semlink
    import semlink.harness  # noqa: F401  loads every layer before anything is timed

    if Path(semlink.__file__).resolve().parent != (SRC / "semlink").resolve():
        raise SystemExit(f"error: imported semlink from {semlink.__file__}, not {SRC}")


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    A session's rounds allocate and free frame-sized arrays (458 KiB and
    larger). glibc starts with both thresholds at 128 KiB and raises them
    for good each time it frees an mmap'd block larger than the current one.
    Until a free of a few MiB has raised them that far, that memory goes back
    to the kernel when freed and faults in again, about 2,200 minor page
    faults per base1 session; after it, none. When that free happened in a
    run depended on everything the process had done before, and it moved
    session times by 20-38% (README.md). Fixing both thresholds at the top
    of glibc's own range (the mmap threshold's maximum on 64-bit) turns the
    adjustment off, so every run measures the program with no page-fault
    churn. Without glibc's mallopt this does nothing.
    """
    import ctypes

    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024)
    mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# work counters for the traced run


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_payload(counts, args, kwargs, result):
    import numpy as np

    n = int(np.size(_first_arg(args, kwargs, "symbols")))
    counts["link.payload_symbols"] = counts.get("link.payload_symbols", 0) + n


def _count_cells(counts, args, kwargs, result):
    import numpy as np

    n = int(np.size(_first_arg(args, kwargs, "grid")))
    counts["channel.apply.cells"] = counts.get("channel.apply.cells", 0) + n


def _count_session(counts, args, kwargs, result):
    counts["harq.rounds"] = counts.get("harq.rounds", 0) + result.rounds_used
    counts["harq.acks"] = counts.get("harq.acks", 0) + (1 if result.ack_round > 0 else 0)


COUNTERS = {
    "link.transmit_symbols": _count_payload,
    "link.transmit_with_state": _count_payload,
    "channel.apply": _count_cells,
    "harq.run_semantic_session": _count_session,
    "harq.run_baseline_session": _count_session,
}


# ---------------------------------------------------------------------------
# workload pieces


def bench_config(master_seed: int):
    from semlink.config import ExperimentConfig, validate_config

    base = ExperimentConfig()
    cfg = replace(
        base,
        experiment=replace(base.experiment, master_seed=master_seed),
        codec=replace(base.codec, **TRAIN_OVERRIDES["codec"]),
        detector=replace(base.detector, **TRAIN_OVERRIDES["detector"]),
    )
    validate_config(cfg)
    return cfg


def link_self_check(cfg) -> None:
    from semlink import channel, link

    from checks import check_link_identity

    names = [n for n in ("transmit_symbols", "transmit_with_state") if hasattr(link, n)]
    require(check_link_identity(link, channel, cfg.ofdm_config(), names))


def artifact_bytes(art_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(art_dir).iterdir()) if p.is_file()}


def train_and_check(cfg, art_dir):
    """train_all into a fresh directory, checked; returns (bundle, results)."""
    from semlink import harness

    from checks import check_bundle_equal, check_training, training_results

    shutil.rmtree(art_dir, ignore_errors=True)
    bundle = harness.train_all(cfg, art_dir)
    require(check_bundle_equal(bundle, harness.load_bundle(cfg, art_dir)))
    results = training_results(art_dir)
    require(check_training(results))
    return bundle, results


def timed_training(cfg, art_dir, cal: Calibrator, trace: bool):
    """train_and_check with calibration ticks inside it (none in a traced
    run, where they would add to the traced spans); returns
    (bundle, results, normalised seconds, raw seconds)."""
    from tracer import Tracer

    ticks = contextlib.nullcontext()
    if not trace:
        ticks = Tracer(TICK_POINTS, counters={name: cal.hook for name in TICK_POINTS})
    with ticks:
        (bundle, results), raw, factor = cal.measure(train_and_check, cfg, art_dir)
    return bundle, results, raw * factor, raw


def sweep_pass(bundle, wl: Workload, out_dir):
    """One run_sweep over the default SNR grid; returns its csv bytes."""
    from semlink import harness

    harness.run_sweep(
        bundle, wl.modes, bundle.cfg.experiment.snr_db, out_dir, sessions=wl.sessions, workers=1
    )
    out = Path(out_dir)
    return (out / "sessions.csv").read_bytes(), (out / "summary.csv").read_bytes()


def sweep_results(bundle, wl: Workload, out_dir, passes, session_spans) -> dict:
    """Check a sweep's CSVs and turn them and its timings into metrics.

    `passes` holds (raw seconds, factor) per timed pass. Every pass repeats
    the same sessions in the same order, so the i-th run_session span of each
    pass times the same session. Each span is normalised by its pass's
    factor; a session's time is the median over the passes, and the sweep
    time the median of the passes' normalised times.
    """
    from semlink.scenegen import SIMILARITY_CAP

    from checks import check_sweep, read_rows

    cfg = bundle.cfg
    budget = cfg.experiment.round_budget
    snrs = tuple(float(s) for s in cfg.experiment.snr_db)
    require(check_sweep(out_dir, wl.modes, snrs, budget, SIMILARITY_CAP, wl.trend))
    rows = read_rows(Path(out_dir) / "sessions.csv")
    n = len(rows)
    if len(session_spans) != n * len(passes):
        raise CheckFailed(f"{len(session_spans)} run_session calls in {len(passes)} sweeps of {n}")
    runs = [
        [span * factor for span in session_spans[i * n : (i + 1) * n]]
        for i, (_, factor) in enumerate(passes)
    ]
    per_session = [statistics.median(column) for column in zip(*runs)]
    sweep_s = statistics.median(raw * factor for raw, factor in passes)
    say(
        f"sweep passes: raw median {statistics.median(raw for raw, _ in passes):.4f} s, "
        f"factor median {statistics.median(factor for _, factor in passes):.3f}"
    )
    rounds = sum(int(r["rounds_used"]) for r in rows)
    acks = sum(1 for r in rows if int(r["ack_round"]) > 0)
    return {
        "sessions_per_s": n / sweep_s,
        "ms_per_round": 1000.0 * sweep_s / rounds,
        "session_ms_p50": 1000.0 * statistics.median(per_session),
        "session_ms_p90": 1000.0 * statistics.quantiles(per_session, n=10)[-1],
        "ack_per_round": acks / rounds,
        "final_similarity": statistics.fmean(float(r["final_s_true"]) for r in rows),
        "sessions": n,
    }


def timed_sweeps(bundle, wl: Workload, out_dir, passes: list, total: float, tracer, cal, reference=None):
    """Append (raw seconds, factor) of sweep passes under tracer to `passes`
    until their raw seconds sum to `total`, at least one pass. Every pass must
    write the CSV bytes of `reference` (or of the first pass), which are
    returned.
    """
    with tracer:
        while True:
            got, raw, factor = cal.measure(sweep_pass, bundle, wl, out_dir)
            passes.append((raw, factor))
            if reference is not None and got != reference:
                raise CheckFailed("sweep outputs differ between passes of the same seed")
            reference = got
            if sum(raw for raw, _ in passes) >= total:
                return reference


def make_tracer(trace: bool, cal: Calibrator):
    """The traced run's tracer, or else a timer of run_session calls that
    takes a calibration tick after each call (outside its span)."""
    from tracer import Tracer

    if trace:
        return Tracer(TRACED, counters=COUNTERS, keep_spans=("harness.run_session",))
    return Tracer(
        ("harness.run_session",),
        counters={"harness.run_session": cal.hook},
        keep_spans=("harness.run_session",),
    )


# ---------------------------------------------------------------------------
# workloads


def train_in_child(cfg, art_dir):
    """timed_training in a forked child process; returns
    ((normalised seconds, raw seconds), results).

    The parent then holds only what it loads and runs itself, so its peak RSS
    is that of load_bundle and the sweeps, not of training.
    """
    from calibrate import Calibrator

    result_file = Path(art_dir).parent / "train-results.json"
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _, results, norm, raw = timed_training(cfg, art_dir, Calibrator(), trace=False)
            result_file.write_text(json.dumps({"train": [norm, raw], **results}))
            code = 0
        except CheckFailed as exc:
            say(f"check failed: {exc}")
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise CheckFailed("training in the child process failed (see above)")
    results = json.loads(result_file.read_text())
    result_file.unlink()
    return tuple(results.pop("train")), results


def sweep_setup(cfg, wl: Workload, art_dir):
    """The bundle a sweep runs on, read back from artifacts that a forked child
    trains, or, for baseline modes, which read only the proxy head, built
    directly from the config. Returns (bundle, (normalised, raw) training
    seconds or None, results or None)."""
    from semlink import harness

    train = results = None
    if wl.trained:
        train, results = train_in_child(cfg, art_dir)
        bundle = harness.load_bundle(cfg, art_dir)
    else:
        bundle = harness.RuntimeBundle(cfg, harness.make_head(cfg), None, None, None)
    link_self_check(cfg)
    return bundle, train, results


def run_sweep_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool):
    """Blocks of set-up and timed sweeps, so that set-up and sweeps both sample
    the host's slow and fast spells across the whole run. Each block sets up
    wl.setups times and sweeps until a further seconds/blocks of sweeping is
    done. Set-up trains on sweep-semantic; sweep-baseline trains once, after
    its first set-ups, only for the training metrics, and not in a traced
    run. The sweep is drawn from SWEEP_SEED; `seed` is not used.
    """
    from calibrate import Calibrator

    art = OUT / name / "artifacts"
    out = OUT / name / "sweep"
    blocks = 1 if trace else SWEEP_BLOCKS
    cal = Calibrator()
    tracer = make_tracer(trace, cal)
    setups, trains, passes, files, csvs, results = [], [], [], None, None, {}
    for k in range(blocks):
        cfg = bench_config(SWEEP_SEED)
        first, block = len(cal.ticks), []
        for _ in range(wl.setups):
            (bundle, train, got), raw, _ = cal.measure(sweep_setup, cfg, wl, art)
            block.append((raw, train))
        # The parent's own part of a set-up is normalised by the ticks of the
        # whole block; the child's training by the child's own ticks.
        factor = cal.factor(first)
        for raw, train in block:
            norm_train, raw_train = train or (0.0, 0.0)
            setups.append((raw - raw_train) * factor + norm_train)
        if not wl.trained and not trace and k == 0:
            train, got = train_in_child(cfg, art)
        if train is not None:
            trains.append(train[0])
            results = got
            if files is not None and artifact_bytes(art) != files:
                raise CheckFailed("training is not deterministic: artifacts differ between blocks")
            files = artifact_bytes(art)
        csvs = timed_sweeps(bundle, wl, out, passes, seconds * (k + 1) / blocks, tracer, cal, csvs)
    sweep = sweep_results(bundle, wl, out, passes, tracer.spans["harness.run_session"])
    metrics = {"setup_s": statistics.median(setups), **sweep}
    if trains:
        metrics["train_s"] = statistics.median(trains)
        metrics["ranker_holdout_accuracy"] = results["ranker_holdout_accuracy"]
        metrics["codec_final_loss"] = results["codec_final_loss"]
    attempted = len(setups) + len(trains) + sweep["sessions"] * len(passes)
    return metrics, tracer, len(passes), attempted


def train_setup(seed: int, art_dir):
    cfg = bench_config(seed)
    link_self_check(cfg)
    art_dir.mkdir(parents=True, exist_ok=True)
    return cfg


def run_train_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool):
    """Cycles of set-up (wl.setups times), one timed train_all call and
    evaluation sweeps of the trained system, for `seconds`. The evaluation
    sweeps give this workload's session metrics and are not traced.
    """
    from calibrate import Calibrator

    art = OUT / name / "artifacts"
    out = OUT / name / "sweep"
    cal = Calibrator()
    tracer = make_tracer(trace, cal) if trace else contextlib.nullcontext()
    session_timer = make_tracer(False, cal)
    setups, trains, sweeps, files, csvs, peak = [], [], [], None, None, None
    start = time.perf_counter()
    while not trains or time.perf_counter() - start < seconds:
        bundle = None  # a cycle holds only its own trained system
        first, raws = len(cal.ticks), []
        for _ in range(wl.setups):
            cfg, raw, _ = cal.measure(train_setup, seed, art)
            raws.append(raw)
        factor = cal.factor(first)
        setups += [raw * factor for raw in raws]
        with tracer:
            bundle, results, train_s, _ = timed_training(cfg, art, cal, trace)
        trains.append(train_s)
        if files is not None and artifact_bytes(art) != files:
            raise CheckFailed("train_all is not deterministic: artifacts differ between passes")
        files = artifact_bytes(art)
        for _ in range(EVAL_SWEEPS):
            csvs = timed_sweeps(bundle, wl, out, sweeps, 0.0, session_timer, cal, csvs)
        # The peak of the first cycle, which every run makes in full: a run
        # makes one cycle or two as the host's speed allows.
        peak = peak or peak_rss_mb()
    sweep = sweep_results(bundle, wl, out, sweeps, session_timer.spans["harness.run_session"])
    metrics = {
        "setup_s": statistics.median(setups),
        "train_s": statistics.median(trains),
        "peak_rss_mb": peak,
        "ranker_holdout_accuracy": results["ranker_holdout_accuracy"],
        "codec_final_loss": results["codec_final_loss"],
        **sweep,
    }
    return metrics, tracer, len(trains), len(setups) + len(trains) + sweep["sessions"] * len(sweeps)


# ---------------------------------------------------------------------------
# reporting


def layer_metrics(tracer, passes: int) -> dict:
    """Per-layer calls, self time and work counts, per timed pass."""

    def per_pass(total):
        return total // passes if total % passes == 0 else total / passes

    metrics = {}
    for name in TRACED:
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": per_pass(calls), "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": 1000.0 * self_s / passes, "unit": "ms"}
    for name, unit in WORK_COUNTS.items():
        metrics[name] = {"value": per_pass(tracer.counts.get(name, 0)), "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # One BLAS thread, set before numpy loads: the nets are small, and on a
    # shared two-core host a threaded BLAS would measure the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    pin_malloc_thresholds()
    sys.path.insert(0, str(BENCH))
    wl = WORKLOADS[args.workload]
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    run = run_sweep_workload if wl.timed == "sweep" else run_train_workload
    try:
        metrics, tracer, passes, attempted = run(
            args.workload, wl, args.seed, args.seconds, bool(args.trace)
        )
    except CheckFailed as exc:
        say(f"check failed: {exc}")
        return 1
    metrics.setdefault("peak_rss_mb", peak_rss_mb())

    say(f"{args.workload} seed {args.seed}: {passes} timed pass(es), ms_per_round {metrics['ms_per_round']:.3f}")
    # simulated results: exact for a fixed seed, reported but not bounded
    print(
        f"simulated: ack_per_round {metrics['ack_per_round']!r} "
        f"final_similarity {metrics['final_similarity']!r}"
    )
    if args.trace:
        out_metrics = layer_metrics(tracer, passes)
        if tracer.absent:
            print("absent: " + " ".join(tracer.absent))
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

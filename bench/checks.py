"""Output checks for the benchmark, built apart from the program.

Sweep checks read the two CSVs a sweep writes and test them against the
rules the protocols must follow; the summary is recomputed here from the
per-session rows. Training checks test properties any working training run
has. No check compares against a stored copy of earlier output. Every check
returns a list of failure messages, empty when the output is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

SEMANTIC = ("noharq", "sim1", "sim2")


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# sweeps


def recompute_summary(sessions: list[dict], modes, snr_list, budget: int) -> list[dict]:
    """The summary table computed from sessions.csv rows, one dict per group."""
    out = []
    for mode in modes:
        for snr in snr_list:
            group = [r for r in sessions if r["mode"] == mode and float(r["snr_db"]) == snr]
            if not group:
                continue
            n = len(group)
            rounds = [int(r["rounds_used"]) for r in group]
            acked = sum(1 for r in group if int(r["ack_round"]) > 0)
            betas = {r["beta"] for r in group}
            row = {
                "mode": mode,
                "snr_db": float(snr),
                "beta": betas.pop() if len(betas) == 1 else "",
                "sessions": n,
                "ack_rate": acked / n,
                "throughput": acked / sum(rounds),
                "mean_rounds": sum(rounds) / n,
                "mean_final_s": sum(float(r["final_s_true"]) for r in group) / n,
                "mean_task_loss": sum(float(r["final_task_loss"]) for r in group) / n,
            }
            for t in range(1, budget + 1):
                row[f"rounds_{t}"] = sum(1 for k in rounds if k == t)
            out.append(row)
    return out


def check_summary(sessions: list[dict], summary: list[dict], modes, snr_list, budget: int) -> list[str]:
    """Every summary.csv cell must match the table recomputed from sessions.csv."""
    expected = recompute_summary(sessions, modes, snr_list, budget)
    if len(expected) != len(summary):
        return [f"summary has {len(summary)} rows, sessions.csv gives {len(expected)}"]
    bad = []
    for want, got in zip(expected, summary):
        where = f"summary {want['mode']}@{want['snr_db']:g}"
        if got["mode"] != want["mode"] or float(got["snr_db"]) != want["snr_db"]:
            bad.append(f"{where}: row is {got['mode']}@{got['snr_db']}")
            continue
        if got["beta"] != want["beta"]:
            bad.append(f"{where}: beta {got['beta']!r}, sessions give {want['beta']!r}")
        for key, value in want.items():
            if key in ("mode", "snr_db", "beta"):
                continue
            if key not in got:
                bad.append(f"{where}: column {key} missing")
            elif isinstance(value, int):
                if got[key] != str(value):
                    bad.append(f"{where}: {key} {got[key]}, sessions give {value}")
            elif not _close(_num(got[key]), value):
                bad.append(f"{where}: {key} {got[key]}, sessions give {value!r}")
    return bad


def check_sessions(sessions: list[dict], budget: int, cap: float) -> list[str]:
    """Per-row protocol rules for sessions.csv."""
    bad = []
    for r in sessions:
        where = f"session {r['session_id']} {r['mode']}@{r['snr_db']}"
        mode = r["mode"]
        used, ack, final = int(r["rounds_used"]), int(r["ack_round"]), int(r["final_round"])
        s_hat = [_num(r[f"s_hat_{t}"]) for t in range(1, budget + 1)]
        s_true = [_num(r[f"s_true_{t}"]) for t in range(1, budget + 1)]
        if not 1 <= used <= budget:
            bad.append(f"{where}: rounds_used {used} outside 1..{budget}")
            continue
        if mode == "noharq" and used != 1:
            bad.append(f"{where}: noharq used {used} rounds")
        if ack not in (0, used):
            bad.append(f"{where}: ack_round {ack} with {used} rounds used")
        if ack == 0 and mode != "noharq" and used != budget:
            bad.append(f"{where}: unacknowledged after {used} of {budget} rounds")
        if any(math.isnan(v) for v in s_true[:used]) or any(not math.isnan(v) for v in s_true[used:]):
            bad.append(f"{where}: s_true cells do not match the rounds used")
        semantic = mode in SEMANTIC
        if semantic:
            beta = float(r["beta"])
            used_hat = s_hat[:used]
            if any(math.isnan(v) for v in used_hat) or any(not math.isnan(v) for v in s_hat[used:]):
                bad.append(f"{where}: s_hat cells do not match the rounds used")
                continue
            first_above = next((t for t, v in enumerate(used_hat, start=1) if v > beta), 0)
            if first_above != ack:
                bad.append(f"{where}: ACK at round {ack}, first s_hat above beta at {first_above}")
            best = max(used_hat)
            expect_final = ack or next(t for t, v in enumerate(used_hat, start=1) if v == best)
        else:
            if any(not math.isnan(v) for v in s_hat):
                bad.append(f"{where}: baseline row carries s_hat")
            expect_final = ack or used
            if ack and float(r["final_s_true"]) != cap:
                bad.append(f"{where}: CRC-acknowledged payload has similarity {r['final_s_true']}, not {cap:g}")
        if final != expect_final:
            bad.append(f"{where}: final_round {final}, expected {expect_final}")
        elif float(r["final_s_true"]) != s_true[final - 1]:
            bad.append(f"{where}: final_s_true differs from round {final}'s s_true")
    return bad


def check_snr_trend(summary: list[dict], modes, keys=("ack_rate", "mean_final_s")) -> list[str]:
    """Each summary column in keys rises from the lowest to the highest SNR."""
    bad = []
    for mode in modes:
        rows = sorted((r for r in summary if r["mode"] == mode), key=lambda r: float(r["snr_db"]))
        if len(rows) < 2:
            bad.append(f"{mode}: fewer than two SNR points")
            continue
        lo, hi = rows[0], rows[-1]
        for key in keys:
            if not float(hi[key]) > float(lo[key]):
                bad.append(
                    f"{mode}: {key} {hi[key]} at {hi['snr_db']} dB is not above {lo[key]} at {lo['snr_db']} dB"
                )
    return bad


def check_sweep(out_dir, modes, snr_list, budget: int, cap: float, trend=("ack_rate", "mean_final_s")) -> list[str]:
    out = Path(out_dir)
    sessions = read_rows(out / "sessions.csv")
    summary = read_rows(out / "summary.csv")
    expected_rows = len(modes) * len(snr_list)
    bad = []
    if not sessions or len(summary) != expected_rows:
        bad.append(f"sweep wrote {len(sessions)} sessions and {len(summary)} of {expected_rows} summary rows")
    return (
        bad
        + check_summary(sessions, summary, modes, snr_list, budget)
        + check_sessions(sessions, budget, cap)
        + check_snr_trend(summary, modes, trend)
    )


# ---------------------------------------------------------------------------
# link


def check_link_identity(link, channel, ofdm_cfg, names) -> list[str]:
    """A noiseless, static, one-tap channel must return the sent symbols.

    names lists the link functions present; each returns the equalized
    payload first (alone or as the first element of a tuple).
    """
    rng = np.random.Generator(np.random.PCG64(1))
    symbols = (rng.standard_normal(256) + 1j * rng.standard_normal(256)) / np.sqrt(2.0)
    profile = channel.default_profile(speed_kmh=0.0, n_taps=1)
    seeds = link.LinkSeeds(pilot=3, channel=5, noise=7)
    bad = []
    for name in names:
        out = getattr(link, name)(symbols, ofdm_cfg, profile, None, seeds)
        eq = out[0] if isinstance(out, tuple) else out
        err = float(np.max(np.abs(np.asarray(eq) - symbols)))
        if not err <= 1e-9:
            bad.append(f"link.{name}: noiseless static channel error {err:.3e}")
    return bad


# ---------------------------------------------------------------------------
# training


def _nets_equal(a, b) -> bool:
    return len(a.layers) == len(b.layers) and all(
        x.act == y.act
        and x.prelu_alpha == y.prelu_alpha
        and x.w.dtype == y.w.dtype
        and np.array_equal(x.w, y.w)
        and np.array_equal(x.b, y.b)
        for x, y in zip(a.layers, b.layers)
    )


def check_bundle_equal(returned, loaded) -> list[str]:
    """The bundle train_all returns must be bitwise what load_bundle reads."""
    bad = []
    for name in ("codec_pair1", "codec_pair2"):
        x, y = getattr(returned, name), getattr(loaded, name)
        same = (
            x.n_cu == y.n_cu
            and x.signal_power == y.signal_power
            and _nets_equal(x.encoder, y.encoder)
            and _nets_equal(x.decoder, y.decoder)
        )
        if not same:
            bad.append(f"{name}: returned weights differ from the checkpoint")
    x, y = returned.scorer, loaded.scorer
    if not (x.pool == y.pool and _nets_equal(x.branch, y.branch) and _nets_equal(x.head, y.head)):
        bad.append("scorer: returned weights differ from the checkpoint")
    return bad


def training_results(out_dir) -> dict:
    """Pair 1's recon curve and last combined loss, ranker accuracy, calibration."""
    out = Path(out_dir)
    curves = read_rows(out / "train_codecs.csv")
    recon = [float(r["loss"]) for r in curves if r["codec"] == "pair1" and r["phase"] == "recon"]
    total = [float(r["loss"]) for r in curves if r["codec"] == "pair1" and r["phase"] == "total"]
    ranker = read_rows(out / "train_detector.csv")
    calib = sorted(read_rows(out / "detector_calibration.csv"), key=lambda r: float(r["snr_db"]))
    return {
        "recon": recon,
        "codec_final_loss": total[-1] if total else math.nan,
        "ranker_holdout_accuracy": float(ranker[-1]["holdout_accuracy"]) if ranker else math.nan,
        "calibration": [(float(r["snr_db"]), float(r["mean_true_similarity"])) for r in calib],
    }


def check_training(results: dict) -> list[str]:
    bad = []
    recon = results["recon"]
    if len(recon) < 2 or not recon[-1] < recon[0]:
        bad.append(f"pair 1 reconstruction loss does not fall: {recon[:1]} -> {recon[-1:]}")
    if not math.isfinite(results["codec_final_loss"]):
        bad.append("pair 1 has no combined-loss epoch")
    acc = results["ranker_holdout_accuracy"]
    if not acc > 0.5:
        bad.append(f"ranker holdout accuracy {acc} is not above 0.5")
    calib = results["calibration"]
    if len(calib) < 2 or not calib[-1][1] > calib[0][1]:
        bad.append(f"calibration true similarity does not rise with SNR: {calib}")
    return bad

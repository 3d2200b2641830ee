"""End-to-end harness tests: training artifacts, sweeps, CSVs, goldens, CLI.

Everything here runs on a deliberately small configuration (low FFT size,
narrow networks, few sessions) so the whole module stays in the seconds
range; statistical claims about the full-size system live in the
acceptance suite.
"""

import csv
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from conftest import tiny_config
from semlink import codec
from semlink import config as config_mod
from semlink import detector
from semlink import harness
from semlink.config import default_config_text

ARTIFACTS = (
    "codec_pair1.ckpt",
    "codec_pair2.ckpt",
    "scorer.ckpt",
    "corpus.bin",
    "detector_calibration.csv",
    "train_codecs.csv",
    "train_detector.csv",
)


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_artifacts")
    harness.train_all(tiny_config(seed=4242), out)
    return out


@pytest.fixture(scope="module")
def tiny_bundle(tiny_dir):
    return harness.load_bundle(tiny_config(seed=4242), tiny_dir)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_train_all_writes_artifacts(tiny_dir):
    for name in ARTIFACTS:
        assert (tiny_dir / name).exists(), name
        assert (tiny_dir / name).stat().st_size > 0, name


def test_train_all_deterministic(tiny_dir, tmp_path):
    harness.train_all(tiny_config(seed=4242), tmp_path)
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (tiny_dir / name).read_bytes(), name


def _assert_nets_bitwise_equal(a, b, name):
    assert len(a.layers) == len(b.layers), name
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        assert (la.act, la.prelu_alpha) == (lb.act, lb.prelu_alpha), f"{name} layer {i}"
        for part in ("w", "b"):
            x, y = getattr(la, part), getattr(lb, part)
            assert x.dtype == y.dtype and x.shape == y.shape, f"{name} layer {i} {part}"
            assert x.tobytes() == y.tobytes(), f"{name} layer {i} {part}"


def test_load_bundle_matches_training(tmp_path):
    cfg = tiny_config(seed=4242)
    trained = harness.train_all(cfg, tmp_path)
    loaded = harness.load_bundle(cfg, tmp_path)
    for pair in ("codec_pair1", "codec_pair2"):
        for net in ("encoder", "decoder"):
            _assert_nets_bitwise_equal(
                getattr(getattr(loaded, pair), net),
                getattr(getattr(trained, pair), net),
                f"{pair}.{net}",
            )
    for net in ("branch", "head"):
        _assert_nets_bitwise_equal(
            getattr(loaded.scorer, net), getattr(trained.scorer, net), f"scorer.{net}"
        )

    x = np.linspace(-1.0, 1.0, trained.codec_pair1.n_in)[None, :]
    np.testing.assert_array_equal(
        codec.encode(loaded.codec_pair1, x), codec.encode(trained.codec_pair1, x)
    )
    field = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    assert detector.score(loaded.scorer, field, field) == detector.score(
        trained.scorer, field, field
    )


def test_corpus_rebuild_matches_training(tiny_dir, tmp_path):
    # the corpus command rebuilds from the stored pair-1 checkpoint, so it
    # reproduces the training corpus only if training built it from the same
    # stored weights
    harness.build_and_save_corpus(tiny_config(seed=4242), tiny_dir, tmp_path)
    assert (tmp_path / "corpus.bin").read_bytes() == (tiny_dir / "corpus.bin").read_bytes()


@pytest.mark.parametrize(
    "name,loader",
    [
        ("codec_pair1.ckpt", codec.load_codec),
        ("scorer.ckpt", detector.load_scorer),
        ("corpus.bin", detector.load_corpus),
    ],
)
def test_truncated_artifacts_raise_value_error(tiny_dir, tmp_path, name, loader):
    data = (tiny_dir / name).read_bytes()
    for size in (0, 3, 6, 20, len(data) - 1):
        path = tmp_path / f"{size}-{name}"
        path.write_bytes(data[:size])
        with pytest.raises(ValueError):
            loader(path)


def test_run_sweep_rejects_nonpositive_counts(tiny_bundle, tmp_path):
    for override in ({"sessions": 0}, {"sessions": -3}, {"workers": 0}, {"budget": 0}):
        with pytest.raises(ValueError):
            harness.run_sweep(tiny_bundle, ("sim1",), (0.0,), tmp_path, **override)
    assert not (tmp_path / "sessions.csv").exists()


def test_load_bundle_missing_artifacts(tmp_path):
    with pytest.raises((ValueError, OSError)):
        harness.load_bundle(tiny_config(seed=4242), tmp_path)


def test_session_record_pairing(tiny_bundle):
    # round 1 uses the same codec, seeds and channel in every semantic mode,
    # so the first-round truth is identical across modes and thresholds
    a = harness.run_session(tiny_bundle, "sim1", 6.0, idx=3)
    b = harness.run_session(tiny_bundle, "sim2", 6.0, idx=3)
    c = harness.run_session(tiny_bundle, "sim1", 6.0, idx=3, beta=0.999)
    assert a.s_true[0] == b.s_true[0] == c.s_true[0]
    assert a.s_hat[0] == b.s_hat[0] == c.s_hat[0]


def test_noharq_is_single_round(tiny_bundle):
    rec = harness.run_session(tiny_bundle, "noharq", 6.0, idx=1)
    ref = harness.run_session(tiny_bundle, "sim1", 6.0, idx=1, budget=1)
    assert rec.rounds_used == 1
    assert rec.final_round == 1
    assert rec.s_true[1:] == (None, None)
    assert rec.final_s_true == ref.final_s_true
    assert rec.final_task_loss == ref.final_task_loss


def test_run_session_rejects_unknown_mode(tiny_bundle):
    with pytest.raises(ValueError, match="unknown mode"):
        harness.run_session(tiny_bundle, "qpsk", 6.0, idx=0)


def test_sweep_csv_schemas(tiny_bundle, tmp_path):
    harness.run_sweep(
        tiny_bundle, ("sim1", "base1"), (0.0, 18.0), tmp_path, sessions=3, workers=1
    )
    with open(tmp_path / "sessions.csv") as fh:
        head = fh.readline().strip()
    assert head == (
        "session_id,mode,snr_db,beta,rounds_used,ack_round,final_round,"
        "final_s_true,final_task_loss,s_hat_1,s_hat_2,s_hat_3,"
        "s_true_1,s_true_2,s_true_3"
    )
    with open(tmp_path / "summary.csv") as fh:
        head = fh.readline().strip()
    assert head == (
        "mode,snr_db,beta,sessions,ack_rate,throughput,mean_rounds,"
        "mean_final_s,mean_task_loss,rounds_1,rounds_2,rounds_3"
    )
    rows = _read_rows(tmp_path / "sessions.csv")
    assert len(rows) == 2 * 2 * 3
    # baseline rows carry no similarity threshold and no per-round scores
    base_rows = [r for r in rows if r["mode"] == "base1"]
    assert all(r["beta"] == "" and r["s_hat_1"] == "" for r in base_rows)
    assert (tmp_path / "plot_summary.py").exists()


def test_summary_aggregates_match_sessions(tiny_bundle, tmp_path):
    harness.run_sweep(tiny_bundle, ("sim1",), (3.0,), tmp_path, sessions=6, workers=1)
    sess = _read_rows(tmp_path / "sessions.csv")
    summ = _read_rows(tmp_path / "summary.csv")
    assert len(summ) == 1
    row = summ[0]
    n = len(sess)
    assert int(row["sessions"]) == n
    acked = sum(1 for r in sess if int(r["ack_round"]) > 0)
    rounds = [int(r["rounds_used"]) for r in sess]
    assert float(row["ack_rate"]) == pytest.approx(acked / n)
    assert float(row["mean_rounds"]) == pytest.approx(sum(rounds) / n)
    if sum(rounds):
        assert float(row["throughput"]) == pytest.approx(acked / sum(rounds))
    hist = [int(row[f"rounds_{t}"]) for t in (1, 2, 3)]
    assert sum(hist) == n
    assert hist == [rounds.count(t) for t in (1, 2, 3)]
    mean_s = sum(float(r["final_s_true"]) for r in sess) / n
    assert float(row["mean_final_s"]) == pytest.approx(mean_s, rel=1e-9)


def test_sweep_worker_count_invariance(tiny_bundle, tmp_path):
    one = tmp_path / "w1"
    two = tmp_path / "w2"
    harness.run_sweep(
        tiny_bundle, ("sim1", "base2"), (0.0, 9.0), one, sessions=4, workers=1
    )
    harness.run_sweep(
        tiny_bundle, ("sim1", "base2"), (0.0, 9.0), two, sessions=4, workers=2
    )
    assert (one / "sessions.csv").read_bytes() == (two / "sessions.csv").read_bytes()
    assert (one / "summary.csv").read_bytes() == (two / "summary.csv").read_bytes()


def test_goldens_all_pass(tmp_path):
    results = harness.run_goldens(tmp_path)
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
    report = (tmp_path / "goldens_report.txt").read_text()
    assert report.count("PASS") == len(results)
    assert "FAIL" not in report


# ---------------------------------------------------------------------------
# command line


def _render_ini(cfg) -> str:
    lines = []
    for name in config_mod._SECTION_TYPES:
        section = getattr(cfg, name)
        if section is None:
            continue
        lines.append(f"[{name}]")
        for f in fields(type(section)):
            val = getattr(section, f.name)
            if isinstance(val, tuple):
                lines.append(f"{f.name} = {','.join(str(v) for v in val)}")
            else:
                lines.append(f"{f.name} = {val}")
        lines.append("")
    return "\n".join(lines)


def _cli(*args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "semlink", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_cli_print_config():
    proc = _cli("print-config")
    assert proc.returncode == 0
    assert proc.stdout == default_config_text()


def test_cli_goldens(tmp_path):
    proc = _cli("goldens", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert "golden checks passed" in proc.stdout
    assert (tmp_path / "goldens_report.txt").exists()


def test_cli_rejects_unknown_mode(tmp_path):
    proc = _cli("sweep", "--out", str(tmp_path), "--mode", "bogus")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_cli_rejects_missing_config(tmp_path):
    proc = _cli("train", "--out", str(tmp_path), "--config", "/no/such/file.ini")
    assert proc.returncode == 1
    assert "error: config file not found" in proc.stderr


def _assert_one_error_line(proc):
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def _tiny_sweep_cli(tmp_path, art, *extra):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_render_ini(tiny_config(seed=4242)))
    return _cli(
        "sweep", "--config", str(ini), "--out", str(tmp_path / "sweep"),
        "--artifacts", str(art), "--mode", "sim1", "--snr", "0", *extra,
    )


@pytest.mark.parametrize(
    "flags", [("--sessions", "0"), ("--sessions", "-3"), ("--workers", "0"), ("--budget", "0")]
)
def test_cli_sweep_rejects_nonpositive_counts(tiny_dir, tmp_path, flags):
    proc = _tiny_sweep_cli(tmp_path, tiny_dir, *flags)
    _assert_one_error_line(proc)
    assert not (tmp_path / "sweep" / "sessions.csv").exists()


def test_cli_sweep_rejects_truncated_scorer(tiny_dir, tmp_path):
    art = tmp_path / "art"
    art.mkdir()
    for name in ARTIFACTS:
        (art / name).write_bytes((tiny_dir / name).read_bytes())
    (art / "scorer.ckpt").write_bytes((tiny_dir / "scorer.ckpt").read_bytes()[:20])
    _assert_one_error_line(_tiny_sweep_cli(tmp_path, art))


def test_cli_train_sweep_corpus_chain(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_render_ini(tiny_config(seed=7777)))
    art = tmp_path / "art"
    proc = _cli("train", "--config", str(ini), "--out", str(art))
    assert proc.returncode == 0, proc.stderr
    for name in ARTIFACTS:
        assert (art / name).exists(), name

    sweep = tmp_path / "sweep"
    proc = _cli(
        "sweep",
        "--config", str(ini),
        "--out", str(sweep),
        "--artifacts", str(art),
        "--mode", "sim1,base1",
        "--snr", "0,12",
        "--sessions", "2",
        "--workers", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = _read_rows(sweep / "sessions.csv")
    assert len(rows) == 2 * 2 * 2
    assert {r["mode"] for r in rows} == {"sim1", "base1"}
    assert {r["snr_db"] for r in rows} == {"0", "12"}

    corpus_out = tmp_path / "corpus"
    proc = _cli(
        "corpus", "--config", str(ini), "--out", str(corpus_out), "--artifacts", str(art)
    )
    assert proc.returncode == 0, proc.stderr
    assert (corpus_out / "corpus.bin").read_bytes() == (art / "corpus.bin").read_bytes()


def test_cli_seed_override_changes_artifacts(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_render_ini(tiny_config(seed=7777)))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert _cli("train", "--config", str(ini), "--out", str(a)).returncode == 0
    assert (
        _cli("train", "--config", str(ini), "--seed", "31337", "--out", str(b)).returncode
        == 0
    )
    assert (a / "codec_pair1.ckpt").read_bytes() != (b / "codec_pair1.ckpt").read_bytes()

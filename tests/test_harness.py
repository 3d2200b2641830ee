"""End-to-end harness tests: training artifacts, sweeps, CSVs, CLI.

Everything here runs on a deliberately small configuration (low FFT size,
narrow networks, few sessions) so the whole module stays in the seconds
range; statistical claims about the full-size system live in the
acceptance suite.
"""

import csv
import fcntl
import itertools
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import score, tiny_config
from semlink import codec
from semlink import config as config_mod
from semlink import detector
from semlink import harness, harq, nnkit, rxdsp
from semlink.channel import ChannelProfile
from semlink.config import default_config_text
from semlink.harq import (
    BaselineSource,
    HarqSession,
    Reception,
    SemanticSource,
    run_baseline_session,
    run_semantic_session,
)
from semlink.detector import pool_map
from semlink.link import LinkSeeds, transmit_symbols, transmit_with_state
from semlink.scenegen import confidence_map, generate_scene, perception_loss, true_similarity
from semlink.seeding import derive_seed
from semlink.tensors import apply_mask, importance_map, pack_nonzero, unpack

ARTIFACTS = (
    "bundle.ckpt",
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


def _load_tiny_bundle(path):
    """load_bundle of the directory that holds `path`, a bundle.ckpt."""
    return harness.load_bundle(tiny_config(seed=4242), path.parent)


LOADERS = {
    "bundle.ckpt": _load_tiny_bundle,
}

# bundle.ckpt holds as sections the nets that codec_pair1.ckpt, codec_pair2.ckpt
# and scorer.ckpt held as files before it; each section is its nets' indices in
# bundle order. Tests that ran on those files keep their names as case ids.
BUNDLE_SECTIONS = {"codec_pair1.ckpt": (0, 1), "codec_pair2.ckpt": (2, 3), "scorer.ckpt": (4, 5)}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _net_starts(raw: bytes) -> list[int]:
    """Offsets of the six nets in a bundle.ckpt. After the 4-byte magic, each
    net is b"DNET", a layer count, 13-byte layer headers, then float32 weights
    and biases; nothing follows the last net."""
    starts, pos = [], 4
    for _ in range(6):
        assert raw.startswith(b"DNET", pos)
        starts.append(pos)
        (n_layers,) = struct.unpack_from("<I", raw, pos + 4)
        dims = [struct.unpack_from("<II", raw, pos + 8 + 13 * i) for i in range(n_layers)]
        pos += 8 + 13 * n_layers + sum(4 * (n_in * n_out + n_out) for n_in, n_out in dims)
    assert pos == len(raw)
    return starts


def _header_bits(raw: bytes) -> list[int]:
    """Bit indices of the file's magic and of each embedded net's header."""
    starts = [0] + [i for i in range(len(raw)) if raw.startswith(b"DNET", i)]
    return sorted({bit for i in starts for bit in range(8 * i, 8 * min(len(raw), i + 40))})


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_artifact_loaders_return_or_raise_valueerror(tiny_dir, fuzz_dir, data):
    # a byte prefix or a single flipped bit of a real artifact either loads
    # or raises ValueError, the one error the CLI turns into an error: line
    name = data.draw(st.sampled_from(sorted(LOADERS)))
    raw = (tiny_dir / name).read_bytes()
    if data.draw(st.booleans()):
        blob = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        bit = data.draw(st.one_of(st.sampled_from(_header_bits(raw)), st.integers(0, 8 * len(raw) - 1)))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        blob = bytes(flipped)
    (fuzz_dir / name).write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            LOADERS[name](fuzz_dir / name)
        except ValueError:
            pass


def test_load_bundle_rejects_every_header_bit_flip(tiny_dir, tmp_path):
    # a flipped bit in the magic or in a net's header changes a layer's
    # layout, or makes the file unreadable: either way load_bundle refuses it
    raw = (tiny_dir / "bundle.ckpt").read_bytes()
    header = list(range(4))
    for start in _net_starts(raw):
        (n_layers,) = struct.unpack_from("<I", raw, start + 4)
        header += range(start, start + 8 + 13 * n_layers)
    for byte in header:
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[byte] ^= 1 << bit
            (tmp_path / "bundle.ckpt").write_bytes(bytes(flipped))
            with pytest.raises(ValueError, match="bundle.ckpt"):
                harness.load_bundle(tiny_config(seed=4242), tmp_path)


@pytest.mark.parametrize("name", sorted(BUNDLE_SECTIONS))
def test_loaders_reject_signaling_nan_weight_without_warning(tiny_dir, tmp_path, name):
    # a signaling NaN warns when cast to float64, so it must be caught before;
    # it is tried as the first weight of each net of the section
    raw = (tiny_dir / "bundle.ckpt").read_bytes()
    starts = _net_starts(raw)
    firsts = [
        starts[i] + 8 + 13 * struct.unpack_from("<I", raw, starts[i] + 4)[0]
        for i in BUNDLE_SECTIONS[name]
    ]
    for first in firsts:
        patched = bytearray(raw)
        patched[first : first + 4] = np.array([0x7F800001], dtype="<u4").tobytes()
        path = tmp_path / "bundle.ckpt"
        path.write_bytes(bytes(patched))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                _load_tiny_bundle(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_train_all_writes_artifacts(tiny_dir):
    assert sorted(p.name for p in tiny_dir.iterdir()) == sorted(ARTIFACTS)
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
    assert loaded.codec_pair1.n_cu == loaded.codec_pair2.n_cu == trained.codec_pair1.n_cu
    assert trained.codec_pair2.n_cu == cfg.codec.n_cu
    assert loaded.scorer.pool == trained.scorer.pool == cfg.detector.pool
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
    assert score(loaded.scorer, field, field) == score(trained.scorer, field, field)


def test_corpus_rebuild_matches_training(tiny_dir, tiny_bundle, tmp_path):
    # a corpus rebuilt from the stored pair 1 reproduces the training corpus,
    # as the calibration table the stored scorer makes of it shows, only if
    # training built it from the same stored weights
    cfg = tiny_config(seed=4242)
    corpus = detector.build_corpus(cfg, harness.make_head(cfg), tiny_bundle.codec_pair1)
    harness._write_calibration(tmp_path / "calibration.csv", cfg, corpus, tiny_bundle.scorer)
    name = "detector_calibration.csv"
    assert (tmp_path / "calibration.csv").read_bytes() == (tiny_dir / name).read_bytes()


def _corpus_from_parts(cfg, head, codec_obj):
    """(ref_pooled, samp_pooled, s_true) of each rank query, built from the
    package's parts with no SemanticSource: query q is the scene of (corpus
    seed, q), masked, packed and encoded here, and sent once at each corpus
    SNR k through the link seeds of (corpus seed, q, k); every array rounded
    to float32 once, as float64."""
    ms = derive_seed(cfg.experiment.master_seed, "corpus")
    pool = cfg.detector.pool
    queries = []
    for q in range(cfg.detector.corpus_queries):
        scene, f = generate_scene(derive_seed(ms, "corpus-scene", q), cfg.scene, head)
        mask = importance_map(f, cfg.mask_cells())
        f_ref = apply_mask(f, mask)
        ref_loss = perception_loss(f_ref, scene, head)
        symbols = codec.encode(codec_obj, pack_nonzero(f, mask))
        samp, s_true = [], []
        for k, snr_db in enumerate(cfg.detector.corpus_snr_db):
            seeds = LinkSeeds(
                pilot=derive_seed(ms, "corpus-pilot", q, k),
                channel=derive_seed(ms, "corpus-chan", q, k),
                noise=derive_seed(ms, "corpus-noise", q, k),
            )
            rx = transmit_symbols(symbols, cfg.ofdm, cfg.channel, snr_db, seeds)
            f_hat = unpack(codec.decode(codec_obj, rx), mask, f.shape)
            samp.append(pool_map(confidence_map(f_hat, head), pool))
            s_true.append(true_similarity(ref_loss, perception_loss(f_hat, scene, head)))
        ref_pooled = pool_map(confidence_map(f_ref, head), pool)
        arrays = (ref_pooled, np.stack(samp), np.asarray(s_true))
        queries.append(tuple(a.astype(np.float32).astype(np.float64) for a in arrays))
    return queries


def test_corpus_matches_its_construction_from_parts(tiny_bundle):
    cfg = tiny_bundle.cfg
    corpus = detector.build_corpus(cfg, tiny_bundle.head, tiny_bundle.codec_pair1)
    expect = _corpus_from_parts(cfg, tiny_bundle.head, tiny_bundle.codec_pair1)
    n_snr, cells = len(cfg.detector.corpus_snr_db), cfg.detector.pool**2
    assert corpus.maps.shape == (len(expect), 1 + n_snr, cells) and corpus.maps.dtype == np.float64
    assert corpus.s_true.shape == (len(expect), n_snr) and corpus.s_true.dtype == np.float64
    assert len(expect) == cfg.detector.corpus_queries
    for maps, s_true, (ref_pooled, samp_pooled, s_expect) in zip(corpus.maps, corpus.s_true, expect):
        assert maps[0].tobytes() == ref_pooled.reshape(cells).tobytes()
        assert maps[1:].tobytes() == samp_pooled.reshape(n_snr, cells).tobytes()
        assert s_true.tobytes() == s_expect.tobytes()
    # the corpus spans more than one similarity, or the check above is weak
    assert len(set(corpus.s_true.reshape(-1).tolist())) > 1


def test_sessions_and_the_corpus_score_only_the_sent_cells(bundle, tmp_path, monkeypatch):
    # sessions and the rank corpus score a reception on the cells its mask
    # sends (scenegen.SentCells.score); the whole-grid functions are its
    # definition and the oracle of its tests, never a session's path. With
    # every binding of them made to raise, a default 5-mode sweep writes the
    # bytes it writes without, and a corpus is still built
    modes, snrs = config_mod.ALL_MODES, bundle.cfg.experiment.snr_db
    harness.run_sweep(bundle, modes, snrs, tmp_path / "free", sessions=2, workers=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a session or the corpus scored a whole grid")

    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "semlink"]
    rebound = 0
    for module in modules:
        for name in ("perception_loss", "confidence_map", "unpack"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
                rebound += 1
    assert rebound >= 3
    harness.run_sweep(bundle, modes, snrs, tmp_path / "guarded", sessions=2, workers=1)
    for name in ("sessions.csv", "summary.csv"):
        assert (tmp_path / "guarded" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()
    small = config_mod.override(bundle.cfg, "detector", corpus_queries=2)
    corpus = detector.build_corpus(small, bundle.head, bundle.codec_pair1)
    assert corpus.s_true.shape == (2, len(small.detector.corpus_snr_db))


@pytest.mark.parametrize(
    "name,loader",
    [
        # a bundle section is cut where its file was, and load_bundle reads it
        pytest.param("codec_pair1.ckpt", _load_tiny_bundle, id="codec_pair1.ckpt-load_codec"),
        pytest.param("scorer.ckpt", _load_tiny_bundle, id="scorer.ckpt-load_scorer"),
    ],
)
def test_truncated_artifacts_raise_value_error(tiny_dir, tmp_path, name, loader):
    data = (tiny_dir / "bundle.ckpt").read_bytes()
    first, last = BUNDLE_SECTIONS[name]
    bounds = [*_net_starts(data), len(data)]
    start, end = bounds[first], bounds[last + 1]
    for size in (start, start + 3, start + 6, start + 20, end - 1):
        path = tmp_path / str(size) / "bundle.ckpt"
        path.parent.mkdir()
        path.write_bytes(data[:size])
        with pytest.raises(ValueError):
            loader(path)


def test_truncated_bundle_raises_value_error(tiny_dir, tmp_path):
    data = (tiny_dir / "bundle.ckpt").read_bytes()
    starts = _net_starts(data)
    for size in sorted({0, 3, len(data) - 1, *starts, *(s + 1 for s in starts)}):
        art = tmp_path / str(size)
        art.mkdir()
        (art / "bundle.ckpt").write_bytes(data[:size])
        with pytest.raises(ValueError, match="bundle.ckpt"):
            harness.load_bundle(tiny_config(seed=4242), art)


def test_load_bundle_rejects_a_trailing_byte(tiny_dir, tmp_path):
    (tmp_path / "bundle.ckpt").write_bytes((tiny_dir / "bundle.ckpt").read_bytes() + b"\0")
    with pytest.raises(ValueError, match="bytes after the last net"):
        harness.load_bundle(tiny_config(seed=4242), tmp_path)


def _set(bundle, section, **values):
    """bundle with `values` set in its config's `section`, as a run sets them."""
    return replace(bundle, cfg=config_mod.override(bundle.cfg, section, **values))


def test_run_sweep_rejects_nonpositive_counts(tiny_bundle, tmp_path):
    for override in ({"sessions": 0}, {"sessions": -3}, {"workers": 0}):
        with pytest.raises(ValueError, match=r"bad value in \[experiment\]"):
            harness.run_sweep(tiny_bundle, ("sim1",), (0.0,), tmp_path, **override)
    # the round budget is the config's, set where a run sets it
    with pytest.raises(ValueError, match="round_budget must be >= 1"):
        _set(tiny_bundle, "experiment", round_budget=0)
    assert not (tmp_path / "sessions.csv").exists()


def test_load_bundle_missing_artifacts(tmp_path):
    with pytest.raises(ValueError, match="missing training artifact: .*bundle.ckpt"):
        harness.load_bundle(tiny_config(seed=4242), tmp_path)


@pytest.mark.parametrize(
    "mismatch", ["config-n_cu", "pair2-n_cu", "pair2-width", "pair2-hidden", "config-hidden"]
)
def test_load_bundle_rejects_codecs_that_do_not_match_the_config(tiny_bundle, tmp_path, mismatch):
    # a codec that sends other than codec.n_cu symbols breaks the equal
    # channel-use budget that config.baseline_cells gives the baselines; any
    # other layout is not the system the config describes
    cfg = tiny_config(seed=4242)
    b = tiny_bundle
    where, key = mismatch.split("-")
    pair2 = b.codec_pair2
    if key == "width":
        pair2 = codec.new_codec(cfg.codec, cfg.packed_length() + 1, seed=1)
    else:
        doubled = replace(cfg.codec, **{key: 2 * getattr(cfg.codec, key)})
        if where == "config":
            cfg = replace(cfg, codec=doubled)
        else:
            pair2 = codec.new_codec(doubled, cfg.packed_length(), seed=1)
    harness._write_bundle(tmp_path / "bundle.ckpt", b.codec_pair1, pair2, b.scorer)
    with pytest.raises(ValueError, match="artifacts do not match config"):
        harness.load_bundle(cfg, tmp_path)


@pytest.mark.parametrize("mismatch", ["scorer-pool", "config-pool", "config-branch_width"])
def test_load_bundle_rejects_a_scorer_that_does_not_match_the_config(tiny_bundle, tmp_path, mismatch):
    cfg = tiny_config(seed=4242)
    b = tiny_bundle
    where, key = mismatch.split("-")
    smaller = replace(cfg.detector, **{key: getattr(cfg.detector, key) // 2})
    scorer = b.scorer
    if where == "config":
        cfg = replace(cfg, detector=smaller)
    else:
        scorer = detector.new_scorer(smaller, seed=1)
    harness._write_bundle(tmp_path / "bundle.ckpt", b.codec_pair1, b.codec_pair2, scorer)
    with pytest.raises(ValueError, match="artifacts do not match config: scorer branch"):
        harness.load_bundle(cfg, tmp_path)


@pytest.mark.parametrize(
    "value,cell",
    [("sim1", "sim1"), (3, "3"), (12345678901, "12345678901"), (18.0, "18"),
     (1 / 3, "0.3333333333"), (np.float64(0.25), "0.25"), (None, ""), (float("nan"), ""),
     (np.nan, "")],
    ids=["str", "int", "long-int", "whole-float", "float", "numpy-float", "none", "nan",
         "numpy-nan"],
)
def test_write_csv_cell_rule(tmp_path, value, cell):
    path = tmp_path / "t.csv"
    harness._write_csv(path, ("a", "b"), [(value, value)])
    assert path.read_bytes() == f"a,b\n{cell},{cell}\n".encode()


def _fresh_session(bundle, mode, snr_db, idx):
    """run_session on a SessionCache of its own."""
    return harness.run_session(harness.SessionCache(bundle, idx), mode, snr_db)


def test_session_record_pairing(tiny_bundle):
    # round 1 uses the same codec, seeds and channel in every semantic mode,
    # so the first-round truth is identical across modes and thresholds
    a = _fresh_session(tiny_bundle, "sim1", 6.0, 3)
    b = _fresh_session(tiny_bundle, "sim2", 6.0, 3)
    c = _fresh_session(_set(tiny_bundle, "detector", ack_threshold=0.999), "sim1", 6.0, 3)
    assert a.s_true[0] == b.s_true[0] == c.s_true[0]
    assert a.s_hat[0] == b.s_hat[0] == c.s_hat[0]


def test_noharq_is_single_round(tiny_bundle):
    rec = _fresh_session(tiny_bundle, "noharq", 6.0, 1)
    ref = _fresh_session(_set(tiny_bundle, "experiment", round_budget=1), "sim1", 6.0, 1)
    assert rec.rounds_used == 1
    assert rec.final_round == 1
    assert rec.s_true[1:] == (None, None)
    assert rec.final_s_true == ref.final_s_true
    assert rec.final_task_loss == ref.final_task_loss


@pytest.mark.parametrize(
    "s_hats,acks,final",
    [((0.2, 0.9, 0.5), (False, False, False), 2), ((0.2, 0.9, 0.95), (False, False, True), 3),
     ((None, None, None), (False, False, False), 3)],
    ids=["best-scored", "acknowledged", "last-unscored"],
)
def test_flatten_reports_the_final_rounds_task_loss(s_hats, acks, final):
    rounds = [
        Reception(np.full(4, float(t)), 10.0 * t, 0.1 * t, s_hat, ack)
        for t, (s_hat, ack) in enumerate(zip(s_hats, acks), start=1)
    ]
    assert not any(acks[:-1])  # only a session's last round can be acknowledged
    rec = harness._flatten(HarqSession(rounds), 0, "sim1", 6.0, 0.5, 3)
    assert rec.final_round == final
    assert rec.final_task_loss == 10.0 * final
    assert rec.final_s_true == 0.1 * final


def test_run_session_rejects_unknown_mode(tiny_bundle):
    with pytest.raises(ValueError, match="unknown mode"):
        _fresh_session(tiny_bundle, "qpsk", 6.0, 0)


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
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sessions.csv", "summary.csv"]


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


ALL_MODES = ("noharq", "sim1", "sim2", "base1", "base2")
SWEEP_SNRS = (0.0, 6.0, 18.0)
# this threshold splits the tiny scorer's sessions: at index 4 the semantic
# sessions stop at round 1 at 18 dB and go on to round 2 at 0 and 6 dB
SWEEP_BETA = 0.9505


def _rounds_from_parts(bundle, mode, snr_db, idx):
    """Every round of the budget of one session at snr_db alone, as
    Receptions with their verdicts, built from the package's parts with no
    SessionCache, no RoundDraws and no SNR batch: the scene, its source, the
    link draws and pilot estimates are all made afresh, round t's link call
    from the seeds of (master seed, idx, t), and each round is its own chain
    of one transmit, decode, receive and score. A semantic round is
    acknowledged when its score exceeds the bundle's threshold, a baseline
    round when the CRC of its combination passes."""
    cfg = bundle.cfg
    ms = cfg.experiment.master_seed
    budget = 1 if mode == "noharq" else cfg.experiment.round_budget
    scene, f = generate_scene(derive_seed(ms, "session-scene", idx), cfg.scene, bundle.head)

    def transmit(link, t, x):
        return link(x, cfg.ofdm, cfg.channel, snr_db, LinkSeeds.derive(ms, "session", idx, t))

    rounds = []
    if mode in harness.SEMANTIC_MODES:
        src = SemanticSource(
            bundle.codec_pair1, bundle.codec_pair2, bundle.scorer, bundle.head,
            scene, f, cfg.mask_cells(), cfg.detector.pool,
        )
        for t in range(1, budget + 1):
            if mode != "sim2" or t == 1:  # sim1 keeps its latest decode
                message = codec.decode(src.first, transmit(transmit_symbols, t, src.sym_first))
            else:  # sim2 sums its decodes
                message = message + codec.decode(src.second, transmit(transmit_symbols, t, src.sym_second))
            pooled, loss, s_true = src.receive(message)
            s_hat = score(src.scorer, src.ref_pooled, pooled)
            rounds.append(Reception(message, float(loss), float(s_true), s_hat,
                                    s_hat > cfg.detector.ack_threshold))
        return rounds
    src = BaselineSource(
        bundle.head, scene, f, cfg.baseline_cells(), cfg.baseline.mod_order, cfg.baseline.code_copies,
    )
    sent = src.codeword if mode == "base1" else src.chunk
    n = src.chunk.size
    combiner = harq.ChaseCombiner(1, n)
    for t in range(1, budget + 1):
        eq, h, noise_var = transmit(transmit_with_state, t, sent)
        for i in range(0, sent.size, n):
            combined = combiner.add([0], eq[None, i : i + n], h[None, i : i + n], noise_var)
        rounds += src.reception(combined)
    return rounds


def _session_from_parts(bundle, mode, snr_db, idx):
    """The record of a session whose rounds are _rounds_from_parts's, up to
    the first acknowledged one."""
    rounds = _rounds_from_parts(bundle, mode, snr_db, idx)
    used = next((t for t, rx in enumerate(rounds, start=1) if rx.acked), len(rounds))
    session = HarqSession(rounds[:used])
    cfg = bundle.cfg
    beta = cfg.detector.ack_threshold if mode in harness.SEMANTIC_MODES else None
    return harness._flatten(session, idx, mode, snr_db, beta, cfg.experiment.round_budget)


@pytest.fixture(scope="module")
def sweep_bundle(tiny_bundle):
    """tiny_bundle with the threshold SWEEP_BETA and a round budget of 2."""
    return _set(_set(tiny_bundle, "detector", ack_threshold=SWEEP_BETA), "experiment", round_budget=2)


@pytest.fixture(scope="module")
def uncached_sweep(sweep_bundle, tmp_path_factory):
    """CSVs of the grid below with every session run on a cache of its own.

    The records also equal those of sessions built from parts, so the
    SessionCache of a lone session is checked too, not only the sharing of
    one.
    """
    out = tmp_path_factory.mktemp("uncached")
    tasks = [(m, s, i) for m in ALL_MODES for s in SWEEP_SNRS for i in range(5)]
    records = [_fresh_session(sweep_bundle, m, s, i) for m, s, i in tasks]
    assert records == [
        _session_from_parts(sweep_bundle, m, s, i) for m, s, i in tasks
    ]
    harness.write_session_csv(out / "sessions.csv", records, 2)
    harness.write_summary_csv(out / "summary.csv", records, ALL_MODES, SWEEP_SNRS, 2)
    return out



@pytest.mark.parametrize("workers", [1, 2])
def test_cached_sweep_matches_uncached_sessions(sweep_bundle, uncached_sweep, tmp_path, workers):
    harness.run_sweep(sweep_bundle, ALL_MODES, SWEEP_SNRS, tmp_path, sessions=5, workers=workers)
    for name in ("sessions.csv", "summary.csv"):
        assert (tmp_path / name).read_bytes() == (uncached_sweep / name).read_bytes(), name


def test_session_with_shared_cache_matches_uncached(tiny_bundle):
    # sessions on a cache that other modes and SNRs filled give the records
    # they give on a fresh one, whether sim2 runs last or first and so fills
    # the reception memo that noharq and sim1 then read; each order starts
    # from a fresh cache
    idx = 2
    bundle = _set(tiny_bundle, "detector", ack_threshold=0.999)
    grid = [(mode, snr_db) for mode in ("noharq", "sim1", "base2", "sim2", "base1") for snr_db in (0.0, 9.0)]
    sim2_last, sim2_first = grid, grid[6:8] + grid[:6] + grid[8:]
    for order in (sim2_last, sim2_first):
        cache = harness.SessionCache(bundle, idx)
        records = {}
        for mode, snr_db in order:
            records[mode, snr_db] = harness.run_session(cache, mode, snr_db)
            assert records[mode, snr_db] == _fresh_session(bundle, mode, snr_db, idx)
        assert records["sim2", 0.0].rounds_used == 3  # beta 0.999 acknowledges nothing
        assert records["base1", 0.0].rounds_used > 1


def _same(a, b) -> bool:
    """a and b are the same float, bit for bit, or both None."""
    return a is b is None or np.float64(a).tobytes() == np.float64(b).tobytes()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_batched_row_is_the_single_snr_reception(sweep_bundle, data):
    # each row of an index's batched rounds is, bit for bit, the reception
    # that the single-SNR chain of _rounds_from_parts makes at the row's SNR,
    # up to the chain's first acknowledged round, whatever the SNR axis: one
    # value, repeated values, any order. A session at any finite SNR, in the
    # config's list or not, records what the chain does
    snrs = data.draw(st.lists(st.sampled_from(SWEEP_SNRS) | st.floats(-5.0, 25.0), min_size=1, max_size=4))
    modes = data.draw(st.lists(st.sampled_from(ALL_MODES), min_size=1, max_size=5, unique=True))
    idx = data.draw(st.integers(0, 4))
    cache = harness.SessionCache(sweep_bundle, idx)
    cfg = sweep_bundle.cfg

    def send(link):
        def sent(t, x, rows):
            draws = cache.draws(t)
            return link(x, cfg.ofdm, cfg.channel, [snrs[b] for b in rows], draws.seeds, draws=draws)
        return sent

    for pipeline, rounds in (
        (harness.SEMANTIC_MODES, lambda *a: cache.semantic.rounds(*a, send(transmit_symbols), SWEEP_BETA)),
        (harness.BASELINE_MODES, lambda *a: cache.baseline.rounds(*a, send(transmit_with_state))),
    ):
        chosen = [m for m in modes if m in pipeline]
        if not chosen:
            continue
        made = rounds(chosen, 2, len(snrs))
        for mode in chosen:
            assert len(made[mode]) == len(snrs)
            for snr_db, row in zip(snrs, made[mode]):
                expect = _rounds_from_parts(sweep_bundle, mode, snr_db, idx)
                assert len(expect) == (1 if mode == "noharq" else 2)
                used = next((t for t, rx in enumerate(expect, start=1) if rx.acked), len(expect))
                assert len(row) == used
                for have, rx in zip(row, expect):
                    assert have.message.tobytes() == rx.message.tobytes()
                    for name in ("task_loss", "s_true", "s_hat"):
                        assert _same(getattr(have, name), getattr(rx, name)), name
                    assert have.acked is rx.acked
    for mode in modes:
        for snr_db in snrs:
            expect = _session_from_parts(sweep_bundle, mode, snr_db, idx)
            assert harness.run_session(cache, mode, snr_db) == expect


def test_each_reception_is_computed_once_per_index(sweep_bundle, monkeypatch):
    # the first session of a pipeline to read an index computes every round
    # that the grid's sessions read, at every SNR of the grid whose session
    # of some mode still reads it, as one batch: one link call, decode and
    # score per (pipeline, round), where pair 1's rounds, sim2's pair-2
    # rounds and each baseline mode's rounds are the rounds, and no later
    # session of the index computes anything. Each round's link is sent only
    # at the SNRs whose session reads that round, and its estimate takes
    # the estimator's line twice per (round, data rows): its noiseless and
    # its noise part
    counts = dict.fromkeys(("send", "send_with_state", "pair1", "pair2", "score", "crc", "line"), 0)
    sent = {"send": 0, "send_with_state": 0}  # SNR rows sent

    def counting(module, name, key):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key(args)] += 1
            if key(args) in sent:
                sent[key(args)] += len(args[3])
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(harness, "transmit_symbols", lambda args: "send")
    counting(harness, "transmit_with_state", lambda args: "send_with_state")
    counting(codec, "decode", lambda args: "pair1" if args[0] is sweep_bundle.codec_pair1 else "pair2")
    counting(harq, "score_pooled", lambda args: "score")
    counting(harq, "crc24", lambda args: "crc")
    counting(rxdsp, "interpolate", lambda args: "line")
    bundle = _set(sweep_bundle, "experiment", modes=ALL_MODES, snr_db=SWEEP_SNRS)  # a budget of 2
    cfg = bundle.cfg
    cache = harness.SessionCache(bundle, 4)  # sim1 and sim2 acknowledge at 18 dB alone in round 1
    for _ in range(2):
        records = [harness.run_session(cache, mode, snr_db) for mode in ALL_MODES for snr_db in SWEEP_SNRS]
        used = {(r.mode, r.snr_db): r.rounds_used for r in records}
        assert [used[m, s] for m in ("sim1", "sim2") for s in SWEEP_SNRS] == [2, 2, 1] * 2
        assert all(used[m, s] == 2 for m in ("base1", "base2") for s in SWEEP_SNRS)
        src = cache.baseline
        data_rows = {-(-n // cfg.ofdm.l_fft) for n in (cfg.codec.n_cu, src.codeword.size, src.chunk.size)}
        assert counts == {
            "send": 3,  # pair 1 in rounds 1 and 2, pair 2 in round 2
            "send_with_state": 4,  # base1 and base2 in rounds 1 and 2
            "pair1": 2, "pair2": 1, "score": 3,
            "crc": 1 + 4,  # the source's frame, then one per baseline round
            "line": 2 * 2 * len(data_rows),
        }
        # pair 1 at all 3 SNRs, then pair 1 and pair 2 at the 2 unacknowledged
        assert sent == {"send": 3 + 2 + 2, "send_with_state": 4 * 3}
    # a session at an SNR outside the grid computes the rounds read there at
    # its SNR alone, once: at 7.5 dB every semantic mode acknowledges round 1
    for _ in range(2):
        assert harness.run_session(cache, "sim2", 7.5).ack_round == 1
        harness.run_session(cache, "noharq", 7.5)
    assert (counts["send"], counts["pair1"], counts["pair2"], counts["score"]) == (4, 3, 1, 4)

    # a noharq-only grid reads round 1 alone
    only = harness.SessionCache(_set(bundle, "experiment", modes=("noharq",)), 6)
    for snr_db in SWEEP_SNRS:
        harness.run_session(only, "noharq", snr_db)
    assert (counts["send"], counts["pair1"], counts["pair2"], counts["score"]) == (5, 4, 1, 5)
    assert set(only._draws) == {1}


def _cached_receptions(cache):
    """Every Reception that the cache's rows hold."""
    return [rx for rows in cache._rows.values() for rx in rows]


def test_shared_receptions_are_read_only(sweep_bundle):
    # sessions of every mode share the cache's receptions and the round
    # draws' kept parts (H, the noise and both estimate parts), so none of
    # their arrays can be written
    cache = harness.SessionCache(sweep_bundle, 1)
    for mode in ALL_MODES:
        harness.run_session(cache, mode, 6.0)
    receptions = _cached_receptions(cache)
    draws = [cache.draws(t) for t in range(1, 3)]
    kept = [a for d in draws for a in (*(x for hz in d._clean.values() for x in hz), *d._b.values(), d._z)]
    assert receptions and kept
    for rx in receptions:
        assert not rx.message.flags.writeable
        with pytest.raises(ValueError):
            rx.message[0] = 0.0
    for a in kept:
        assert not a.flags.writeable


def test_every_round_of_every_mode_is_a_read_only_reception(sweep_bundle, monkeypatch):
    # a session records each round as the Reception it received, scored by
    # the scorer or, in a CRC round, unscored; it stops at its one ACK
    sessions = []
    for name in ("run_semantic_session", "run_baseline_session"):
        def kept(*args, _run=getattr(harness, name)):
            sessions.append(_run(*args))
            return sessions[-1]
        monkeypatch.setattr(harness, name, kept)
    records = [harness.run_session(harness.SessionCache(sweep_bundle, idx), mode, snr_db)
               for idx in range(3) for mode in ALL_MODES for snr_db in SWEEP_SNRS]
    assert len(sessions) == len(records)
    assert {s.acked for s in sessions} == {True, False}
    for session, rec in zip(sessions, records):
        assert session.ack_round in (session.rounds_used, 0)
        assert session.ack_round == (session.rounds_used if session.acked else 0) == rec.ack_round
        assert rec.rounds_used == session.rounds_used == len(session.rounds)
        for rx in session.rounds:
            assert isinstance(rx, Reception)
            assert (rx.s_hat is None) == (rec.mode in harness.BASELINE_MODES)
            assert not rx.message.flags.writeable
            with pytest.raises(FrozenInstanceError):
                rx.s_true = 0.0
        with pytest.raises(FrozenInstanceError):
            session.rounds = session.rounds[:1]


def test_baseline_sweep_needs_no_codecs_or_scorer(tiny_bundle, tmp_path):
    # the baseline modes read only the proxy head, so they run on a bundle
    # without codecs or scorer and write the bytes of the trained bundle;
    # their sessions never build a semantic source or fill the reception memo
    trained = _set(tiny_bundle, "experiment", round_budget=2)
    cfg = trained.cfg
    bare = harness.RuntimeBundle(cfg, harness.make_head(cfg), None, None, None)
    for name, bundle in (("trained", trained), ("bare", bare)):
        harness.run_sweep(bundle, ("base1", "base2"), SWEEP_SNRS, tmp_path / name, sessions=3)
    for name in ("sessions.csv", "summary.csv"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "trained" / name).read_bytes()
    for bundle in (bare, trained):
        cache = harness.SessionCache(bundle, 0)
        for mode in ("base1", "base2"):
            harness.run_session(cache, mode, 0.0)
        assert "semantic" not in vars(cache)
        assert cache._rows and all(mode in harness.BASELINE_MODES for mode, _ in cache._rows)


@pytest.mark.parametrize("mode", ["sim1", "base1"])
@pytest.mark.parametrize("beta", [1.5, 0.0, float("nan")])
def test_sessions_reject_bad_beta(tiny_bundle, mode, beta):
    # a session reads beta from its bundle's config, whose [detector] section
    # rejects a bad one, so no bundle carries it into a session
    with pytest.raises(ValueError, match=r"bad value in \[detector\]: ack_threshold"):
        _set(tiny_bundle, "detector", ack_threshold=beta)
    rec = _fresh_session(_set(tiny_bundle, "detector", ack_threshold=0.999), mode, 6.0, 0)
    assert rec.beta == (0.999 if mode == "sim1" else None)


@pytest.mark.parametrize("mode", ["sim1", "base1"])
@pytest.mark.parametrize("snr", [float("-inf"), float("nan"), float("inf")])
def test_sessions_reject_non_finite_snr(tiny_bundle, tmp_path, mode, snr):
    with pytest.raises(ValueError, match="snr_db"):
        _fresh_session(tiny_bundle, mode, snr, 0)
    with pytest.raises(ValueError, match="snr_db"):
        harness.run_sweep(tiny_bundle, (mode,), (snr,), tmp_path / "out", sessions=1)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("modes", [(), ("sim1", "warp"), ("base1", "base1")])
def test_run_sweep_rejects_bad_mode_lists(tiny_bundle, tmp_path, modes):
    with pytest.raises(ValueError, match="mode"):
        harness.run_sweep(tiny_bundle, modes, (6.0,), tmp_path / "out", sessions=1)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["sim1", "base1"])
def test_run_sweep_rejects_an_empty_snr_list(tiny_bundle, tmp_path, mode):
    with pytest.raises(ValueError, match="empty SNR list"):
        harness.run_sweep(tiny_bundle, (mode,), (), tmp_path / "out", sessions=1)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["sim1", "base1"])
def test_run_sweep_rejects_a_repeated_snr(tiny_bundle, tmp_path, mode):
    # a repeated SNR would run its sessions twice, and summary.csv would
    # count each of them twice in each of its repeated rows
    with pytest.raises(ValueError, match="repeated SNR"):
        harness.run_sweep(tiny_bundle, (mode,), (0.0, 6.0, 0.0), tmp_path / "out", sessions=1)
    assert not (tmp_path / "out").exists()


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


# the package the tests import, put first on the CLI's path, so the CLI runs
# the same code whether or not PYTHONPATH names src/
_SRC = str(Path(harness.__file__).resolve().parents[1])


def _cli(*args, timeout=180):
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "semlink", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# prints the two thread variables as they are when numpy starts to load
_THREADS_AT_NUMPY_LOAD = """
import builtins, os
seen = []
load = builtins.__import__
def spy(name, *args, **kwargs):
    if name.partition(".")[0] == "numpy" and not seen:
        seen.append([os.environ.get(v, "-") for v in {names!r}])
    return load(name, *args, **kwargs)
builtins.__import__ = spy
import semlink.cli
print(*seen[0])
"""


@pytest.mark.parametrize(
    "given,expect",
    [({}, ["1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "-"]), ({"OMP_NUM_THREADS": "2"}, ["-", "2"]),
     ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}, ["4", "4"])],
    ids=["unset", "openblas", "omp", "both"],
)
def test_cli_loads_numpy_with_one_blas_thread_unless_told(given, expect):
    # the CLI sets one BLAS thread before numpy loads; a thread count the
    # caller sets in either variable wins, and the other stays unset
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    code = _THREADS_AT_NUMPY_LOAD.format(names=_THREAD_VARS)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**env, **given}, check=True)
    assert proc.stdout.split() == expect


def test_cli_print_config():
    proc = _cli("print-config")
    assert proc.returncode == 0
    assert proc.stdout == default_config_text()


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


@pytest.mark.parametrize("mode", ["base1", "sim1"])
@pytest.mark.parametrize("beta", ["1.5", "0", "nan"])
def test_cli_sweep_rejects_bad_beta(tiny_dir, tmp_path, mode, beta):
    # checked before any session runs and before the output directory is made
    proc = _tiny_sweep_cli(tmp_path, tiny_dir, "--mode", mode, "--beta", beta)
    _assert_one_error_line(proc)
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("mode", ["base1", "sim1"])
@pytest.mark.parametrize("snr", ["-inf", "nan", "inf"])
def test_cli_sweep_rejects_non_finite_snr(tiny_dir, tmp_path, mode, snr):
    # checked before any session runs and before the output directory is made
    proc = _tiny_sweep_cli(tmp_path, tiny_dir, "--mode", mode, f"--snr={snr}")
    _assert_one_error_line(proc)
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("snr", [",", " , "])
def test_cli_sweep_rejects_an_empty_snr_list(tiny_dir, tmp_path, snr):
    proc = _tiny_sweep_cli(tmp_path, tiny_dir, f"--snr={snr}")
    _assert_one_error_line(proc)
    assert "empty SNR list" in proc.stderr
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("mode", [",", " , "])
def test_cli_sweep_rejects_bad_mode_lists(tiny_dir, tmp_path, mode):
    # checked before the artifacts are loaded and before the output directory is made
    proc = _tiny_sweep_cli(tmp_path, tiny_dir, f"--mode={mode}")
    _assert_one_error_line(proc)
    assert "mode" in proc.stderr
    assert not (tmp_path / "sweep").exists()


def test_cli_rejects_the_dropped_codec_snr_keys(tmp_path):
    # codec.snr_lo and snr_hi were read by nothing; an INI that still lists
    # them fails on the first, as any unknown key does
    text = default_config_text()
    old = "task_weight = 0.5\n"
    assert text.count(old) == 1
    ini = tmp_path / "old.ini"
    ini.write_text(text.replace(old, old + "snr_lo = 0\nsnr_hi = 18\n"))
    out = tmp_path / "out"
    proc = _cli("train", "--config", str(ini), "--out", str(out))
    _assert_one_error_line(proc)
    assert proc.stderr.strip() == "error: unknown field: codec.snr_lo"
    assert not out.exists()


def test_cli_sweep_defaults_to_the_config_modes(tiny_dir, tmp_path):
    text = _render_ini(tiny_config(seed=4242))
    old = "modes = noharq,sim1,sim2,base1"
    assert text.count(old) == 1
    ini = tmp_path / "modes.ini"
    ini.write_text(text.replace(old, "modes = sim1,base1"))
    out = tmp_path / "sweep"
    proc = _cli(
        "sweep", "--config", str(ini), "--out", str(out), "--artifacts", str(tiny_dir),
        "--snr", "0", "--sessions", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert [r["mode"] for r in _read_rows(out / "sessions.csv")] == ["sim1", "base1"]


_TINY_SNR_DB = "snr_db = 0.0,3.0,6.0,9.0,12.0,15.0,18.0"
# values that both train and sweep read
_NON_FINITE = [
    ("speed_kmh = 50.0", "speed_kmh = nan"),
    ("tap_spacing = 5e-07", "tap_spacing = nan"),
    ("tap_decay = 5e-07", "tap_decay = nan"),
    ("carrier_freq = 2800000000.0", "carrier_freq = nan"),
    ("feature_noise = 0.1", "feature_noise = nan"),
    (_TINY_SNR_DB, "snr_db = nan"),
    (_TINY_SNR_DB, "snr_db = "),
]


@pytest.mark.parametrize(
    "command,old,new",
    [
        ("sweep", "ack_threshold = 0.72", "ack_threshold = 1.5"),
        ("sweep", "sharpness = 1.0", "sharpness = 0"),
        ("sweep", "batch_size = 16", "batch_size = 0"),
        ("sweep", "object_rate = 0.06", "object_rate = 0"),
        # a decay that gives NaN tap powers, and taps past the cyclic prefix
        ("sweep", "tap_decay = 5e-07", "tap_decay = 0"),
        ("sweep", "n_taps = 6", "n_taps = 20"),
        ("sweep", "subcarrier_spacing = 15000.0", "subcarrier_spacing = 0"),
        ("train", "ack_threshold = 0.72", "ack_threshold = 1.5"),
        ("train", "batch_queries = 4", "batch_queries = 0"),
        ("train", "holdout = 0.25", "holdout = 1.5"),
        ("train", "pool = 8", "pool = 0"),
        ("train", "branch_width = 16", "branch_width = 0"),
        ("train", "train_samples = 48", "train_samples = 0"),
        ("train", "hidden = 24", "hidden = 0"),
        # non-finite floats, which the INI parser rejects
        *((command, old, new) for command in ("train", "sweep") for old, new in _NON_FINITE),
        ("train", "snr_lo = 9.0", "snr_lo = nan"),
        ("train", "lr = 0.002", "lr = nan"),
        ("train", "task_weight = 0.5", "task_weight = nan"),
        # a learning rate that is not positive, and one at which training diverges
        ("train", "lr = 0.002", "lr = -1"),
        ("train", "lr = 0.0002", "lr = 0"),
        ("train", "lr = 0.002", "lr = 1e6"),
        # configs that cannot run: fail when they load, before any training
        ("train", "n_cu = 32", "n_cu = 30000"),
        ("train", "pilot_symbols = 3,12", "pilot_symbols = "),
        ("train", "n_symbols = 14\npilot_symbols = 3,12", "n_symbols = 2\npilot_symbols = 1,2"),
        # a rank query needs samplings at two SNRs to hold a pair
        ("train", "corpus_snr_db = 0.0,6.0,12.0,18.0", "corpus_snr_db = "),
        ("train", "corpus_snr_db = 0.0,6.0,12.0,18.0", "corpus_snr_db = 9"),
        # epoch counts that would run other epochs than they say, an untrained
        # scorer, and negative weights
        ("train", "recon_epochs = 5", "recon_epochs = -3"),
        ("train", "task_epochs = 2", "task_epochs = -1"),
        ("train", "\nepochs = 6", "\nepochs = 0"),
        ("train", "task_weight = 0.5", "task_weight = -0.5"),
        ("train", "weight_decay = 0.05", "weight_decay = -0.05"),
        # malformed files, which configparser itself rejects
        ("train", "[ofdm]", "[ofdm]\n\n[ofdm]"),
        ("train", "l_fft = 256", "l_fft = 256\nl_fft = 512"),
        ("train", "[experiment]", "l_fft = 256\n[experiment]"),
        # [channel] values that its own section refuses, and one that the
        # J0 series cannot take; each error names [channel]
        ("sweep", "n_taps = 6", "n_taps = 0"),
        ("sweep", "tap_spacing = 5e-07", "tap_spacing = 0"),
        ("sweep", "speed_kmh = 50.0", "speed_kmh = -5"),
        ("sweep", "speed_kmh = 50.0", "speed_kmh = 7500"),
        # a scene grid with no cells, and a carrier that J0's evenness would hide
        ("train", "height = 8", "height = 0"),
        ("train", "\nwidth = 8", "\nwidth = 0"),
        ("train", "carrier_freq = 2800000000.0", "carrier_freq = -2.8e9"),
    ],
    ids=["sweep-ack_threshold", "sweep-sharpness", "sweep-batch_size", "sweep-object_rate",
         "sweep-tap_decay-0", "sweep-n_taps-beyond-cp", "sweep-subcarrier_spacing-0",
         "train-ack_threshold", "train-batch_queries", "train-holdout", "train-pool",
         "train-branch_width", "train-train_samples", "train-hidden",
         *(f"{command}-{new.split(' = ')[0]}-{new.split(' = ')[1] or 'empty'}"
           for command in ("train", "sweep") for _, new in _NON_FINITE),
         "train-snr_lo-nan", "train-lr-nan", "train-task_weight-nan", "train-lr--1",
         "train-detector-lr-0", "train-lr-diverges",
         "train-n_cu-beyond-capacity", "train-pilot_symbols-empty", "train-pilot_symbols-all",
         "train-corpus_snr_db-empty", "train-corpus_snr_db-one", "train-recon_epochs--3",
         "train-task_epochs--1", "train-detector-epochs-0", "train-task_weight-negative",
         "train-weight_decay-negative",
         "train-repeated-section", "train-repeated-key", "train-no-section-header",
         "sweep-n_taps-0", "sweep-tap_spacing-0", "sweep-speed_kmh-negative",
         "sweep-speed_kmh-beyond-j0", "train-height-0", "train-width-0", "train-carrier_freq-negative"],
)
def test_cli_rejects_bad_section_values(tiny_dir, tmp_path, command, old, new):
    text = _render_ini(tiny_config(seed=4242))
    assert text.count(old) == 1
    ini = tmp_path / "bad.ini"
    ini.write_text(text.replace(old, new))
    out = tmp_path / "out"
    extra = ("--artifacts", str(tiny_dir), "--mode", "sim1", "--snr", "0") if command == "sweep" else ()
    proc = _cli(command, "--config", str(ini), "--out", str(out), *extra)
    _assert_one_error_line(proc)
    if new.split(" = ")[0] in {f.name for f in fields(ChannelProfile)}:
        # parsed as channel.<key>, or checked in [channel], alone or against [ofdm]
        assert proc.stderr.startswith(("error: bad value for channel.", "error: bad value in [channel]: ")), proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,old,new",
    [
        (("--sessions", "0"), "sessions = 8", "sessions = 0"),
        (("--budget", "0"), "round_budget = 3", "round_budget = 0"),
        (("--workers", "0"), "workers = 1", "workers = 0"),
        (("--beta", "1.5"), "ack_threshold = 0.72", "ack_threshold = 1.5"),
        (("--snr", "nan"), _TINY_SNR_DB, "snr_db = nan"),
        (("--mode", "warp"), "modes = noharq,sim1,sim2,base1", "modes = warp"),
        (("--mode", "sim1,sim1"), "modes = noharq,sim1,sim2,base1", "modes = sim1,sim1"),
        (("--snr", "0,0"), _TINY_SNR_DB, "snr_db = 0,0"),
    ],
    ids=["sessions", "round_budget", "workers", "ack_threshold", "snr_db", "modes", "modes-repeated",
         "snr_db-repeated"],
)
def test_cli_flag_and_its_ini_key_fail_alike(tiny_dir, tmp_path, flag, old, new):
    # a flag is its INI key's text, parsed and checked in the same place
    text = _render_ini(tiny_config(seed=4242))
    assert text.count(old) == 1
    good = tmp_path / "good.ini"
    good.write_text(text)
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace(old, new))
    out = tmp_path / "out"
    args = ("sweep", "--out", str(out), "--artifacts", str(tiny_dir))
    by_flag = _cli(*args, "--config", str(good), *flag)
    by_key = _cli(*args, "--config", str(bad))
    _assert_one_error_line(by_flag)
    _assert_one_error_line(by_key)
    assert by_flag.stderr == by_key.stderr
    assert not out.exists()


def _copy_artifacts(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for name in ARTIFACTS:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_cli_sweep_rejects_truncated_scorer(tiny_dir, tmp_path):
    art = _copy_artifacts(tiny_dir, tmp_path / "art")
    raw = (tiny_dir / "bundle.ckpt").read_bytes()
    (art / "bundle.ckpt").write_bytes(raw[: _net_starts(raw)[4] + 20])  # inside the scorer branch
    _assert_one_error_line(_tiny_sweep_cli(tmp_path, art))


@pytest.mark.parametrize("fault", ["trailing-byte", "flipped-bit", "codec-hidden", "detector-branch_width"])
def test_cli_sweep_rejects_a_bundle_that_does_not_load(tiny_dir, tmp_path, fault):
    # one error: line, no traceback; a sweep whose [codec] hidden or
    # [detector] branch_width differs from training's is refused as well
    art = _copy_artifacts(tiny_dir, tmp_path / "art")
    raw = bytearray((tiny_dir / "bundle.ckpt").read_bytes())
    cfg = tiny_config(seed=4242)
    if fault == "trailing-byte":
        raw += b"\0"
    elif fault == "flipped-bit":
        raw[_net_starts(bytes(raw))[2] + 8] ^= 1  # pair 2 encoder's input width
    elif fault == "codec-hidden":
        cfg = replace(cfg, codec=replace(cfg.codec, hidden=cfg.codec.hidden + 1))
    else:
        cfg = replace(cfg, detector=replace(cfg.detector, branch_width=cfg.detector.branch_width + 1))
    (art / "bundle.ckpt").write_bytes(bytes(raw))
    ini = tmp_path / "sweep.ini"
    ini.write_text(_render_ini(cfg))
    out = tmp_path / "sweep"
    proc = _cli("sweep", "--config", str(ini), "--out", str(out), "--artifacts", str(art),
                "--mode", "sim1", "--snr", "0")
    _assert_one_error_line(proc)
    assert "bundle.ckpt" in proc.stderr
    assert not out.exists()


def test_cli_sweep_on_an_older_artifact_layout_names_the_bundle(tiny_dir, tmp_path):
    # artifact directories from before the one bundle.ckpt held three
    # checkpoints, which nothing reads now: a sweep on one must be retrained
    art = tmp_path / "art"
    art.mkdir()
    for name in ARTIFACTS[1:]:
        (art / name).write_bytes((tiny_dir / name).read_bytes())
    old = {"codec_pair1.ckpt": b"SCDC", "codec_pair2.ckpt": b"SCDC", "scorer.ckpt": b"SCOR"}
    for name, magic in old.items():
        (art / name).write_bytes(magic)
    proc = _tiny_sweep_cli(tmp_path, art)
    _assert_one_error_line(proc)
    assert "bundle.ckpt" in proc.stderr
    assert not (tmp_path / "sweep").exists()


def test_cli_train_sweep_chain(tmp_path):
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


def _failed_cli_train(tiny_dir, tmp_path, old, new):
    """semlink train into a copy of tiny_dir with `old` replaced by `new` in
    the tiny config fails with one error line, which it returns, and leaves
    the copy as it was and nothing else beside it."""
    art = _copy_artifacts(tiny_dir, tmp_path / "art")
    before = {name: (art / name).read_bytes() for name in ARTIFACTS}
    ini = tmp_path / "bad.ini"
    text = _render_ini(tiny_config(seed=4242))
    assert text.count(old) == 1
    ini.write_text(text.replace(old, new))
    proc = _cli("train", "--config", str(ini), "--out", str(art))
    _assert_one_error_line(proc)
    assert {p.name: p.read_bytes() for p in art.iterdir()} == before
    harness.load_bundle(tiny_config(seed=4242), art)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art", "bad.ini"]
    return proc.stderr


def test_cli_failed_train_leaves_existing_artifacts_unchanged(tiny_dir, tmp_path):
    # training diverges in pair 2, after pair 1 is written: the run's files
    # are staged beside the directory, so none of them reaches it
    _failed_cli_train(tiny_dir, tmp_path, "lr = 0.002", "lr = 1e6")


def test_cli_diverged_ranker_is_one_error_line(tiny_dir, tmp_path):
    # the ranker's pair loss stays finite while its weights outgrow float32;
    # storing them fails in the detector chain, and the CLI prints that
    # error alone, with no overflow warning before it. Adam's first step
    # moves a weight by about lr, so at lr = 1e39 every epoch's weights, the
    # restored best epoch's too, are beyond float32 whatever the corpus;
    # without weight decay they grow by about lr per step, not by a factor
    # of lr * weight_decay, so the float64 nets stay finite
    old, new = "lr = 0.0002\nholdout = 0.25\nweight_decay = 0.05", "lr = 1e39\nholdout = 0.25\nweight_decay = 0.0"
    stderr = _failed_cli_train(tiny_dir, tmp_path, old, new)
    assert "training diverged" in stderr


def _failed_train(tiny_dir, tmp_path, match) -> BaseException:
    """train_all into a copy of tiny_dir raises ValueError matching `match`,
    which it returns, and leaves the copy as it was, no staging directory
    beside it and no child process."""
    (tmp_path / "out").mkdir()
    art = _copy_artifacts(tiny_dir, tmp_path / "out" / "art")
    before = {p.name: p.read_bytes() for p in art.iterdir()}
    with pytest.raises(ValueError, match=match) as info:
        harness.train_all(tiny_config(seed=4242), art)
    assert {p.name: p.read_bytes() for p in art.iterdir()} == before
    assert [p.name for p in art.parent.iterdir()] == ["art"]
    assert multiprocessing.active_children() == []
    return info.value


def _wait_for(path, seconds: float = 20.0) -> bool:
    """Whether path exists within `seconds`, polled every 10 ms."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return path.exists()


def _endless_roundtrip(started):
    """A codec.surrogate_roundtrip that touches `started`, sleeps for a minute
    and fails: pair 2's producer, the one caller, is held mid-stream until it
    is stopped."""

    def roundtrip(*args):
        started.touch()
        time.sleep(60)
        raise AssertionError("the producer was not stopped")

    return roundtrip


def test_train_all_raises_the_detector_error_here(tiny_dir, tmp_path, monkeypatch):
    # the detector chain runs in this process while pair 2's producer makes
    # its draws: the chain's exception is raised as it was, and the producer,
    # held mid-stream, is stopped, not waited for
    started, pid = tmp_path / "draws-started", tmp_path / "corpus-pid"

    def failing_corpus(*args):
        _wait_for(started)
        pid.write_text(str(os.getpid()))
        raise ValueError("boom" if started.exists() else "the corpus failed before the draws began")

    monkeypatch.setattr(codec, "surrogate_roundtrip", _endless_roundtrip(started))
    monkeypatch.setattr(detector, "build_corpus", failing_corpus)
    t0 = time.monotonic()
    assert type(_failed_train(tiny_dir, tmp_path, "^boom$")) is ValueError
    assert time.monotonic() - t0 < 30
    assert int(pid.read_text()) == os.getpid()


def test_train_all_stops_the_producer_when_pair_2_fails(tiny_dir, tmp_path, monkeypatch):
    # pair 2 fails while its producer is mid-stream: the producer is stopped,
    # not waited for
    started = tmp_path / "draws-started"

    def failing_pair2(*args):
        raise ValueError("pair 2 failed" if _wait_for(started) else "pair 2 failed before its draws began")

    monkeypatch.setattr(codec, "surrogate_roundtrip", _endless_roundtrip(started))
    monkeypatch.setattr(codec, "train_harq2_pair", failing_pair2)
    t0 = time.monotonic()
    _failed_train(tiny_dir, tmp_path, "^pair 2 failed$")
    assert time.monotonic() - t0 < 30


def test_train_all_raises_a_detector_error_before_pair_2_ends(tiny_dir, tmp_path, monkeypatch):
    # the detector chain runs before pair 2, so its error ends the run before
    # pair 2's first step
    steps = []
    step = codec._step

    def failing_corpus(*args):
        raise ValueError("boom")

    def counted_step(c, ts, idx, noise, m_first, *args):
        if m_first is not None:
            steps.append(len(idx))
        return step(c, ts, idx, noise, m_first, *args)

    monkeypatch.setattr(detector, "build_corpus", failing_corpus)
    monkeypatch.setattr(codec, "_step", counted_step)
    assert type(_failed_train(tiny_dir, tmp_path, "^boom$")) is ValueError
    assert steps == []


class DrawError(ValueError):
    pass


def test_train_all_raises_the_producer_error(tiny_dir, tmp_path, monkeypatch):
    # pair 2's draws are made in a producer process (only pair 2 has a frozen
    # pair to round-trip); its exception is raised here with its type and
    # message
    pid = tmp_path / "producer-pid"

    def failing_roundtrip(*args):
        pid.write_text(str(os.getpid()))
        raise DrawError("no draw")

    monkeypatch.setattr(codec, "surrogate_roundtrip", failing_roundtrip)
    assert type(_failed_train(tiny_dir, tmp_path, "^no draw$")) is DrawError
    assert int(pid.read_text()) != os.getpid()


def test_train_all_names_the_exit_code_of_a_producer_that_dies(tiny_dir, tmp_path, monkeypatch):
    def dying_roundtrip(*args):
        os._exit(5)

    monkeypatch.setattr(codec, "surrogate_roundtrip", dying_roundtrip)
    _failed_train(tiny_dir, tmp_path, "pair 2 draws process exited with code 5")


def test_train_all_starts_no_child_when_pair_1_fails(tiny_dir, tmp_path, monkeypatch):
    # the producer is forked once pair 1 is stored, and nothing before it
    def failing_pair1(*args):
        raise ValueError("pair 1 failed")

    def refuse(*args):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(codec, "train_no_harq", failing_pair1)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    _failed_train(tiny_dir, tmp_path, "^pair 1 failed$")


def test_train_all_runs_one_child_beside_the_detector_and_pair_2(tiny_dir, tmp_path, monkeypatch):
    # no child runs while pair 1 trains; the producer of pair 2's draws is
    # the one child while the detector chain and pair 2 train
    live = {}
    train_no_harq, build_corpus, step = codec.train_no_harq, detector.build_corpus, codec._step

    def count(stage):
        live.setdefault(stage, len(multiprocessing.active_children()))

    def pair1(*args):
        count("pair 1 starts")
        trained = train_no_harq(*args)
        count("pair 1 ends")
        return trained

    def corpus(*args):
        count("detector chain")
        return build_corpus(*args)

    def counted_step(c, ts, idx, noise, m_first, *args):
        if m_first is not None:
            count("pair 2")
        return step(c, ts, idx, noise, m_first, *args)

    monkeypatch.setattr(codec, "train_no_harq", pair1)
    monkeypatch.setattr(detector, "build_corpus", corpus)
    monkeypatch.setattr(codec, "_step", counted_step)
    harness.train_all(tiny_config(seed=4242), tmp_path)
    assert live == {"pair 1 starts": 0, "pair 1 ends": 0, "detector chain": 1, "pair 2": 1}
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (tiny_dir / name).read_bytes(), name


def _trained_bits(train, monkeypatch):
    """The bytes of the nets, the Adam moments and the curve that train()
    trains, the moments caught as codec._train makes its AdamStates."""
    made, init = [], nnkit.AdamState.init
    monkeypatch.setattr(nnkit.AdamState, "init", lambda net: made.append(init(net)) or made[-1])
    trained, curve = train()
    monkeypatch.undo()
    nets = [a.tobytes() for net in (trained.encoder, trained.decoder) for l in net.layers for a in (l.w, l.b)]
    moments = [a.tobytes() for state in made for pair in state.m + state.v for a in pair]
    assert len(made) == 2 and all(state.step > 0 for state in made)
    return trained, (nets, moments, [a.step for a in made], curve)


def test_streamed_draws_train_as_in_process_draws_bit_for_bit(tmp_path, monkeypatch):
    # train_all trains pair 2 on draws that a producer process streams, and
    # reads none until the detector chain is done. Here this process reads
    # none until the producer has made every item, more bytes than its pipe
    # holds, so the producer runs ahead of a full pipe; either pair trained
    # on the items equals training on step_draws in this process: nets, Adam
    # moments and curves
    cfg = tiny_config(seed=4242)
    ts = harness.build_training_set(cfg, harness.make_head(cfg))
    frozen = None
    for seed, band in ((11, (9.0, 18.0)), (12, (0.0, 6.0))):
        made = tmp_path / f"made-{seed}"

        def made_all():
            yield from codec.step_draws(ts, cfg.codec, seed, band, frozen)
            made.touch()

        def streamed():
            producer = harness._Child("draws", made_all)
            try:
                assert _wait_for(made), "the producer waits for its reader"
                sent = sum(len(pickle.dumps(("item", item))) for item in codec.step_draws(
                    ts, cfg.codec, seed, band, frozen
                ))
                assert sent > fcntl.fcntl(producer.conn.fileno(), fcntl.F_GETPIPE_SZ)
                if frozen is None:
                    trained = codec._train(ts, cfg.codec, seed, producer.items())
                else:
                    trained = codec.train_harq2_pair(frozen, ts, cfg.codec, seed, band, producer.items())
            except BaseException:
                producer.proc.terminate()
                raise
            finally:
                producer.proc.join()
                producer.conn.close()
            assert producer.proc.exitcode == 0
            return trained

        def in_process():
            if frozen is None:
                return codec.train_no_harq(ts, cfg.codec, seed, band)
            return codec.train_harq2_pair(frozen, ts, cfg.codec, seed, band)

        trained, want = _trained_bits(in_process, monkeypatch)
        assert _trained_bits(streamed, monkeypatch)[1] == want
        frozen = trained  # pair 2 trains on the residual of this pair 1


def test_a_producer_whose_reader_has_gone_exits():
    # if train_all's process goes mid-stream, the producer's next send fails;
    # it then makes no more items and exits, where it would otherwise queue
    # items without end
    def endless():
        for i in itertools.count():
            time.sleep(0.001)
            yield i

    producer = harness._Child("endless", endless)
    try:
        assert producer.receive() == 0
        producer.conn.close()
        producer.proc.join(20)
        assert producer.proc.exitcode == 0
    finally:
        producer.proc.terminate()
        producer.proc.join()


def test_a_producer_item_that_does_not_pickle_is_raised_here():
    # the producer pickles each item before its sender thread writes it, so
    # an item that does not pickle is its error, raised here with its type
    producer = harness._Child("draws", lambda: iter([lambda: 0]))
    try:
        with pytest.raises((AttributeError, pickle.PicklingError), match="pickle"):
            producer.receive()
        producer.proc.join(20)
        assert producer.proc.exitcode == 0
    finally:
        producer.proc.terminate()
        producer.proc.join()


def test_train_into_a_file_fails_before_training(tmp_path):
    path = tmp_path / "taken"
    path.write_text("x")
    with pytest.raises(ValueError, match="not a directory"):  # the first stage would log
        harness.train_all(tiny_config(seed=4242), path, log=pytest.fail)
    assert path.read_text() == "x"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_cli_has_no_corpus_command(tmp_path):
    # the corpus lives only inside train; no second command builds it
    out = tmp_path / "out"
    proc = _cli("corpus", "--out", str(out))
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert not out.exists()


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
    assert (a / "bundle.ckpt").read_bytes() != (b / "bundle.ckpt").read_bytes()

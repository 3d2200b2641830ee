"""Golden bytes: sha256 digests of what a small train, the default train and
three sweeps write, among them the full default 5-mode sweep.

A refactor that is meant to keep every output must leave these digests as
they are. A change that alters outputs on purpose updates the digests here
and says so in CHANGES.md.
"""

import hashlib

import pytest

from conftest import tiny_config
from semlink import config as config_mod
from semlink import harness

TRAIN = {
    "bundle.ckpt": "582496c82d899c405e75afeed9f7d166d9d3a5910a4fc6c1ccb620fee2097c95",
    "detector_calibration.csv": "9975efa5ecb2483afaf3c6594c5103b3f1961544759f41d661a7f65a6700494a",
    "train_codecs.csv": "5a4a4f39721b250edd3d6847edc70609bd0d1dcfe5ab2492de33f6eea6148983",
    "train_detector.csv": "04da39bf1515c48aaf456edaed974987e866ba7d43e5156e43c730e053753c02",
}
TINY_SWEEP = {
    "sessions.csv": "ac56fa4a5bb4a8f7bca7471a924832fda3fc9d22372e5a4dc705b06278b04da1",
    "summary.csv": "752729bda1af05127d8cd095543097112702ac8d49e2544a49618478b24bcaac",
}
# the default config's train (the suite's trained_dir) and the full default
# sweep on it (200 sessions of all five modes at every SNR): the run that
# the science numbers in ROADMAP.md quote
DEFAULT_TRAIN = {
    "bundle.ckpt": "cbc85a6d4929d49941d1eed3b34102df020c87e26639514eb6a996910364808b",
    "detector_calibration.csv": "8ed519e26f7aebdb62d165b6de004cb603b20aa34b0440b53f5277e02eb197e0",
    "train_codecs.csv": "f9409ecf1a7d9568deeebcc5fb31184af730232ea2d625e79887774dc825b485",
    "train_detector.csv": "1179d3831542c80bb34f17a8b021051e1e11c1cff46d9e2133ec26f78db6b511",
}
DEFAULT_SWEEP = {
    "sessions.csv": "65fd8ea0b89f88e5da2496c798320bd0eb50f229985c2c8f2480b057e6f3b6dd",
    "summary.csv": "4dde36de1adc2185f0af741189cb5a4d60ffe73fb80a80e88cf344348a561272",
}
DEFAULT_BASELINE_SWEEP = {
    "sessions.csv": "a843ca3a78edba9a123a8b4a166cc33c88cc3c225c34760e4ec663160f2eecbd",
    "summary.csv": "1f2a00dbfbb47f4a8f377c7e000337b64e5943c46ea2afcc955a7c7c44f41d97",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A tiny_config(seed=77) train, and a 5-mode sweep on what it wrote."""
    root = tmp_path_factory.mktemp("golden")
    cfg = tiny_config(seed=77)
    harness.train_all(cfg, root / "art")
    bundle = harness.load_bundle(cfg, root / "art")
    harness.run_sweep(bundle, config_mod.ALL_MODES, cfg.experiment.snr_db, root / "sweep")
    return root


def test_tiny_train_bytes(tiny_run):
    assert _digests(tiny_run / "art", TRAIN) == TRAIN


def test_tiny_sweep_bytes(tiny_run):
    assert _digests(tiny_run / "sweep", TINY_SWEEP) == TINY_SWEEP


def test_default_baseline_sweep_bytes(tmp_path):
    # base1 and base2 need no trained part, so this covers the default
    # config's baseline budget, QAM, CRC and combining on an untrained bundle
    cfg = config_mod.ExperimentConfig()
    bare = harness.RuntimeBundle(cfg, harness.make_head(cfg), None, None, None)
    harness.run_sweep(bare, ("base1", "base2"), cfg.experiment.snr_db, tmp_path, sessions=20)
    assert _digests(tmp_path, DEFAULT_BASELINE_SWEEP) == DEFAULT_BASELINE_SWEEP


def test_default_train_bytes(trained_dir):
    assert _digests(trained_dir, DEFAULT_TRAIN) == DEFAULT_TRAIN


def test_default_sweep_bytes(bundle, tmp_path):
    harness.run_sweep(bundle, config_mod.ALL_MODES, bundle.cfg.experiment.snr_db, tmp_path)
    assert _digests(tmp_path, DEFAULT_SWEEP) == DEFAULT_SWEEP

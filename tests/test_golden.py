"""Golden bytes: sha256 digests of what a small train and two small sweeps write.

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
    "bundle.ckpt": "9237c86c9f5f545f073b54b69d1855cc071a1fe47b5ce563085e11b4f832ed9d",
    "corpus.bin": "391b4e290e98e7065cd6a5947258b6b5014c05102e568ca748b7b60ca8a4350c",
    "detector_calibration.csv": "f1000fc4c85eb085758abb5ac3b3dce800ae8240f582dee917b806d0da473ccd",
    "train_codecs.csv": "5a4a4f39721b250edd3d6847edc70609bd0d1dcfe5ab2492de33f6eea6148983",
    "train_detector.csv": "81d250a01d4a88113a0bfa37f34479777b8b7348ca09b48c88c7d2bf24c49eb2",
}
TINY_SWEEP = {
    "sessions.csv": "4798ec46b84fc59648ba6d42aa977cc099983acd00ba51b9d25b8941e5f183b9",
    "summary.csv": "785b1142afb7087629ad471ecf8ca16d534d2bfdf519920463804975d2e1ee4b",
}
DEFAULT_BASELINE_SWEEP = {
    "sessions.csv": "3cacb00e6afcbae19fdca14df2c6f72b861b060101d0ef382aec19088514f568",
    "summary.csv": "d67466e1790a979d0360b510367464ecd6f5463c419a780e4278c4affb92eba9",
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

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
    "bundle.ckpt": "478a8b990523de031171ad669c7731ac8d13328555f9499cf4790849870ce20d",
    "detector_calibration.csv": "d94c84fc5cf71a0574dfc84971ecd4c50e764c89f0e0fc7b0fc0b95e66483f68",
    "train_codecs.csv": "5a4a4f39721b250edd3d6847edc70609bd0d1dcfe5ab2492de33f6eea6148983",
    "train_detector.csv": "5cc7d61cc47c093e619f75bc469a858a915e238dfafece47ee3b231a28f8a871",
}
TINY_SWEEP = {
    "sessions.csv": "ca7982247f231e9697a1b26eca5e141aeb1213fe63415509efbbff6c457c7ab1",
    "summary.csv": "443aa0314871fff483db021231fda9c95faf9b7813fbea179161cfa9af8be038",
}
# the default config's train (the suite's trained_dir) and the full default
# sweep on it (200 sessions of all five modes at every SNR): the run that
# the science numbers in ROADMAP.md quote
DEFAULT_TRAIN = {
    "bundle.ckpt": "57009b653dfb944e534e2056e5e37edd9a0fdbccab18d39ddf1b1b92f9100bd2",
    "detector_calibration.csv": "7adf0e7d9603d93bedbd8434e10119ce0e9982c0f3a250d244a226805e30ca89",
    "train_codecs.csv": "f9409ecf1a7d9568deeebcc5fb31184af730232ea2d625e79887774dc825b485",
    "train_detector.csv": "4017a6f796b64a9008fafbceedb318aa53658fd3388ad0950cdd8b6e1ce3ae59",
}
DEFAULT_SWEEP = {
    "sessions.csv": "ddba3cc5957c7511cfcd27dd2161305c9366fe4d6aa13cacd513716086806949",
    "summary.csv": "cc12046cbd2f088275c9eba57af6dcac1530d0d78ffa2edf847d99a9b09e62ea",
}
DEFAULT_BASELINE_SWEEP = {
    "sessions.csv": "b31ad04020e91117b7475d8d844d0146062b22ca5bd890cd1ede50509d3e6249",
    "summary.csv": "cd67a372527ca29f8b585c7d97208af63adcffac8a92b7dfee51479cd0f46b48",
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

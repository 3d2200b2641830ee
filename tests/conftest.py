"""Shared fixtures (one trained artifact set reused by the whole suite) and helpers."""

import multiprocessing

# first, before numpy loads: semlink.cli pins one BLAS thread unless the
# caller sets OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, so the tests run the
# CLI's threads (no byte depends on the count, only the wall time)
import semlink.cli  # noqa: F401, I001

import numpy as np
import pytest

from semlink import config as config_mod
from semlink import detector, harness
from semlink.codec import CodecConfig
from semlink.detector import DetectorConfig
from semlink.ofdm import OfdmConfig
from semlink.nnkit import sigmoid
from semlink.scenegen import FOCAL_ALPHA, FOCAL_GAMMA, SceneConfig, focal_loss, smooth_l1


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test after which a child process of this one is still alive:
    train_all's draw producer and run_sweep's pool must be gone when
    they return or raise. A leaked child is stopped, so that the next test
    starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(scope="session")
def default_cfg():
    cfg = config_mod.ExperimentConfig()
    config_mod.validate_config(cfg)
    return cfg


@pytest.fixture(scope="session")
def trained_dir(default_cfg, tmp_path_factory):
    """Full default-config training run; expensive, so trained exactly once."""
    out = tmp_path_factory.mktemp("trained")
    harness.train_all(default_cfg, out)
    return out


@pytest.fixture(scope="session")
def bundle(default_cfg, trained_dir):
    return harness.load_bundle(default_cfg, trained_dir)


def tiny_config(seed: int = 9000) -> config_mod.ExperimentConfig:
    """Scaled-down config for structural tests that must train in seconds."""
    cfg = config_mod.ExperimentConfig(
        experiment=config_mod.ExperimentSection(master_seed=seed, sessions=8),
        ofdm=OfdmConfig(l_fft=256, l_cp=24),
        scene=SceneConfig(channels=5, height=8, width=8),
        codec=CodecConfig(
            cr=0.1,
            n_cu=32,
            hidden=24,
            train_samples=48,
            batch_size=16,
            recon_epochs=5,
            task_epochs=2,
        ),
        detector=DetectorConfig(
            pool=8,
            branch_width=16,
            corpus_queries=8,
            corpus_snr_db=(0.0, 6.0, 12.0, 18.0),
            epochs=6,
            batch_queries=4,
        ),
    )
    config_mod.validate_config(cfg)
    return cfg


def whole_grid_perception_loss_grad(f, scene, head):
    """Loss and gradient of one sample's perception term over its whole
    (C, H, W) feature tensor: the oracle of the batched
    scenegen.perception_loss_grad, which reads out the sent cells alone."""
    reg, logits = head.readout(f)
    active = scene.labels == 1
    n_active = int(active.sum())

    d_reg = np.zeros_like(reg)
    l_local = 0.0
    if n_active > 0:
        e = reg[active] - scene.targets[active]
        l_local = float(smooth_l1(e).sum()) / n_active
        d_reg[active] = np.clip(e, -1.0, 1.0) / n_active

    p = sigmoid(logits)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    l_conf = float(focal_loss(p, scene.labels).sum()) / scene.labels.size
    # d focal / d logit, derived from p = sigmoid(logit)
    pos = FOCAL_ALPHA * (1.0 - pc) ** FOCAL_GAMMA * (FOCAL_GAMMA * pc * np.log(pc) - (1.0 - pc))
    neg = (1.0 - FOCAL_ALPHA) * pc**FOCAL_GAMMA * (pc - FOCAL_GAMMA * (1.0 - pc) * np.log(1.0 - pc))
    d_logit = np.where(scene.labels == 1, pos, neg) / scene.labels.size

    grad = head.adjoint(d_reg, d_logit)
    return l_local + l_conf, grad


def _as_pooled(m, pool: int) -> np.ndarray:
    values = np.asarray(m, dtype=np.float64)
    if values.shape == (pool, pool):
        return values
    return detector.pool_map(values, pool)


def score(scorer, ref, hyp) -> float:
    """Similarity score in (0, 1) for a reference/reconstruction pair of
    confidence maps, pooled to the scorer's grid unless they already are: the
    scorer's output computed from scratch, with no embedding kept between
    calls."""
    ref_emb = detector.embed_reference(scorer, _as_pooled(ref, scorer.pool))
    return float(detector.score_pooled(scorer, ref_emb, _as_pooled(hyp, scorer.pool)))


def to_time(grid: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Orthonormal per-symbol IFFT plus cyclic prefix -> (n_symbols, l_cp + l_fft).

    The simulator works on the resource grid; this and from_time are the
    time-domain view the OFDM and channel oracles check it against. The
    orthonormal scaling makes grid and time-domain body energies match
    (Parseval).
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape != (cfg.n_symbols, cfg.l_fft):
        raise ValueError(f"grid shape {grid.shape} does not match config")
    body = np.fft.ifft(grid, axis=1, norm="ortho")
    return np.concatenate([body[:, cfg.l_fft - cfg.l_cp :], body], axis=1)


def from_time(samples: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Drop the cyclic prefix and FFT back to the resource grid."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (cfg.n_symbols, cfg.l_cp + cfg.l_fft):
        raise ValueError(f"sample block shape {samples.shape} does not match config")
    return np.fft.fft(samples[:, cfg.l_cp :], axis=1, norm="ortho")

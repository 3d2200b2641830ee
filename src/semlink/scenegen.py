"""Synthetic perception scenes and the frozen proxy readout head.

A scene is a sparse grid of active cells, each carrying a 4-dim regression
target and a binary occupancy label. A frozen random linear head reads a
feature tensor out to per-cell regression values and class logits; scenes are
lifted into feature space through the head's adjoint, so a clean feature reads
out to the scene targets exactly and corruption shows up as perception loss.
perception_loss and confidence_map score a whole (C, H, W) feature; they are
the definition. Sessions and the rank corpus receive only the k cells an
importance mask sends, and score them through SentReadout, on the sent cells
alone but summed in the whole-grid order, so its loss and map equal these
bit for bit. Codec training takes the perception term's gradient through
perception_loss_grad, batched over samples and also computed on the sent
cells alone. Both rest on one fact: a cell not sent holds a zero feature, so
its terms depend on the scene alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nnkit import sigmoid
from .tensors import FeatureTensor, ImportanceMask, _frozen

FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.25
SIMILARITY_CAP = 6.0
N_REGRESSION = 4


@dataclass(frozen=True)
class SceneConfig:
    channels: int = 8
    height: int = 16
    width: int = 16
    object_rate: float = 0.06  # mean fraction of active cells
    target_scale: float = 1.0
    # clean features read out to +/- this class logit; kept inside the
    # sigmoid's sensitive range so confidence maps stay informative about
    # reception quality even at high SNR
    logit_amp: float = 2.0
    feature_noise: float = 0.1

    def __post_init__(self):
        if self.channels < N_REGRESSION + 1:
            raise ValueError("need at least 5 channels to carry the readout")
        if not 0.0 < self.object_rate <= 1.0:
            raise ValueError(f"object_rate must be in (0, 1], got {self.object_rate}")


@dataclass(frozen=True)
class Scene:
    targets: np.ndarray  # (H, W, 4)
    labels: np.ndarray  # (H, W) in {0, 1}

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=np.float64)
        labels = np.asarray(self.labels)
        if targets.ndim != 3 or targets.shape[2] != N_REGRESSION:
            raise ValueError(f"targets must be (H, W, {N_REGRESSION})")
        if labels.shape != targets.shape[:2]:
            raise ValueError("labels plane must match targets plane")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be binary")
        targets.setflags(write=False)
        labels = labels.astype(np.uint8)
        labels.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "labels", labels)


class ProxyHead:
    """Frozen random linear readout from C channels to 4 regressions + 1 logit.

    The (C, 5) basis has orthonormal columns, so the adjoint is an exact right
    inverse of the readout: readout(adjoint(y)) == y.
    """

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] != N_REGRESSION + 1:
            raise ValueError(f"basis must be (C, {N_REGRESSION + 1})")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(N_REGRESSION + 1), atol=1e-9):
            raise ValueError("basis columns must be orthonormal")
        basis.setflags(write=False)
        self.basis = basis

    @classmethod
    def from_seed(cls, seed: int, channels: int) -> "ProxyHead":
        if channels < N_REGRESSION + 1:
            raise ValueError("need at least 5 channels")
        rng = np.random.Generator(np.random.PCG64(seed))
        raw = rng.standard_normal((channels, N_REGRESSION + 1))
        q, r = np.linalg.qr(raw)
        # fix the gauge so the head is unique given the seed
        q = q * np.sign(np.diag(r))[None, :]
        return cls(q)

    def readout(self, f: FeatureTensor) -> tuple[np.ndarray, np.ndarray]:
        """Feature (C, H, W) -> regression (H, W, 4) and class logits (H, W)."""
        out = np.einsum("chw,cr->hwr", f.data, self.basis)
        return out[:, :, :N_REGRESSION], out[:, :, N_REGRESSION]

    def adjoint(self, reg: np.ndarray, logits: np.ndarray) -> np.ndarray:
        """Lift per-cell readout values back into a (C, H, W) feature array."""
        y = np.concatenate([reg, logits[:, :, None]], axis=2)
        return np.einsum("hwr,cr->chw", y, self.basis)


def generate_scene(seed: int, cfg: SceneConfig, head: ProxyHead) -> tuple[Scene, FeatureTensor]:
    """Sample a sparse scene and its noisy feature-space embedding.

    The number of active cells is Poisson(object_rate * H * W), clipped to the
    grid; the feature is the head adjoint of the per-cell readout targets plus
    Gaussian nuisance noise.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    h, w = cfg.height, cfg.width
    n_cells = h * w
    n_active = min(int(rng.poisson(cfg.object_rate * n_cells)), n_cells)
    labels = np.zeros(n_cells, dtype=np.uint8)
    if n_active > 0:
        labels[rng.choice(n_cells, size=n_active, replace=False)] = 1
    labels = labels.reshape(h, w)
    targets = np.zeros((h, w, N_REGRESSION))
    targets[labels == 1] = cfg.target_scale * rng.standard_normal((n_active, N_REGRESSION))
    scene = Scene(targets, labels)

    logits = cfg.logit_amp * (2.0 * labels.astype(np.float64) - 1.0)
    data = head.adjoint(targets, logits)
    data = data + cfg.feature_noise * rng.standard_normal((cfg.channels, h, w))
    return scene, FeatureTensor(data)


def smooth_l1(e: np.ndarray) -> np.ndarray:
    """Elementwise smooth-L1: quadratic inside |e| < 1, linear outside."""
    e = np.asarray(e, dtype=np.float64)
    a = np.abs(e)
    return np.where(a < 1.0, 0.5 * e * e, a - 0.5)


def focal_loss(p: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Elementwise focal loss on probabilities with the module's gamma/alpha."""
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    label = np.asarray(label)
    pos = -FOCAL_ALPHA * (1.0 - p) ** FOCAL_GAMMA * np.log(p)
    neg = -(1.0 - FOCAL_ALPHA) * p**FOCAL_GAMMA * np.log(1.0 - p)
    return np.where(label == 1, pos, neg)


def perception_loss(f: FeatureTensor, scene: Scene, head: ProxyHead) -> float:
    """Localization loss on active cells plus focal occupancy loss on all cells.

    Localization is the smooth-L1 sum over the 4 regression dims, averaged over
    active cells; occupancy is the focal loss averaged over every cell.
    """
    reg, logits = head.readout(f)
    active = scene.labels == 1
    n_active = int(active.sum())
    if n_active > 0:
        l_local = float(smooth_l1(reg[active] - scene.targets[active]).sum()) / n_active
    else:
        l_local = 0.0
    p = sigmoid(logits)
    l_conf = float(focal_loss(p, scene.labels).sum()) / scene.labels.size
    return l_local + l_conf


@dataclass(frozen=True)
class SentCells:
    """The scenes of N masked samples, seen from the k cells each mask sends.

    Row i holds scene i on the cells that mask i keeps, in row-major cell
    order (the packed order of tensors.pack_nonzero). A cell that is not sent
    holds a zero feature, which reads out to regression 0 and logit 0, so its
    smooth-L1 and focal terms depend on the scene alone: `rest` is their share
    of perception_loss.
    """

    labels: np.ndarray  # (N, k) occupancy of the sent cells
    targets: np.ndarray  # (N, k, 4) regression targets of the sent cells
    n_active: np.ndarray  # (N,) active cells of the whole scene
    rest: np.ndarray  # (N,) perception loss of the cells not sent
    n_cells: int  # cells of the whole scene, H * W

    def rows(self, idx) -> "SentCells":
        return SentCells(
            self.labels[idx], self.targets[idx], self.n_active[idx], self.rest[idx], self.n_cells
        )


def sent_cells(scenes, masks) -> SentCells:
    """SentCells of scenes[i] under the importance mask masks[i]. Every mask
    must keep the same number of cells (codec.TrainingSet checks it)."""
    cells = np.stack([m.cells for m in masks])
    labels = np.stack([s.labels for s in scenes])
    targets = np.stack([s.targets for s in scenes])
    n, h, w = cells.shape
    k = masks[0].n_selected
    active = labels == 1
    n_active = active.sum(axis=(1, 2))
    unsent = ~cells
    local = np.sum(smooth_l1(targets) * (active & unsent)[..., None], axis=(1, 2, 3))
    conf = np.sum(focal_loss(np.full(labels.shape, 0.5), labels) * unsent, axis=(1, 2))
    rest = local / np.maximum(n_active, 1) + conf / (h * w)
    return SentCells(
        labels[cells].reshape(n, k), targets[cells].reshape(n, k, N_REGRESSION), n_active, rest, h * w
    )


class SentReadout:
    """perception_loss and confidence_map of one scene's features known on
    the k cells one mask sends, equal bit for bit to those of the whole grid.

    A feature is given as message.reshape(C, k), in the packed order of
    tensors.pack_nonzero; every other cell holds a zero feature. The readout
    of such a cell is zero, so its smooth-L1 terms (if active) are those at
    a zero feature and its focal term that at p = 0.5: both are computed once.
    score reads the sent cells out, scatters their terms into copies of these
    arrays and sums each copy as perception_loss sums the whole grid's terms,
    in the same order. perception_loss_grad, which codec training uses, adds
    the terms of the cells not sent as one precomputed sum (SentCells.rest)
    instead, so its loss agrees with perception_loss only up to rounding.
    """

    def __init__(self, scene: Scene, mask: ImportanceMask, head: ProxyHead):
        cells = mask.cells
        active = scene.labels == 1
        self.head = head
        self.cells = cells
        self.k = mask.n_selected
        self.labels = _frozen(scene.labels[cells])  # (k,) occupancy of the sent cells
        self.sent_active = _frozen(self.labels == 1)
        self.targets = _frozen(scene.targets[cells][self.sent_active])
        self.active_rows = _frozen(np.flatnonzero(cells[active]))  # sent cells among the active
        self.local0 = _frozen(smooth_l1(scene.targets[active]))  # (n_active, 4) at a zero feature
        self.conf0 = _frozen(focal_loss(np.full(scene.labels.shape, 0.5), scene.labels))

    def score(self, message: np.ndarray) -> tuple[float, np.ndarray]:
        """The perception loss and the (H, W) confidence map of the feature
        that is `message` on the sent cells and zero elsewhere."""
        f = np.asarray(message, dtype=np.float64).reshape(self.head.basis.shape[0], self.k)
        if not np.isfinite(f).all():
            raise ValueError("feature tensor entries must be finite")
        out = np.einsum("ck,cr->kr", f, self.head.basis)
        l_local = 0.0
        if self.local0.size:
            local = self.local0.copy()
            local[self.active_rows] = smooth_l1(out[self.sent_active, :N_REGRESSION] - self.targets)
            l_local = float(local.sum()) / len(local)
        p = sigmoid(out[:, N_REGRESSION])
        conf = self.conf0.copy()
        conf[self.cells] = focal_loss(p, self.labels)
        cmap = np.full(self.cells.shape, 0.5)
        cmap[self.cells] = p
        return l_local + float(conf.sum()) / conf.size, cmap


def perception_loss_grad(f: np.ndarray, sent: SentCells, head: ProxyHead):
    """Per-sample perception loss of B features known on their sent cells, and
    its gradient on those cells.

    f is (B, C, k): row i's feature on the k cells that sent row i covers, with
    every other cell zero. Returns the (B,) losses, each the perception_loss of
    the row's whole (C, H, W) feature (up to rounding), and their (B, C, k)
    gradient. Only the sent cells are read out; the cells not sent add
    sent.rest.
    """
    out = np.einsum("bck,cr->bkr", f, head.basis)
    reg, logits = out[..., :N_REGRESSION], out[..., N_REGRESSION]
    active = sent.labels == 1
    n_active = np.maximum(sent.n_active, 1)

    e = reg - sent.targets
    l_local = np.sum(smooth_l1(e) * active[..., None], axis=(1, 2)) / n_active
    d_reg = np.where(active[..., None], np.clip(e, -1.0, 1.0) / n_active[:, None, None], 0.0)

    p = sigmoid(logits)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    l_conf = focal_loss(p, sent.labels).sum(axis=1) / sent.n_cells
    # d focal / d logit, derived from p = sigmoid(logit)
    pos = FOCAL_ALPHA * (1.0 - pc) ** FOCAL_GAMMA * (FOCAL_GAMMA * pc * np.log(pc) - (1.0 - pc))
    neg = (1.0 - FOCAL_ALPHA) * pc**FOCAL_GAMMA * (pc - FOCAL_GAMMA * (1.0 - pc) * np.log(1.0 - pc))
    d_logit = np.where(active, pos, neg) / sent.n_cells

    y = np.concatenate([d_reg, d_logit[..., None]], axis=2)
    return sent.rest + l_local + l_conf, np.einsum("bkr,cr->bck", y, head.basis)


def confidence_map(f: FeatureTensor, head: ProxyHead) -> np.ndarray:
    """(H, W) per-cell detection confidences in [0, 1]: the sigmoid of the
    class logits."""
    _, logits = head.readout(f)
    return sigmoid(logits)


def true_similarity(ref_loss: float, hat_loss: float) -> float:
    """Semantic similarity from the perception losses of a reference and a
    reconstruction: the negative log10 of their gap, capped at SIMILARITY_CAP.

    Equal losses saturate at the cap; a loss gap of 10^-k scores k.
    """
    gap = abs(ref_loss - hat_loss)
    if gap == 0.0:
        return float(SIMILARITY_CAP)
    return float(min(SIMILARITY_CAP, -math.log10(gap)))

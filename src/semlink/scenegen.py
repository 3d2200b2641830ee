"""Synthetic perception scenes and the frozen proxy readout head.

A scene is a sparse grid of active cells, each carrying a 4-dim regression
target and a binary occupancy label. A frozen random linear head reads a
feature tensor out to per-cell regression values and class logits; scenes are
lifted into feature space through the head's adjoint, so a clean feature reads
out to the scene targets exactly and corruption shows up as perception loss.
perception_loss and confidence_map score a whole (C, H, W) feature; they are
the definition. A masked reception is scored on the k cells its mask sends
alone (SentCells), by one arithmetic: per batch of messages for sessions
and the rank corpus (SentCells.score, or SentCells.loss where no map is
read), batched with its gradient for codec training
(perception_loss_grad). A cell not sent holds a zero feature, so its terms
depend on the scene alone and are summed once (SentCells.rest): the map is
confidence_map's bit for bit, the loss perception_loss's up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .nnkit import sigmoid
from .tensors import FeatureTensor, _frozen

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
        for name in ("height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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
    p = np.minimum(np.maximum(np.asarray(p, dtype=np.float64), 1e-12), 1.0 - 1e-12)
    q = 1.0 - p
    pos = -FOCAL_ALPHA * q**FOCAL_GAMMA * np.log(p)
    neg = -(1.0 - FOCAL_ALPHA) * p**FOCAL_GAMMA * np.log(q)
    return np.where(np.asarray(label) == 1, pos, neg)


_FOCAL_AT_HALF = focal_loss(np.full(2, 0.5), np.arange(2))  # a cell of label 0, of label 1


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

    Row i holds scene i on the cells that mask i keeps (cells[i]), in
    row-major order (that of tensors.pack_nonzero). A cell not sent holds a
    zero feature, which reads out to regression 0 and logit 0, so `rest`, its
    terms' share of perception_loss, depends on the scene alone. The arrays
    are read-only: the sessions that share a source share its SentCells.
    """

    cells: np.ndarray  # (N, H, W) the masks
    active: np.ndarray  # (N, k) bool occupancy of the sent cells
    targets: np.ndarray  # (N, k, 4) regression targets of the sent cells
    n_active: np.ndarray  # (N,) active cells of the whole scene, at least 1: the localization divisor
    rest: np.ndarray  # (N,) perception loss of the cells not sent

    def __post_init__(self):
        for fld in fields(self):
            object.__setattr__(self, fld.name, _frozen(getattr(self, fld.name)))

    def rows(self, idx) -> "SentCells":
        return SentCells(*(getattr(self, fld.name)[idx] for fld in fields(self)))

    def loss(self, messages: np.ndarray, head: ProxyHead) -> np.ndarray:
        """The perception losses (...) of messages (..., C*k), each row 0's
        feature: the message on its sent cells in packed order, zero
        elsewhere; perception_loss_grad's loss."""
        return self._read(messages, head)[0]

    def score(self, messages: np.ndarray, head: ProxyHead) -> tuple[np.ndarray, np.ndarray]:
        """The losses (loss) and the (..., H, W) confidence maps of messages
        (..., C*k)."""
        loss, p = self._read(messages, head)
        cmap = np.full((len(p), *self.cells.shape[1:]), 0.5)
        cmap[:, self.cells[0]] = p
        return loss, cmap.reshape(loss.shape + cmap.shape[1:])

    def _read(self, messages, head: ProxyHead) -> tuple[np.ndarray, np.ndarray]:
        """The losses (...) of messages (..., C*k) and the (B, k) occupancy
        probabilities of their B rows on the sent cells."""
        messages = np.asarray(messages, dtype=np.float64)
        c, k = head.basis.shape[0], self.active.shape[1]
        if messages.shape[-1:] != (c * k,):
            raise ValueError(f"messages of shape {messages.shape} are not rows of {c * k} values")
        f = messages.reshape(-1, c, k)
        if not np.isfinite(f).all():
            raise ValueError("feature tensor entries must be finite")
        loss, _, p = _sent_terms(f, self, head)
        return loss.reshape(messages.shape[:-1]), p


def sent_cells(scenes, masks) -> SentCells:
    """SentCells of scenes[i] under the importance mask masks[i]. Every mask
    must keep the same number of cells (codec.TrainingSet checks it)."""
    cells = np.stack([m.cells for m in masks])
    labels = np.stack([s.labels for s in scenes])
    targets = np.stack([s.targets for s in scenes])
    n, h, w = cells.shape
    active = labels == 1
    n_active = np.maximum(active.sum(axis=(1, 2)), 1)
    unsent = ~cells
    # a zero feature's terms, formed only where the masks keep them: the
    # arrays of the whole-grid products, summed alike
    local = np.zeros(targets.shape)
    local[active & unsent] = smooth_l1(targets[active & unsent])
    conf = np.where(unsent, _FOCAL_AT_HALF[active.astype(np.intp)], 0.0)
    rest = local.sum(axis=(1, 2, 3)) / n_active + conf.sum(axis=(1, 2)) / (h * w)
    return SentCells(
        cells, active[cells].reshape(n, -1), targets[cells].reshape(n, -1, N_REGRESSION), n_active, rest
    )


def _sent_terms(f: np.ndarray, sent: SentCells, head: ProxyHead):
    """Read out B features (B, C, k) on the cells of the B rows of `sent`:
    the (B,) perception losses (sent.rest plus the sent cells' terms), the
    (B, k, 4) regression errors and the (B, k) occupancy probabilities."""
    out = np.einsum("bck,cr->bkr", f, head.basis)
    e = out[..., :N_REGRESSION] - sent.targets
    l_local = np.sum(smooth_l1(e) * sent.active[..., None], axis=(1, 2)) / sent.n_active
    p = sigmoid(out[..., N_REGRESSION])
    l_conf = focal_loss(p, sent.active).sum(axis=1) / sent.cells[0].size
    return sent.rest + l_local + l_conf, e, p


def perception_loss_grad(f: np.ndarray, sent: SentCells, head: ProxyHead):
    """Per-sample perception loss of B features known on their sent cells, and
    its gradient on those cells.

    f is (B, C, k): row i's feature on the k cells that sent row i covers, with
    every other cell zero. Returns the (B,) losses, each the perception_loss of
    the row's whole (C, H, W) feature (up to rounding) and the loss that
    SentCells.score gives for the row, and their (B, C, k) gradient.
    """
    loss, e, p = _sent_terms(f, sent, head)
    d_reg = np.where(sent.active[..., None], np.clip(e, -1.0, 1.0) / sent.n_active[:, None, None], 0.0)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    # d focal / d logit, derived from p = sigmoid(logit)
    pos = FOCAL_ALPHA * (1.0 - pc) ** FOCAL_GAMMA * (FOCAL_GAMMA * pc * np.log(pc) - (1.0 - pc))
    neg = (1.0 - FOCAL_ALPHA) * pc**FOCAL_GAMMA * (pc - FOCAL_GAMMA * (1.0 - pc) * np.log(1.0 - pc))
    d_logit = np.where(sent.active, pos, neg) / sent.cells[0].size

    y = np.concatenate([d_reg, d_logit[..., None]], axis=2)
    return loss, np.einsum("bkr,cr->bck", y, head.basis)


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

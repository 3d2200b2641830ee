"""Learned semantic encoder/decoder over packed feature vectors.

The encoder maps a packed feature vector to complex channel symbols of unit
mean power, the channel.SIGNAL_POWER that SNR is defined per; the decoder
maps noisy symbols back. Training runs on an additive-white-Gaussian
surrogate channel in two steps: reconstruction loss first, then a weighted
sum of reconstruction and perception loss through the frozen proxy head. The
perception term is read out on the cells each sample sends, in one batch per
step, plus a per-sample constant for the cells it does not send (those hold
a zero feature; scenegen.SentCells), the loss that sessions record. A second
codec pair is trained on the residual of a frozen first pair for incremental
retransmission.
Both pairs are stored in harness.train_all's one bundle.ckpt, and pair 2
trains against nnkit.stored copies of pair 1, the weights as that file holds.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import ClassVar

import numpy as np

from . import nnkit
from .channel import SIGNAL_POWER, noise_variance
from .scenegen import ProxyHead, Scene, SentCells, perception_loss_grad, sent_cells
from .tensors import ImportanceMask


PRELU_ALPHA = 0.25  # slope of the hidden layers' PReLU at initialization


@dataclass(frozen=True)
class CodecConfig:
    cr: float = 0.05  # fraction of scene cells the mask keeps, rounded up to whole cells by mask_cells
    n_cu: int = 256  # complex channel uses per transmission
    hidden: int = 192
    train_samples: int = 512
    batch_size: int = 64
    lr: float = 2e-3
    recon_epochs: int = 80
    task_epochs: int = 30
    task_weight: float = 0.5  # weight on the reconstruction term in step 2

    def __post_init__(self):
        if not 0.0 < self.cr <= 1.0:
            raise ValueError(f"cr must be in (0, 1], got {self.cr}")
        for name in ("n_cu", "hidden", "train_samples", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("recon_epochs", "task_epochs", "task_weight"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")


@dataclass
class SemanticCodec:
    encoder: nnkit.DenseNet
    decoder: nnkit.DenseNet
    signal_power: ClassVar[float] = SIGNAL_POWER  # mean power of encode's symbols

    @property
    def n_in(self) -> int:
        return self.encoder.n_in

    @property
    def n_cu(self) -> int:
        """Complex channel uses per transmission: half the encoder's real outputs."""
        return self.encoder.layers[-1].w.shape[1] // 2


@dataclass
class TrainingCurve:
    recon: list = field(default_factory=list)  # step-1 per-epoch reconstruction loss
    total: list = field(default_factory=list)  # step-2 per-epoch combined loss
    task: list = field(default_factory=list)  # step-2 per-epoch perception term


@dataclass(frozen=True)
class TrainingSet:
    """Packed features plus the scene context needed for the perception term.

    Sample i is scenes[i] sent through masks[i], and every mask keeps the same
    k = packed.shape[1] / C cells. `sent` holds them as sessions score them:
    the masks, the scenes on those k cells and the perception loss of the
    cells not sent. It is computed once here, so each training step reads
    out only the cells the codec sends.
    """

    packed: np.ndarray  # (N, n_in)
    scenes: InitVar[tuple[Scene, ...]]
    masks: InitVar[tuple[ImportanceMask, ...]]
    shape: tuple[int, int, int]
    head: ProxyHead
    sent: SentCells = field(init=False, repr=False)

    def __post_init__(self, scenes, masks):
        if self.packed.ndim != 2 or self.packed.shape[0] != len(scenes):
            raise ValueError("packed rows must match the scene list")
        if len(masks) != len(scenes):
            raise ValueError("one mask per scene required")
        width = self.packed.shape[1]
        for i, mask in enumerate(masks):
            if mask.n_selected * self.shape[0] != width:
                raise ValueError(
                    f"mask {i} keeps {mask.n_selected} cells; packed rows of width {width} "
                    f"over {self.shape[0]} channels need {width / self.shape[0]:g}"
                )
        object.__setattr__(self, "sent", sent_cells(scenes, masks))


def new_codec(cfg: CodecConfig, n_in: int, seed: int) -> SemanticCodec:
    """Fresh codec for n_in-long packed vectors: prelu hidden layers, linear
    heads, paired real outputs."""
    if n_in < 1:
        raise ValueError("n_in must be positive")
    enc = nnkit.init_dense(
        (n_in, cfg.hidden, 2 * cfg.n_cu), ("prelu", "linear"), seed, PRELU_ALPHA
    )
    dec = nnkit.init_dense(
        (2 * cfg.n_cu, cfg.hidden, n_in), ("prelu", "linear"), seed + 1, PRELU_ALPHA
    )
    return SemanticCodec(enc, dec)


def reals_to_complex(x: np.ndarray) -> np.ndarray:
    """Pair consecutive reals into complex symbols along the last axis."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % 2 != 0:
        raise ValueError("need an even number of reals to pair into complex symbols")
    return x[..., 0::2] + 1j * x[..., 1::2]


def complex_to_reals(t: np.ndarray) -> np.ndarray:
    """Inverse of reals_to_complex."""
    t = np.asarray(t, dtype=np.complex128)
    out = np.empty(t.shape[:-1] + (2 * t.shape[-1],), dtype=np.float64)
    out[..., 0::2] = t.real
    out[..., 1::2] = t.imag
    return out


def normalize_power(x: np.ndarray) -> np.ndarray:
    """Scale each row of paired reals (reals_to_complex) to mean power
    SIGNAL_POWER over its width / 2 complex symbols."""
    x = np.asarray(x, dtype=np.float64)
    energy = np.sum(x * x, axis=-1, keepdims=True)
    tiny = energy < np.finfo(np.float64).tiny
    if np.any(tiny):
        # an energy below the normal range has lost precision or underflowed
        # to 0: rescale those rows by their peak first (other rows, and rows
        # that are all zeros, are divided by 1.0, which leaves them exact)
        peak = np.max(np.abs(x), axis=-1, keepdims=True)
        x = x / np.where(tiny & (peak > 0.0), peak, 1.0)
        energy = np.sum(x * x, axis=-1, keepdims=True)
    if np.any(energy == 0.0):
        raise ValueError("cannot power-normalize a zero-energy symbol vector")
    return np.sqrt(x.shape[-1] / 2 * SIGNAL_POWER) * x / np.sqrt(energy)


def _normalize_power_backward(x: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Jacobian-transpose product of normalize_power at x."""
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    r = np.sqrt(r2)
    c = np.sqrt(x.shape[-1] / 2 * SIGNAL_POWER)
    dot = np.sum(x * gy, axis=-1, keepdims=True)
    return c * (gy / r - x * dot / (r2 * r))


def encode(codec: SemanticCodec, m: np.ndarray) -> np.ndarray:
    """Packed vector -> power-normalized complex channel symbols."""
    m = np.asarray(m, dtype=np.float64).reshape(-1)
    if m.size != codec.n_in:
        raise ValueError(f"input has {m.size} entries, encoder expects {codec.n_in}")
    if not np.all(np.isfinite(m)):
        raise ValueError("encoder input must be finite")
    return reals_to_complex(normalize_power(nnkit.forward(codec.encoder, m[None, :])))[0]


def decode(codec: SemanticCodec, y: np.ndarray) -> np.ndarray:
    """Received complex symbols (..., n_cu) -> reconstructed packed vectors.
    Each row runs as a one-row matrix, so its bits do not depend on the batch."""
    y = np.atleast_1d(np.asarray(y, dtype=np.complex128))
    if y.shape[-1] != codec.n_cu:
        raise ValueError(f"received {y.shape[-1]} symbols, decoder expects {codec.n_cu}")
    return nnkit.forward(codec.decoder, complex_to_reals(y)[..., None, :])[..., 0, :]


def surrogate_roundtrip(
    codec: SemanticCodec,
    packed: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
    draws: int = 1,
) -> np.ndarray:
    """Batch encode -> surrogate channel -> decode, without gradients.

    With draws > 1 the encoder runs once, the channel noise of all draws is
    drawn in one call (the same stream as `draws` calls of one draw each),
    the decoder runs once over the draws' stacked rows, and the result is the
    mean of the draws' reconstructions.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    packed = np.atleast_2d(np.asarray(packed, dtype=np.float64))
    xn = normalize_power(nnkit.forward(codec.encoder, packed))
    y = rng.standard_normal((draws,) + xn.shape)
    y *= np.sqrt(noise_variance(snr_db) / 2.0)
    np.add(xn, y, out=y)
    out = nnkit.forward(codec.decoder, y.reshape(-1, xn.shape[1]))
    return out.reshape(draws, xn.shape[0], -1).mean(axis=0)


def _check_finite(value: float, context: str) -> None:
    if not np.isfinite(value):
        raise ValueError(f"training diverged ({context}: loss={value}); lower the lr")


@np.errstate(over="ignore", invalid="ignore")  # divergence: _check_finite reports it
def _step(
    codec: SemanticCodec,
    train_set: TrainingSet,
    idx: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
    states,
    lr: float,
    task_weight: float | None,
    frozen: "SemanticCodec | None",
):
    """One Adam step through encoder, surrogate channel, decoder, on the
    training samples at idx.

    With a task_weight the loss is task_weight * recon + perception; with
    None, pure reconstruction. With `frozen` set, the loss compares against
    the residual of the frozen codec's reconstruction over independent
    channel draws from the same rng, and Adam applies _PAIR2_WEIGHT_DECAY.
    """
    batch = train_set.packed[idx]
    b = batch.shape[0]
    enc_out, enc_tape = nnkit.forward_tape(codec.encoder, batch)
    xn = normalize_power(enc_out)
    y = xn + np.sqrt(noise_variance(snr_db) / 2.0) * rng.standard_normal(xn.shape)
    m_hat, dec_tape = nnkit.forward_tape(codec.decoder, y)

    if frozen is not None:
        # average several frozen-pair draws: same conditional-mean target as a
        # single draw, but the label noise no longer drowns the residual signal
        m_first = surrogate_roundtrip(frozen, batch, snr_db, rng, _FROZEN_DRAWS)
        combined = m_first + m_hat
        err = combined - batch
    else:
        err = m_hat - batch

    recon = float(np.mean(err * err))
    g_mhat = 2.0 * err / err.size
    loss = recon
    task_mean = 0.0

    if task_weight is not None:
        g_mhat = task_weight * g_mhat
        rec = combined if frozen is not None else m_hat
        l_p, g_f = perception_loss_grad(
            rec.reshape(b, train_set.shape[0], -1), train_set.sent.rows(idx), train_set.head
        )
        g_mhat += g_f.reshape(b, -1) / b
        task_mean = float(l_p.sum()) / b
        loss = task_weight * recon + task_mean
    _check_finite(loss, "combined step" if task_weight is not None else "reconstruction step")

    dec_grads, g_y = nnkit.backward(codec.decoder, dec_tape, g_mhat)
    g_x = _normalize_power_backward(enc_out, g_y)
    enc_grads, _ = nnkit.backward(codec.encoder, enc_tape, g_x)

    enc_state, dec_state = states
    weight_decay = _PAIR2_WEIGHT_DECAY if frozen is not None else 0.0
    codec.encoder, _ = nnkit.adam_step(
        codec.encoder, enc_grads, enc_state, lr, weight_decay=weight_decay
    )
    codec.decoder, _ = nnkit.adam_step(
        codec.decoder, dec_grads, dec_state, lr, weight_decay=weight_decay
    )
    return loss, recon, task_mean


_LR_FLOOR = 0.05  # final lr as a fraction of the initial lr (cosine decay)
_FROZEN_DRAWS = 8  # channel draws averaged for the frozen pair's reconstruction
# The correction pair regresses against a residual that is mostly channel
# noise, so an unregularized fit picks up spurious structure that corrupts the
# combined reconstruction as often as it helps. Decoupled weight decay keeps
# only the well-supported part of the correction.
_PAIR2_WEIGHT_DECAY = 3e-3


def _epoch_lr(lr0: float, epoch: int, total: int) -> float:
    if total <= 1:
        return lr0
    floor = _LR_FLOOR * lr0
    return floor + (lr0 - floor) * 0.5 * (1.0 + math.cos(math.pi * epoch / (total - 1)))


def _train(train_set, cfg: CodecConfig, seed: int, snr_band, frozen):
    """A fresh codec trained for cfg.recon_epochs on reconstruction, then for
    cfg.task_epochs on the combined task loss, at SNRs drawn from snr_band,
    with one cosine learning-rate decay over all the epochs."""
    codec = new_codec(cfg, train_set.packed.shape[1], seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    states = (nnkit.AdamState.init(codec.encoder), nnkit.AdamState.init(codec.decoder))
    curve = TrainingCurve()
    n = train_set.packed.shape[0]
    n_batches = len(range(0, n, cfg.batch_size))
    total = cfg.recon_epochs + cfg.task_epochs
    for epoch in range(total):
        task_weight = cfg.task_weight if epoch >= cfg.recon_epochs else None
        lr = _epoch_lr(cfg.lr, epoch, total)
        order = rng.permutation(n)
        ep_loss = ep_recon = ep_task = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            snr_db = rng.uniform(*snr_band)
            loss, recon, task = _step(
                codec, train_set, idx, snr_db, rng, states, lr, task_weight, frozen
            )
            ep_loss += loss
            ep_recon += recon
            ep_task += task
        if task_weight is not None:
            curve.total.append(ep_loss / n_batches)
            curve.task.append(ep_task / n_batches)
        else:
            curve.recon.append(ep_recon / n_batches)
    return codec, curve


def train_no_harq(
    train_set: TrainingSet, cfg: CodecConfig, seed: int, snr_band: tuple[float, float]
) -> tuple[SemanticCodec, TrainingCurve]:
    """Two-step training: reconstruction first, then combined task loss."""
    return _train(train_set, cfg, seed, snr_band, None)


def train_harq2_pair(
    first: SemanticCodec,
    train_set: TrainingSet,
    cfg: CodecConfig,
    seed: int,
    snr_band: tuple[float, float],
) -> tuple[SemanticCodec, TrainingCurve]:
    """Train a second codec on the residual of a frozen first pair.

    The loss compares the sum of both reconstructions against the source, so
    the second pair learns to correct what the first pair misses at the
    (lower) training SNR range.
    """
    if train_set.packed.shape[1] != first.n_in:
        raise ValueError("training set width does not match the frozen codec")
    return _train(train_set, cfg, seed, snr_band, first)

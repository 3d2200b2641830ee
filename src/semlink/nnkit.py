"""Minimal dense-network toolkit: forward, reverse-mode gradients, optimizers.

Everything is float64 internally; checkpoints round to float32 at the file
boundary, and harness.train_all continues from the rounded weights read back
from each checkpoint, so every later stage sees exactly what is stored.
Backward passes walk a tape recorded by forward_tape and must agree with
central finite differences, which the test suite enforces layer by layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("linear", "relu", "prelu", "sigmoid", "tanh")
_ACT_IDS = {name: i for i, name in enumerate(ACTIVATIONS)}
_MAGIC = b"DNET"


@dataclass
class DenseLayer:
    w: np.ndarray  # (n_in, n_out)
    b: np.ndarray  # (n_out,)
    act: str = "linear"
    prelu_alpha: float = 0.25

    def __post_init__(self):
        if self.act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.act!r}; choose from {ACTIVATIONS}")
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ValueError("layer weight must be (n_in, n_out) with bias (n_out,)")


@dataclass
class DenseNet:
    layers: list[DenseLayer]

    @property
    def n_in(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def n_out(self) -> int:
        return self.layers[-1].w.shape[1]

    def n_params(self) -> int:
        return sum(l.w.size + l.b.size for l in self.layers)


@dataclass
class GradTape:
    """Per-layer inputs and pre-activations recorded during forward_tape."""

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]


def init_dense(dims, acts, seed: int, prelu_alpha: float = 0.25) -> DenseNet:
    """Glorot-uniform initialized network; dims has one more entry than acts."""
    if len(dims) != len(acts) + 1:
        raise ValueError("need len(dims) == len(acts) + 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []
    for n_in, n_out, act in zip(dims[:-1], dims[1:], acts):
        limit = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-limit, limit, size=(n_in, n_out))
        b = np.zeros(n_out)
        layers.append(DenseLayer(w, b, act, prelu_alpha))
    return DenseNet(layers)


def _act_forward(z: np.ndarray, act: str, alpha: float) -> np.ndarray:
    if act == "linear":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "prelu":
        return np.where(z >= 0.0, z, alpha * z)
    if act == "sigmoid":
        # split by sign to keep exp() in the underflow-safe half
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if act == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {act!r}")


def _act_backward(z: np.ndarray, act: str, alpha: float) -> np.ndarray:
    if act == "linear":
        return np.ones_like(z)
    if act == "relu":
        return (z > 0.0).astype(np.float64)
    if act == "prelu":
        return np.where(z >= 0.0, 1.0, alpha)
    if act == "sigmoid":
        s = _act_forward(z, "sigmoid", alpha)
        return s * (1.0 - s)
    if act == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ValueError(f"unknown activation {act!r}")


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Run the network on a (batch, n_in) array."""
    a = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        a = _act_forward(a @ layer.w + layer.b, layer.act, layer.prelu_alpha)
    return a


def forward_tape(net: DenseNet, x: np.ndarray) -> tuple[np.ndarray, GradTape]:
    """Forward pass that records the tape needed by backward."""
    a = np.asarray(x, dtype=np.float64)
    inputs, preacts = [], []
    for layer in net.layers:
        inputs.append(a)
        z = a @ layer.w + layer.b
        preacts.append(z)
        a = _act_forward(z, layer.act, layer.prelu_alpha)
    return a, GradTape(inputs, preacts)


def backward(net: DenseNet, tape: GradTape, gy: np.ndarray):
    """Reverse pass: upstream (batch, n_out) -> ([(dw, db) per layer], gx)."""
    g = np.asarray(gy, dtype=np.float64)
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        dz = g * _act_backward(tape.preacts[i], layer.act, layer.prelu_alpha)
        grads[i] = (tape.inputs[i].T @ dz, dz.sum(axis=0))
        g = dz @ layer.w.T
    return grads, g


def zeros_like_grads(net: DenseNet):
    return [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in net.layers]


def add_grads(acc, grads, scale: float = 1.0):
    """acc += scale * grads, in place, returning acc."""
    for (aw, ab), (gw, gb) in zip(acc, grads):
        aw += scale * gw
        ab += scale * gb
    return acc


def sgd_step(net: DenseNet, grads, lr: float, momentum: float = 0.0, velocity=None):
    """Plain/momentum SGD; returns (updated net, updated velocity)."""
    if velocity is None:
        velocity = zeros_like_grads(net)
    layers = []
    for layer, (gw, gb), (vw, vb) in zip(net.layers, grads, velocity):
        vw2 = momentum * vw + gw
        vb2 = momentum * vb + gb
        layers.append(
            DenseLayer(layer.w - lr * vw2, layer.b - lr * vb2, layer.act, layer.prelu_alpha)
        )
        vw[...] = vw2
        vb[...] = vb2
    return DenseNet(layers), velocity


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def init(cls, net: DenseNet) -> "AdamState":
        return cls(zeros_like_grads(net), zeros_like_grads(net), 0)


def adam_step(
    net: DenseNet,
    grads,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
):
    """Adam update with bias correction; returns (updated net, state).

    weight_decay is decoupled (applied directly to the weights, not through
    the moment estimates) and never touches biases.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    layers = []
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(net.layers, grads, state.m, state.v):
        mw[...] = beta1 * mw + (1 - beta1) * gw
        mb[...] = beta1 * mb + (1 - beta1) * gb
        vw[...] = beta2 * vw + (1 - beta2) * gw * gw
        vb[...] = beta2 * vb + (1 - beta2) * gb * gb
        w = layer.w - lr * (mw / c1) / (np.sqrt(vw / c2) + eps) - lr * weight_decay * layer.w
        b = layer.b - lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        layers.append(DenseLayer(w, b, layer.act, layer.prelu_alpha))
    return DenseNet(layers), state


def write_net(fh, net: DenseNet) -> None:
    """Serialize one net into an open binary stream (embeddable in containers)."""
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", len(net.layers)))
    for layer in net.layers:
        fh.write(
            struct.pack(
                "<IIBf",
                layer.w.shape[0],
                layer.w.shape[1],
                _ACT_IDS[layer.act],
                layer.prelu_alpha,
            )
        )
    for layer in net.layers:
        fh.write(layer.w.astype("<f4").tobytes())
        fh.write(layer.b.astype("<f4").tobytes())


def read_header(fh, fmt: str, what: str) -> tuple:
    """Read exactly struct.calcsize(fmt) bytes and unpack them; a short read
    raises ValueError naming `what`, the file being read."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated {what}: header needs {size} bytes, found {len(raw)}")
    return struct.unpack(fmt, raw)


def read_net(fh) -> DenseNet:
    """Inverse of write_net."""
    if fh.read(4) != _MAGIC:
        raise ValueError("not a dense-net checkpoint")
    (n_layers,) = read_header(fh, "<I", "dense-net checkpoint")
    headers = []
    for _ in range(n_layers):
        n_in, n_out, act_id, alpha = read_header(fh, "<IIBf", "dense-net checkpoint")
        if act_id >= len(ACTIVATIONS):
            raise ValueError(f"unknown activation id {act_id}")
        headers.append((n_in, n_out, ACTIVATIONS[act_id], alpha))
    layers = []
    for n_in, n_out, act, alpha in headers:
        w = np.frombuffer(fh.read(4 * n_in * n_out), dtype="<f4")
        b = np.frombuffer(fh.read(4 * n_out), dtype="<f4")
        if w.size != n_in * n_out or b.size != n_out:
            raise ValueError("truncated dense-net checkpoint")
        layers.append(
            DenseLayer(w.astype(np.float64).reshape(n_in, n_out), b.astype(np.float64), act, float(alpha))
        )
    return DenseNet(layers)


def save_net(path, net: DenseNet) -> None:
    """Checkpoint: magic, layer dims and activation tags, float32 LE parameters."""
    with open(path, "wb") as fh:
        write_net(fh, net)


def load_net(path) -> DenseNet:
    """Load a checkpoint written by save_net."""
    with open(path, "rb") as fh:
        return read_net(fh)

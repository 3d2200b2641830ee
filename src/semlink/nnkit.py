"""Minimal dense-network toolkit: forward, reverse-mode gradients, optimizers.

Everything is float64 internally; write_net rounds to float32 at the stream
boundary. harness.train_all stores every trained net in one bundle.ckpt and
continues each stage from stored(net), the net as that checkpoint holds it.
Backward passes walk a tape recorded by forward_tape and must agree with
central finite differences, which the test suite enforces layer by layer.
adam_step updates a net's weights and its optimizer state in place, so a
caller that wants to keep an earlier set of weights must copy the net.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("linear", "relu", "prelu", "sigmoid")
_ACT_IDS = {name: i for i, name in enumerate(ACTIVATIONS)}
_MAGIC = b"DNET"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator epsilon


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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in one pass: e = exp(-|z|), which cannot overflow,
    gives 1/(1+e) for z >= 0 and e/(1+e) below. The sign is chosen with
    where, not abs, so that a NaN keeps its sign bit."""
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def _act_forward(z: np.ndarray, act: str, alpha: float) -> np.ndarray:
    if act == "linear":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "prelu":
        return np.where(z >= 0.0, z, alpha * z)
    if act == "sigmoid":
        return sigmoid(z)
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


def add_grads(acc, grads):
    """acc += grads, in place, returning acc."""
    for (aw, ab), (gw, gb) in zip(acc, grads):
        aw += gw
        ab += gb
    return acc


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0
    # adam_step's working memory: two rows as long as the net's largest
    # weight, made on the first step. It is kept because a buffer of that
    # size freed every step makes glibc hand its pages back to the kernel and
    # fault them in again on the next step.
    scratch: np.ndarray | None = None

    @classmethod
    def init(cls, net: DenseNet) -> "AdamState":
        return cls(zeros_like_grads(net), zeros_like_grads(net), 0)


def adam_step(
    net: DenseNet,
    grads,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
):
    """Adam update with bias correction; updates net and state in place and
    returns them as (net, state).

    weight_decay is decoupled (applied directly to the weights, not through
    the moment estimates) and never touches biases. Each weight becomes
    w - lr*(m/c1)/(sqrt(v/c2)+ADAM_EPS) - (lr*weight_decay)*w, evaluated in that
    order; the decay term is subtracted even when weight_decay is 0, so a
    signed zero ends up as the textbook expression leaves it.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    if state.scratch is None:
        state.scratch = np.empty((2, max(layer.w.size for layer in net.layers)))
    coef = (lr, c1, c2)
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(net.layers, grads, state.m, state.v):
        _adam_update(layer.w, gw, mw, vw, coef, lr * weight_decay, state.scratch)
        _adam_update(layer.b, gb, mb, vb, coef, None, state.scratch)
    return net, state


def _adam_update(p, g, m, v, coef, decay, scratch) -> None:
    """One Adam update of parameter p and its moments m, v, all in place.

    coef is (lr, c1, c2). Two rows of scratch hold the
    intermediates; every product and sum is the one the expression in
    adam_step's docstring evaluates, so the result is bitwise that of the
    out-of-place formula. decay None skips the decay term.
    """
    lr, c1, c2 = coef
    a, step = (row[: p.size].reshape(p.shape) for row in scratch)
    np.multiply(g, 1 - ADAM_BETA1, out=a)
    m *= ADAM_BETA1
    m += a
    np.multiply(g, 1 - ADAM_BETA2, out=a)
    a *= g
    v *= ADAM_BETA2
    v += a
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= lr
    step /= a
    if decay is not None:
        np.multiply(p, decay, out=a)  # from p before this step moves it
    p -= step
    if decay is not None:
        p -= a


def write_net(fh, net: DenseNet) -> None:
    """Serialize one net into an open binary stream (embeddable in containers).

    Every weight must round to a finite float32, or ValueError says that
    training diverged; nothing is written then. A diverged ranker is caught
    here only: its weights outgrow float32 while its loss stays finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        weights = [part.astype("<f4") for layer in net.layers for part in (layer.w, layer.b)]
    if not all(np.all(np.isfinite(part)) for part in weights):
        raise ValueError("training diverged: a weight does not round to a finite float32; lower the lr")
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
    for part in weights:
        fh.write(part.tobytes())


def layout(net: DenseNet) -> tuple:
    """What write_net stores of a net besides its weights: per layer the weight
    shape, the activation and the PReLU slope, the slope rounded to float32 as
    stored."""
    return tuple((l.w.shape, l.act, float(np.float32(l.prelu_alpha))) for l in net.layers)


def stored(net: DenseNet) -> DenseNet:
    """The net as a checkpoint holds it: write_net then read_net in memory,
    so its weights are rounded to float32."""
    buf = io.BytesIO()
    write_net(buf, net)
    buf.seek(0)
    return read_net(buf)


def _read_header(fh, fmt: str) -> tuple:
    """Read exactly struct.calcsize(fmt) bytes and unpack them; a short read
    raises ValueError."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"truncated dense-net checkpoint: header needs {size} bytes, found {len(raw)}")
    return struct.unpack(fmt, raw)


def _read_floats(fh, count: int) -> np.ndarray:
    """Read count little-endian float32 values as float64.

    The size is checked against the bytes left in the file before anything
    is read, so a corrupt count cannot request more memory than the file
    holds; every value must be finite. Both failures raise ValueError.
    """
    pos = fh.tell()
    left = fh.seek(0, 2) - pos
    fh.seek(pos)
    if 4 * count > left:
        raise ValueError(f"truncated dense-net checkpoint: needs {4 * count} bytes, {left} left")
    values = np.frombuffer(fh.read(4 * count), dtype="<f4")
    # checked before the cast: casting a signaling NaN raises an invalid-value
    # floating-point warning
    if not np.all(np.isfinite(values)):
        raise ValueError("corrupt dense-net checkpoint: non-finite value")
    return values.astype(np.float64)


def read_net(fh) -> DenseNet:
    """Inverse of write_net; a corrupt or truncated net raises ValueError."""
    if fh.read(4) != _MAGIC:
        raise ValueError("not a dense-net checkpoint")
    (n_layers,) = _read_header(fh, "<I")
    if n_layers == 0:
        raise ValueError("corrupt dense-net checkpoint: no layers")
    headers = []
    for _ in range(n_layers):
        n_in, n_out, act_id, alpha = _read_header(fh, "<IIBf")
        if act_id >= len(ACTIVATIONS):
            raise ValueError(f"unknown activation id {act_id}")
        if n_in == 0 or n_out == 0 or not np.isfinite(alpha):
            raise ValueError("corrupt dense-net checkpoint: zero dimension or non-finite slope")
        if headers and n_in != headers[-1][1]:
            raise ValueError("corrupt dense-net checkpoint: layer sizes do not chain")
        headers.append((n_in, n_out, ACTIVATIONS[act_id], alpha))
    layers = []
    for n_in, n_out, act, alpha in headers:
        w = _read_floats(fh, n_in * n_out).reshape(n_in, n_out)
        b = _read_floats(fh, n_out)
        layers.append(DenseLayer(w, b, act, float(alpha)))
    return DenseNet(layers)

"""Dense-network toolkit: forward/backward oracles, optimizers, checkpoints."""

import copy
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semlink.nnkit import (
    ACTIVATIONS,
    AdamState,
    DenseLayer,
    DenseNet,
    adam_step,
    backward,
    forward,
    forward_tape,
    init_dense,
    layout,
    read_net,
    sigmoid,
    stored,
    write_net,
)


def test_forward_identity_linear_layer():
    net = DenseNet([DenseLayer(np.eye(4), np.zeros(4), "linear")])
    x = np.random.default_rng(0).standard_normal((6, 4))
    assert np.array_equal(forward(net, x), x)


def test_forward_zero_relu():
    net = DenseNet([DenseLayer(np.zeros((3, 5)), np.zeros(5), "relu")])
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert np.all(forward(net, x) == 0.0)


def test_forward_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    net = init_dense((3, 4, 2), ("relu", "linear"), seed=7)
    x = rng.standard_normal((5, 3))
    got = forward(net, x)
    for b in range(5):
        h = np.zeros(4)
        for j in range(4):
            z = net.layers[0].b[j]
            for i in range(3):
                z += x[b, i] * net.layers[0].w[i, j]
            h[j] = max(z, 0.0)
        for j in range(2):
            z = net.layers[1].b[j]
            for i in range(4):
                z += h[i] * net.layers[1].w[i, j]
            assert got[b, j] == pytest.approx(z, rel=1e-12)


def test_forward_is_pure():
    net = init_dense((3, 6, 2), ("sigmoid", "linear"), seed=3)
    x = np.random.default_rng(4).standard_normal((7, 3))
    assert np.array_equal(forward(net, x), forward(net, x))


def test_backward_linear_closed_form():
    # squared loss mean over batch: dL/dW = 2 X^T (XW - Y) / batch
    rng = np.random.default_rng(5)
    net = init_dense((4, 3), ("linear",), seed=11)
    x = rng.standard_normal((10, 4))
    y = rng.standard_normal((10, 3))
    out, tape = forward_tape(net, x)
    grads, _ = backward(net, tape, 2.0 * (out - y) / 10)
    expect = 2.0 * x.T @ (x @ net.layers[0].w + net.layers[0].b - y) / 10
    assert np.allclose(grads[0][0], expect, rtol=1e-12)


def test_backward_zero_upstream():
    net = init_dense((3, 5, 2), ("prelu", "sigmoid"), seed=12)
    x = np.random.default_rng(6).standard_normal((4, 3))
    out, tape = forward_tape(net, x)
    grads, gx = backward(net, tape, np.zeros_like(out))
    for gw, gb in grads:
        assert np.all(gw == 0.0) and np.all(gb == 0.0)
    assert np.all(gx == 0.0)


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_backward_matches_central_differences(act):
    rng = np.random.default_rng(13)
    net = init_dense((3, 4, 4, 2), (act, act, "linear"), seed=21)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 2))

    def loss(n):
        d = forward(n, x) - y
        return float(np.sum(d * d))

    out, tape = forward_tape(net, x)
    grads, _ = backward(net, tape, 2.0 * (out - y))
    h = 1e-5
    for li, layer in enumerate(net.layers):
        for arr, garr in ((layer.w, grads[li][0]), (layer.b, grads[li][1])):
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for k in idxs:
                orig = flat[k]
                flat[k] = orig + h
                up = loss(net)
                flat[k] = orig - h
                dn = loss(net)
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                assert garr.reshape(-1)[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


SIGNALING_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000001))[0]


def _split_sigmoid(z):
    """The logistic function split by sign, each half computed on its own
    elements: the oracle of the one-pass sigmoid."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, np.nan, -np.nan, SIGNALING_NAN, 5e-324, -5e-324, 709.8, -745.2]),
        ),
        max_size=50,
    ),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=300, deadline=None)
def test_sigmoid_matches_the_split_oracle_bit_for_bit(values, dtype):
    # a float64 past float32's range casts to inf, and a signaling NaN warns
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.array(values, dtype=np.float64).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    expect = _split_sigmoid(z)
    assert got.dtype == expect.dtype == dtype
    assert got.tobytes() == expect.tobytes()


def test_sigmoid_is_stable_at_extremes():
    z = np.array([-np.inf, -800.0, -0.0, 0.0, 800.0, np.inf])
    with np.errstate(over="raise", invalid="raise"):
        out = sigmoid(z)
    assert np.array_equal(out, [0.0, 0.0, 0.5, 0.5, 1.0, 1.0])


def test_adam_first_step_matches_scalar_reference():
    # step 1 with bias correction: update = lr * g / (|g| + eps), i.e. ~ lr * sign(g)
    w0, g, lr, eps = 1.5, -0.37, 0.01, 1e-8
    net = DenseNet([DenseLayer(np.array([[w0]]), np.array([0.0]), "linear")])
    state = AdamState.init(net)
    stepped, _ = adam_step(net, [(np.array([[g]]), np.array([0.0]))], state, lr)
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expect = w0 - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert stepped.layers[0].w[0, 0] == pytest.approx(expect, rel=1e-12)
    assert stepped.layers[0].w[0, 0] == pytest.approx(w0 + lr, rel=1e-6)


def test_adam_weight_decay_decoupled_and_spares_bias():
    rng = np.random.default_rng(14)
    net = init_dense((3, 2), ("linear",), seed=2)
    w0, b0 = net.layers[0].w.copy(), net.layers[0].b.copy()  # adam_step works in place
    zero = [(np.zeros((3, 2)), np.zeros(2))]
    wd, lr = 0.1, 0.05
    stepped, _ = adam_step(net, zero, AdamState.init(net), lr, weight_decay=wd)
    # zero gradient: the only movement is the decoupled decay on weights
    assert np.allclose(stepped.layers[0].w, (1 - lr * wd) * w0, rtol=1e-12)
    assert np.array_equal(stepped.layers[0].b, b0)


def _adam_step_reference(net, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """The out-of-place Adam update adam_step must match bit for bit."""
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


def _bits(net, state):
    arrays = [a for l in net.layers for a in (l.w, l.b)]
    arrays += [a for pair in state.m + state.v for a in pair]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("weight_decay", [0.0, 3e-3])
def test_adam_in_place_matches_reference(weight_decay):
    rng = np.random.default_rng(21)
    net = init_dense((5, 7, 3), ("prelu", "linear"), seed=8)
    # signed zeros: w - step - 0*w turns -0.0 into +0.0, so the decay term
    # must be applied even when weight_decay is 0
    net.layers[0].w[0, :3] = -0.0
    net.layers[1].b[1] = -0.0
    ref_net = copy.deepcopy(net)
    state, ref_state = AdamState.init(net), AdamState.init(net)
    for step in range(6):
        grads = [(rng.standard_normal(l.w.shape), rng.standard_normal(l.b.shape))
                 for l in net.layers]
        if step == 0:
            grads[0][0][0, :3] = 0.0
            grads[1][1][1] = 0.0
        ref_net, ref_state = _adam_step_reference(
            ref_net, grads, ref_state, 0.01, weight_decay=weight_decay
        )
        out, out_state = adam_step(net, grads, state, 0.01, weight_decay=weight_decay)
        assert out is net and out_state is state
        assert _bits(net, state) == _bits(ref_net, ref_state)
        assert state.step == ref_state.step == step + 1
        for layer, (gw, gb) in zip(net.layers, grads):
            assert not np.shares_memory(layer.w, gw) and not np.shares_memory(layer.b, gb)


def test_checkpoint_round_trip_is_float32_exact():
    net = init_dense((5, 7, 3), ("prelu", "sigmoid"), seed=31, prelu_alpha=0.1)
    buf = io.BytesIO()
    write_net(buf, net)
    buf.seek(0)
    back = read_net(buf)
    assert [l.act for l in back.layers] == [l.act for l in net.layers]
    for orig, loaded in zip(net.layers, back.layers):
        assert np.array_equal(loaded.w, orig.w.astype(np.float32).astype(np.float64))
        assert np.array_equal(loaded.b, orig.b.astype(np.float32).astype(np.float64))
        assert loaded.prelu_alpha == pytest.approx(orig.prelu_alpha)


def test_stored_is_the_net_a_checkpoint_holds():
    # stored(net) is write_net then read_net; its layout is the one a
    # checkpoint of net has, the slope included: 0.1 is not a float32 value
    net = init_dense((5, 7, 3), ("prelu", "sigmoid"), seed=31, prelu_alpha=0.1)
    buf = io.BytesIO()
    write_net(buf, net)
    buf.seek(0)
    back, copy_ = read_net(buf), stored(net)
    for a, b in zip(back.layers, copy_.layers):
        assert (a.act, a.prelu_alpha) == (b.act, b.prelu_alpha)
        assert a.w.tobytes() == b.w.tobytes() and a.b.tobytes() == b.b.tobytes()
    assert layout(copy_) == layout(net) == (((5, 7), "prelu", float(np.float32(0.1))),
                                           ((7, 3), "sigmoid", float(np.float32(0.1))))
    assert copy_.layers[0].prelu_alpha != net.layers[0].prelu_alpha


@pytest.mark.parametrize("part", ["w", "b"])
@pytest.mark.parametrize("value", [4e38, -1e300, np.inf, np.nan])
def test_nets_are_stored_only_with_finite_float32_weights(part, value):
    # a diverged net is refused where it is rounded, with no overflow warning
    # and nothing written: 4e38 is finite in float64 but not in float32
    net = init_dense((3, 4, 2), ("relu", "linear"), seed=1)
    getattr(net.layers[1], part)[-1] = value
    buf = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for store in (lambda n: write_net(buf, n), stored):
            with pytest.raises(ValueError, match="training diverged.*lower the lr"):
                store(net)
    assert buf.getvalue() == b""


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        read_net(io.BytesIO(b"NOPE" + b"\x00" * 32))


@pytest.mark.parametrize(
    "offset,patch",
    [
        (4, struct.pack("<I", 0)),  # no layers
        (8, struct.pack("<I", 0)),  # zero input dimension
        (8, struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)),  # 7e19 weights declared
        (16, bytes([4])),  # activation id 4, past the last activation
        (17, struct.pack("<f", float("inf"))),  # non-finite PReLU slope
        (21, struct.pack("<f", float("nan"))),  # non-finite weight
    ],
    ids=["no-layers", "zero-dim", "huge-dims", "act-id-4", "inf-slope", "nan-weight"],
)
def test_read_net_rejects_corrupt_nets(offset, patch):
    # layout: magic, layer count, one (n_in, n_out, act, alpha) header of
    # 13 bytes, then 3 x 2 weights and 2 biases as float32
    buf = io.BytesIO()
    write_net(buf, init_dense((3, 2), ("prelu",), seed=1))
    raw = bytearray(buf.getvalue())
    raw[offset : offset + len(patch)] = patch
    with pytest.raises(ValueError):
        read_net(io.BytesIO(bytes(raw)))


def test_trains_linearly_separable_toy_to_perfect_accuracy():
    rng = np.random.default_rng(15)
    n = 120
    x = rng.standard_normal((n, 2))
    labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.float64)[:, None]
    net = init_dense((2, 8, 1), ("relu", "sigmoid"), seed=5)
    state = AdamState.init(net)
    for _ in range(500):
        out, tape = forward_tape(net, x)
        grads, _ = backward(net, tape, (out - labels) / n)
        net, state = adam_step(net, grads, state, lr=0.05)
    acc = np.mean((forward(net, x) > 0.5) == (labels > 0.5))
    assert acc == 1.0

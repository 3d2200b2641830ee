"""Dense-network toolkit: forward/backward oracles, optimizers, checkpoints."""

import io
import struct

import numpy as np
import pytest

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
    read_net,
    sigmoid,
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
    net = init_dense((3, 6, 2), ("tanh", "linear"), seed=3)
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
    stepped, _ = adam_step(net, [(np.array([[g]]), np.array([0.0]))], state, lr, eps=eps)
    m_hat = (1 - 0.9) * g / (1 - 0.9)
    v_hat = (1 - 0.999) * g * g / (1 - 0.999)
    expect = w0 - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert stepped.layers[0].w[0, 0] == pytest.approx(expect, rel=1e-12)
    assert stepped.layers[0].w[0, 0] == pytest.approx(w0 + lr, rel=1e-6)


def test_adam_weight_decay_decoupled_and_spares_bias():
    rng = np.random.default_rng(14)
    net = init_dense((3, 2), ("linear",), seed=2)
    zero = [(np.zeros((3, 2)), np.zeros(2))]
    wd, lr = 0.1, 0.05
    stepped, _ = adam_step(net, zero, AdamState.init(net), lr, weight_decay=wd)
    # zero gradient: the only movement is the decoupled decay on weights
    assert np.allclose(stepped.layers[0].w, (1 - lr * wd) * net.layers[0].w, rtol=1e-12)
    assert np.array_equal(stepped.layers[0].b, net.layers[0].b)


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


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        read_net(io.BytesIO(b"NOPE" + b"\x00" * 32))


@pytest.mark.parametrize(
    "offset,patch",
    [
        (4, struct.pack("<I", 0)),  # no layers
        (8, struct.pack("<I", 0)),  # zero input dimension
        (8, struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)),  # 7e19 weights declared
        (17, struct.pack("<f", float("inf"))),  # non-finite PReLU slope
        (21, struct.pack("<f", float("nan"))),  # non-finite weight
    ],
    ids=["no-layers", "zero-dim", "huge-dims", "inf-slope", "nan-weight"],
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

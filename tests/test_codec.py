"""Analog feature codec tests: symbol packing, power normalization, training."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semlink import codec as codec_mod
from semlink import harness, nnkit
from semlink.channel import noise_variance
from semlink.codec import (
    CodecConfig,
    complex_to_reals,
    decode,
    encode,
    new_codec,
    normalize_power,
    reals_to_complex,
    surrogate_roundtrip,
    train_harq2_pair,
    train_no_harq,
)

from semlink.scenegen import generate_scene
from semlink.seeding import derive_seed
from semlink.tensors import ImportanceMask, importance_map, pack_nonzero, unpack

from conftest import tiny_config, whole_grid_perception_loss_grad


def _tiny_train_set(seed=9000):
    cfg = tiny_config(seed)
    head = harness.make_head(cfg)
    return cfg, harness.build_training_set(cfg, head)


def test_real_complex_pairing():
    z = reals_to_complex(np.array([3.0, 4.0, 0.0, 1.0]))
    assert np.array_equal(z, np.array([3.0 + 4.0j, 0.0 + 1.0j]))
    assert np.array_equal(complex_to_reals(z), np.array([3.0, 4.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        reals_to_complex(np.zeros(3))


def test_normalize_power_example():
    # the symbols 3+4j and 0: energy 25 over 2 symbols -> scale sqrt(2)/5
    x = np.array([3.0, 4.0, 0.0, 0.0])
    out = normalize_power(x)
    assert np.allclose(out, x * np.sqrt(2.0) / 5.0, atol=1e-15)
    assert abs(np.mean(np.abs(reals_to_complex(out)) ** 2) - 1.0) < 1e-15


def test_normalize_power_fixed_point():
    x = np.array([1.0, 0.0, 0.0, 1.0])  # the symbols 1 and 1j
    assert np.allclose(normalize_power(x), x, atol=1e-15)


def test_normalize_power_zero_energy():
    with pytest.raises(ValueError):
        normalize_power(np.zeros(8))


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 16)),
        elements=st.floats(-50, 50, allow_nan=False),
    ),
)
@settings(max_examples=80, deadline=None)
@example(x=np.array([[5.72667848e-161]]))  # energy 4.1e-321, subnormal
@example(x=np.array([[1e-170, 0.0]]))  # energy underflows to 0.0
@example(x=np.array([[2.22507386e-311]]))  # subnormal peak
def test_normalize_power_rowwise(x):
    reals = complex_to_reals(x + 0.5j * np.roll(x, 1, axis=-1))
    if np.any(np.all(reals == 0.0, axis=-1)):
        with pytest.raises(ValueError):
            normalize_power(reals)
        return
    out = reals_to_complex(normalize_power(reals))
    assert np.allclose(np.mean(np.abs(out) ** 2, axis=-1), 1.0, rtol=1e-12)


def test_normalize_reals_backward_matches_fd():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8))
    gy = rng.standard_normal((3, 8))
    gx = codec_mod._normalize_power_backward(x, gy)
    h = 1e-6
    fd = np.empty_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fp = np.sum(normalize_power(xp) * gy)
            fm = np.sum(normalize_power(xm) * gy)
            fd[i, j] = (fp - fm) / (2 * h)
    assert np.max(np.abs(gx - fd)) < 1e-5


def test_encode_emits_unit_power_symbols():
    cfg = CodecConfig(n_cu=6, hidden=8)
    codec = new_codec(cfg, 10, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = encode(codec, rng.standard_normal(10))
        assert y.shape == (6,)
        assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 1e-12


def test_encode_is_the_normalized_encoder_output():
    # one normalization for training and encode: the surrogate channel's
    # symbols are bit for bit the ones the link carries
    codec = new_codec(CodecConfig(n_cu=6, hidden=8), 10, seed=1)
    for m in np.random.default_rng(3).standard_normal((20, 10)):
        want = reals_to_complex(normalize_power(nnkit.forward(codec.encoder, m[None])))[0]
        assert encode(codec, m).tobytes() == want.tobytes()


def test_encode_decode_shapes_and_validation():
    cfg = CodecConfig(n_cu=6, hidden=8)
    codec = new_codec(cfg, 10, seed=1)
    out = decode(codec, np.zeros(6, dtype=complex))
    assert out.shape == (10,)
    with pytest.raises(ValueError):
        encode(codec, np.zeros(9))
    with pytest.raises(ValueError):
        decode(codec, np.zeros(5, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_nonfinite_input(bad):
    codec = new_codec(CodecConfig(n_cu=6, hidden=8), 10, seed=1)
    m = np.zeros(10)
    m[3] = bad
    with pytest.raises(ValueError, match="finite"):
        encode(codec, m)


def test_new_codec_deterministic():
    cfg = CodecConfig(n_cu=6, hidden=8)
    a = new_codec(cfg, 10, seed=7)
    b = new_codec(cfg, 10, seed=7)
    c = new_codec(cfg, 10, seed=8)
    assert all(np.array_equal(x.w, y.w) for x, y in zip(a.encoder.layers, b.encoder.layers))
    assert not np.array_equal(a.encoder.layers[0].w, c.encoder.layers[0].w)


def test_codec_checkpoint_roundtrip():
    # a codec's nets as the checkpoint holds them: float32 weights, which
    # encode exactly as a float32-rounded copy of the codec does
    cfg = CodecConfig(n_cu=6, hidden=8)
    codec = new_codec(cfg, 10, seed=3)
    back = replace(codec, encoder=nnkit.stored(codec.encoder), decoder=nnkit.stored(codec.decoder))
    assert back.n_cu == 6
    x = np.linspace(-1, 1, 10)
    f32 = codec_mod.SemanticCodec(
        nnkit.DenseNet([type(l)(l.w.astype(np.float32).astype(np.float64),
                                l.b.astype(np.float32).astype(np.float64),
                                l.act, l.prelu_alpha) for l in codec.encoder.layers]),
        nnkit.DenseNet([type(l)(l.w.astype(np.float32).astype(np.float64),
                                l.b.astype(np.float32).astype(np.float64),
                                l.act, l.prelu_alpha) for l in codec.decoder.layers]),
    )
    assert np.array_equal(encode(back, x), encode(f32, x))
    assert not np.array_equal(encode(codec, x), encode(f32, x))  # the rounding shows


def test_train_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(batch_size=0)
    with pytest.raises(ValueError):
        CodecConfig(n_cu=0)
    with pytest.raises(ValueError):
        new_codec(CodecConfig(n_cu=4), 0, seed=1)


def test_training_reduces_reconstruction_loss():
    cfg, ts = _tiny_train_set()
    ccfg = CodecConfig(n_cu=16, hidden=24, batch_size=16, lr=2e-3, recon_epochs=8,
                       task_epochs=2)
    codec, curve = train_no_harq(ts, ccfg, 1, (9.0, 18.0))
    assert len(curve.recon) == 8
    assert len(curve.total) == 2
    assert all(np.diff(curve.recon) < 0)
    assert curve.recon[-1] < 0.8 * curve.recon[0]
    fresh = new_codec(ccfg, ts.packed.shape[1], 999)

    def noiseless_mse(c):
        recon = np.array([decode(c, encode(c, row)) for row in ts.packed])
        return np.mean((recon - ts.packed) ** 2)

    assert noiseless_mse(codec) < noiseless_mse(fresh)


def test_training_deterministic():
    cfg, ts = _tiny_train_set()
    ccfg = CodecConfig(n_cu=16, hidden=24, batch_size=16, recon_epochs=3, task_epochs=1)
    a, _ = train_no_harq(ts, ccfg, 1, (0.0, 18.0))
    b, _ = train_no_harq(ts, ccfg, 1, (0.0, 18.0))
    for la, lb in zip(a.encoder.layers + a.decoder.layers,
                      b.encoder.layers + b.decoder.layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.b, lb.b)


def test_surrogate_mse_decreases_with_snr():
    cfg, ts = _tiny_train_set()
    ccfg = CodecConfig(n_cu=16, hidden=24, batch_size=16, recon_epochs=10, task_epochs=0)
    codec, _ = train_no_harq(ts, ccfg, 1, (0.0, 18.0))
    mses = []
    for snr in (0.0, 6.0, 12.0, 18.0):
        rng = np.random.default_rng(42)
        acc = 0.0
        for _ in range(50):
            out = surrogate_roundtrip(codec, ts.packed, snr, rng)
            acc += np.mean((out - ts.packed) ** 2)
        mses.append(acc / 50)
    assert mses[0] > mses[1] > mses[2] > mses[3]


def test_second_pair_trains_on_frozen_residual():
    cfg, ts = _tiny_train_set()
    ccfg = CodecConfig(n_cu=16, hidden=24, batch_size=16, recon_epochs=8, task_epochs=0)
    first, _ = train_no_harq(ts, ccfg, 1, (9.0, 18.0))
    w_before = [l.w.copy() for l in first.encoder.layers + first.decoder.layers]
    second, curve = train_harq2_pair(first, ts, ccfg, 2, (0.0, 6.0))
    # the frozen pair must not move
    for w0, layer in zip(w_before, first.encoder.layers + first.decoder.layers):
        assert np.array_equal(w0, layer.w)
    assert curve.recon[-1] < curve.recon[0]
    # combining both pairs at a low SNR beats the first pair alone
    snr = 3.0
    err1 = 0.0
    err12 = 0.0
    for draw in range(64):
        r1 = np.random.default_rng(1000 + draw)
        r2 = np.random.default_rng(5000 + draw)
        d1 = surrogate_roundtrip(first, ts.packed, snr, r1)
        d2 = surrogate_roundtrip(second, ts.packed, snr, r2)
        err1 += np.mean((d1 - ts.packed) ** 2)
        err12 += np.mean((d1 + d2 - ts.packed) ** 2)
    assert err12 < err1


def test_surrogate_draws_match_sequential_single_draws():
    # one call with `draws` shares the encoder pass and draws all the noise at
    # once: the mean of that many single-draw calls, and the same stream
    cfg, ts = _tiny_train_set()
    codec = new_codec(CodecConfig(n_cu=16, hidden=24), ts.packed.shape[1], seed=5)
    batch = ts.packed[:20]
    rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
    fused = surrogate_roundtrip(codec, batch, 4.0, rng, draws=8)
    singles = [surrogate_roundtrip(codec, batch, 4.0, ref_rng) for _ in range(8)]
    assert fused.tobytes() == np.mean(singles, axis=0).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a single draw is the textbook chain: encode, normalize, add noise, decode
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    xn = normalize_power(nnkit.forward(codec.encoder, batch))
    noise = np.sqrt(noise_variance(4.0) / 2.0) * ref_rng.standard_normal(xn.shape)
    expect = nnkit.forward(codec.decoder, xn + noise)
    assert surrogate_roundtrip(codec, batch, 4.0, rng).tobytes() == expect.tobytes()
    with pytest.raises(ValueError):
        surrogate_roundtrip(codec, batch, 4.0, rng, draws=0)


def _state_bits(codec, states):
    nets = (codec.encoder, codec.decoder)
    arrays = [a for net in nets for l in net.layers for a in (l.w, l.b)]
    arrays += [a for st in states for pair in st.m + st.v for a in pair]
    return [a.tobytes() for a in arrays]


def _step_draw(rng, ts, idx, n_cu, frozen, roundtrip=surrogate_roundtrip, snr_db=2.5):
    """One step's (noise, m_first) from rng in step_draws' order: the noise
    of the batch's symbols, then the frozen pair's mean reconstruction over
    _FROZEN_DRAWS round trips (None without a frozen pair)."""
    noise = np.sqrt(noise_variance(snr_db) / 2.0) * rng.standard_normal((len(idx), 2 * n_cu))
    if frozen is None:
        return noise, None
    return noise, roundtrip(frozen, ts.packed[idx], snr_db, rng, codec_mod._FROZEN_DRAWS)


@pytest.mark.parametrize("rows", [64, 32])  # a full batch and the bench config's last one
@pytest.mark.parametrize("with_task", [False, True])
def test_fused_pair2_step_matches_sequential_draws(rows, with_task):
    # oracle: the frozen pair's reconstruction as the mean of _FROZEN_DRAWS
    # sequential single-draw round trips, each re-running the frozen encoder
    cfg, ts = _tiny_train_set()
    ccfg = CodecConfig(n_cu=16, hidden=24)
    n_in = ts.packed.shape[1]
    frozen = new_codec(ccfg, n_in, seed=1)
    idx = np.random.default_rng(3).integers(0, ts.packed.shape[0], size=rows)

    def sequential(codec, packed, snr_db, rng, draws=1):
        return np.mean([surrogate_roundtrip(codec, packed, snr_db, rng) for _ in range(draws)], axis=0)

    results = []
    for roundtrip in (surrogate_roundtrip, sequential):
        codec = new_codec(ccfg, n_in, seed=2)
        states = (nnkit.AdamState.init(codec.encoder), nnkit.AdamState.init(codec.decoder))
        rng = np.random.default_rng(4)
        for _ in range(2):  # the second step runs on moved weights and moments
            noise, m_first = _step_draw(rng, ts, idx, ccfg.n_cu, frozen, roundtrip)
            losses = codec_mod._step(
                codec, ts, idx, noise, m_first, states, 2e-3, 0.5 if with_task else None
            )
        results.append((losses, _state_bits(codec, states), rng.bit_generator.state))
    assert results[0] == results[1]


def _inline_draws(ts, cfg, seed, snr_band, frozen):
    """The training draws as the epoch loop once took them inline, from one
    PCG64(seed) stream: per epoch a permutation; per batch a uniform SNR, the
    noise of the encoded symbols and, with a frozen pair, _FROZEN_DRAWS
    single-draw round trips averaged."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = ts.packed.shape[0]
    for _ in range(cfg.recon_epochs + cfg.task_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            snr_db = rng.uniform(*snr_band)
            noise, m_first = _step_draw(rng, ts, idx, cfg.n_cu, None, snr_db=snr_db)
            if frozen is not None:
                batch = ts.packed[idx]
                m_first = np.mean([surrogate_roundtrip(frozen, batch, snr_db, rng)
                                   for _ in range(codec_mod._FROZEN_DRAWS)], axis=0)
            yield idx, snr_db, noise, m_first


@pytest.mark.parametrize("pair", [1, 2])
def test_step_draws_are_the_inline_draw_order(pair):
    cfg, ts = _tiny_train_set()
    ccfg = replace(cfg.codec, batch_size=20, recon_epochs=2, task_epochs=1)
    frozen = new_codec(ccfg, ts.packed.shape[1], seed=1) if pair == 2 else None
    got = list(codec_mod.step_draws(ts, ccfg, 17, (0.0, 6.0), frozen))
    want = list(_inline_draws(ts, ccfg, 17, (0.0, 6.0), frozen))
    assert len(got) == len(want) == 3 * len(range(0, ts.packed.shape[0], ccfg.batch_size))
    assert len(got[-1][0]) < ccfg.batch_size  # a short last batch is drawn too
    for (idx, snr, noise, m_first), (w_idx, w_snr, w_noise, w_first) in zip(got, want):
        assert idx.tobytes() == w_idx.tobytes() and snr == w_snr
        assert noise.shape == (len(idx), 2 * ccfg.n_cu) and noise.tobytes() == w_noise.tobytes()
        if pair == 1:
            assert m_first is None and w_first is None
        else:
            assert m_first.tobytes() == w_first.tobytes()


def _tiny_scenes_and_masks(cfg, ts):
    """The scenes and masks that harness.build_training_set sent into ts, made
    again from their seeds (a TrainingSet does not keep them)."""
    scenes, masks = [], []
    for i in range(ts.packed.shape[0]):
        seed = derive_seed(cfg.experiment.master_seed, "train-scene", i)
        scene, f = generate_scene(seed, cfg.scene, ts.head)
        scenes.append(scene)
        masks.append(importance_map(f, cfg.mask_cells()))
        assert pack_nonzero(f, masks[-1]).tobytes() == ts.packed[i].tobytes()
    return scenes, masks


@pytest.mark.parametrize("pair", [1, 2])  # pair 2 with its frozen target
def test_task_step_matches_whole_grid_oracle(pair, monkeypatch):
    # oracle: the perception term of each row over its whole feature grid,
    # the gradient gathered back onto the row's sent cells
    cfg, ts = _tiny_train_set()
    scenes, masks = _tiny_scenes_and_masks(cfg, ts)
    ccfg = CodecConfig(n_cu=16, hidden=24)
    n_in = ts.packed.shape[1]
    frozen = new_codec(ccfg, n_in, seed=1) if pair == 2 else None
    idx = np.random.default_rng(3).integers(0, ts.packed.shape[0], size=16)

    def whole_grid(f, sent, head):
        rows = [
            whole_grid_perception_loss_grad(unpack(f[r], masks[i], ts.shape), scenes[i], head)
            for r, i in enumerate(idx)
        ]
        grads = [g[:, masks[i].cells] for (_, g), i in zip(rows, idx)]
        return np.array([loss for loss, _ in rows]), np.stack(grads)

    results = []
    for term in (codec_mod.perception_loss_grad, whole_grid):
        monkeypatch.setattr(codec_mod, "perception_loss_grad", term)
        codec = new_codec(ccfg, n_in, seed=2)
        states = (nnkit.AdamState.init(codec.encoder), nnkit.AdamState.init(codec.decoder))
        rng = np.random.default_rng(4)
        losses = []
        for _ in range(2):  # the second step runs on moved weights and moments
            noise, m_first = _step_draw(rng, ts, idx, ccfg.n_cu, frozen)
            losses.append(codec_mod._step(codec, ts, idx, noise, m_first, states, 2e-3, 0.5))
        results.append((losses, _state_bits(codec, states)))
    (losses, bits), (oracle_losses, oracle_bits) = results
    assert bits == oracle_bits
    np.testing.assert_allclose(losses, oracle_losses, rtol=1e-12)


def test_training_set_rejects_masks_that_do_not_fit_the_packed_width():
    # the batched perception term needs one cell count for the whole set
    cfg, ts = _tiny_train_set()
    scenes, masks = _tiny_scenes_and_masks(cfg, ts)
    codec_mod.TrainingSet(ts.packed, scenes, masks, ts.shape, ts.head)
    narrow = masks[0].cells.copy()
    narrow.flat[np.flatnonzero(narrow)[0]] = False
    with pytest.raises(ValueError, match="mask 0 keeps"):
        codec_mod.TrainingSet(ts.packed, scenes, [ImportanceMask(narrow)] + masks[1:], ts.shape, ts.head)


def test_training_rejects_width_mismatch():
    # the pair-2 codec must fit the frozen pair-1 codec it corrects
    cfg, ts = _tiny_train_set()
    ccfg = CodecConfig(n_cu=16, hidden=24, recon_epochs=1, task_epochs=0)
    first = new_codec(ccfg, ts.packed.shape[1] + 1, seed=1)
    with pytest.raises(ValueError):
        train_harq2_pair(first, ts, ccfg, 2, (0.0, 6.0))


def test_trained_codec_beats_untrained_at_mid_snr(default_cfg, bundle):
    # gap on in-distribution packed features; fresh eval scenes
    eval_cfg = replace(default_cfg, experiment=replace(default_cfg.experiment, master_seed=777))
    ts = harness.build_training_set(eval_cfg, bundle.head)
    untrained = new_codec(default_cfg.codec, ts.packed.shape[1], seed=12345)
    def mse(codec):
        rng = np.random.default_rng(31)
        acc = 0.0
        for _ in range(8):
            out = surrogate_roundtrip(codec, ts.packed, 9.0, rng)
            acc += np.mean((out - ts.packed) ** 2)
        return acc / 8
    ratio = mse(untrained) / mse(bundle.codec_pair1)
    assert ratio >= 10.0


def test_combined_decoding_beats_first_pair_at_low_snr(default_cfg, bundle):
    # paired draws over the second pair's low training SNR range
    eval_cfg = replace(default_cfg, experiment=replace(default_cfg.experiment, master_seed=778))
    ts = harness.build_training_set(eval_cfg, bundle.head)
    rng_snr = np.random.default_rng(5)
    diffs = []
    for draw in range(200):
        snr = rng_snr.uniform(0.0, 6.0)
        r1 = np.random.default_rng(100 + draw)
        r2 = np.random.default_rng(90000 + draw)
        d1 = surrogate_roundtrip(bundle.codec_pair1, ts.packed, snr, r1)
        d2 = surrogate_roundtrip(bundle.codec_pair2, ts.packed, snr, r2)
        e1 = np.mean((d1 - ts.packed) ** 2)
        e12 = np.mean((d1 + d2 - ts.packed) ** 2)
        diffs.append(e1 - e12)
    diffs = np.asarray(diffs)
    assert diffs.mean() > 0
    assert np.mean(diffs > 0) >= 0.7

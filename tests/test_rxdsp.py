"""Receiver DSP tests: pilot LS estimation, denoising, interpolation, MMSE."""

import numpy as np
import pytest

from semlink import channel, ofdm
from semlink.channel import ChannelProfile, ChannelRealization, apply, noise_variance, realize
from semlink.ofdm import OfdmConfig, frame_build, pilot_rows
from semlink.rxdsp import equalize_mmse, estimate

CFG = OfdmConfig(l_fft=64, n_symbols=14, l_cp=8)


def _received(cfg, real, snr_db, pilot_seed=17, payload_seed=4, noise_seed=0):
    rng = np.random.default_rng(payload_seed)
    bits = rng.integers(0, 2, size=cfg.payload_capacity * 2)
    payload = ofdm.qam_map(bits, 4)
    grid = frame_build(payload, cfg, pilot_seed)
    rx = apply(grid, real, cfg, snr_db=snr_db, noise_seed=noise_seed)
    return grid, rx


def _estimate(rx, cfg=CFG, pilot_seed=17):
    """The estimate on every symbol row of a received frame."""
    rows = cfg.pilot_rows_idx
    return estimate(rx[list(rows)], pilot_rows(cfg, pilot_seed), rows, range(cfg.n_symbols), cfg.l_cp)


def test_noiseless_flat_channel_exact():
    real = ChannelRealization(np.full((14, 1), 0.8 + 0.3j), np.array([0.0]))
    grid, rx = _received(CFG, real, snr_db=None)
    h = _estimate(rx)
    assert np.max(np.abs(h - (0.8 + 0.3j))) < 1e-10


def test_noiseless_linear_drift_exact():
    # taps move linearly in the symbol index, matching the interpolator model
    ramp = 0.6 + 0.02 * np.arange(14)
    real = ChannelRealization(ramp.reshape(14, 1).astype(complex), np.array([0.0]))
    grid, rx = _received(CFG, real, snr_db=None)
    h = _estimate(rx)
    assert np.max(np.abs(h - ramp[:, None])) < 1e-10


def test_noiseless_multipath_static_exact():
    sr = CFG.sample_rate
    prof = ChannelProfile(speed_kmh=0.0, n_taps=2, tap_spacing=3.0 / sr, tap_decay=3.0 / sr)
    real = realize(prof, CFG, 14, seed=2)
    grid, rx = _received(CFG, real, snr_db=None)
    h = _estimate(rx)
    h_true = channel.freq_response(real, CFG)
    assert np.max(np.abs(h - h_true)) < 1e-9


def test_delay_denoising_beats_raw_ls():
    # the delay-domain truncation must not lose channel content and should
    # strip most out-of-support noise
    prof = ChannelProfile(speed_kmh=0.0, tap_spacing=1.0 / CFG.sample_rate, tap_decay=1.0 / CFG.sample_rate)
    wins = 0
    for seed in range(100):
        real = realize(prof, CFG, 14, seed=seed)
        h_true = channel.freq_response(real, CFG)
        pil = pilot_rows(CFG, 17)
        grid, rx = _received(CFG, real, snr_db=6.0, noise_seed=seed)
        r = CFG.pilot_rows_idx[0]
        raw = rx[r] / pil[0]
        den = estimate(rx[[r]], pil[:1], (r,), (r,), CFG.l_cp)[0]  # one pilot row: denoised LS
        e_raw = np.mean(np.abs(raw - h_true[r]) ** 2)
        e_den = np.mean(np.abs(den - h_true[r]) ** 2)
        if e_den <= e_raw:
            wins += 1
    assert wins >= 95


def _estimate_loop(rx_pilots, pilots, pilot_rows, rows, l_cp):
    """Per-row reference: one FFT pair per pilot row, then one symbol at a time."""
    h_pilot = []
    for y, p in zip(rx_pilots[:2], pilots[:2]):
        g = np.fft.ifft(y / p)
        g[l_cp:] = 0.0
        h_pilot.append(np.fft.fft(g))
    h = np.empty((len(rows), pilots.shape[1]), dtype=np.complex128)
    for i, j in enumerate(rows):
        if len(h_pilot) == 1:
            h[i] = h_pilot[0]
        else:
            slope = (h_pilot[1] - h_pilot[0]) / (pilot_rows[1] - pilot_rows[0])
            h[i] = h_pilot[0] + (j - pilot_rows[0]) * slope
    return h


@pytest.mark.parametrize("l_fft,l_cp", [(64, 8), (2048, 144)])
@pytest.mark.parametrize("pilots_at", [(2, 11), (4,), (1, 6, 11), (13, 0)])
def test_estimate_matches_the_per_row_loop(l_fft, l_cp, pilots_at):
    rng = np.random.default_rng(l_fft + len(pilots_at))
    k = len(pilots_at)
    for rows in ((), (5,), tuple(range(14)), (13, 0, 7)):
        pil = np.exp(2j * np.pi * rng.random((k, l_fft)))
        rx = rng.standard_normal((k, l_fft)) + 1j * rng.standard_normal((k, l_fft))
        got = estimate(rx, pil, pilots_at, rows, l_cp)
        want = _estimate_loop(rx, pil, pilots_at, rows, l_cp)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pilots_at", [(2, 11), (4,)])
def test_estimate_is_linear_in_the_received_pilots(pilots_at):
    # the link estimates the noiseless pilots and the pilot noise apart and
    # adds them per SNR: estimate(y + s*z) = estimate(y) + s*estimate(z) up to rounding
    rng = np.random.default_rng(8)
    k, rows = len(pilots_at), tuple(range(14))
    pil = np.exp(2j * np.pi * rng.random((k, 2048)))
    y, z = (rng.standard_normal((2, k, 2048)) + 1j * rng.standard_normal((2, k, 2048)))
    for s in (1.0, 0.1, 1e-3):
        whole = estimate(y + s * z, pil, pilots_at, rows, 144)
        split = estimate(y, pil, pilots_at, rows, 144) + s * estimate(z, pil, pilots_at, rows, 144)
        assert np.max(np.abs(whole - split)) <= 1e-14 * np.max(np.abs(whole))


def test_estimate_mse_decreases_with_snr():
    prof = ChannelProfile(tap_spacing=1.0 / CFG.sample_rate, tap_decay=1.0 / CFG.sample_rate)
    mses = []
    for snr in (0.0, 6.0, 12.0, 18.0):
        acc = 0.0
        for seed in range(30):
            real = realize(prof, CFG, 14, seed=seed)
            h_true = channel.freq_response(real, CFG)
            grid, rx = _received(CFG, real, snr_db=snr, noise_seed=seed)
            acc += np.mean(np.abs(_estimate(rx) - h_true) ** 2)
        mses.append(acc / 30)
    assert mses[0] > mses[1] > mses[2] > mses[3]


def test_mmse_beats_zero_forcing_at_low_snr():
    # paired comparison on the same noisy frames, symbol-error MSE
    prof = ChannelProfile(tap_spacing=1.0 / CFG.sample_rate, tap_decay=1.0 / CFG.sample_rate)
    snr = 6.0
    err_mmse = 0.0
    err_zf = 0.0
    n_sym = 0
    for seed in range(20):
        real = realize(prof, CFG, 14, seed=seed)
        grid, rx = _received(CFG, real, snr_db=snr, noise_seed=seed)
        h = _estimate(rx)
        eq = equalize_mmse(rx, h, noise_variance(snr))
        zf = rx / h
        sent = grid[list(CFG.data_rows_idx), :]
        rows = list(CFG.data_rows_idx)
        err_mmse += np.sum(np.abs(eq[rows] - sent) ** 2)
        err_zf += np.sum(np.abs(zf[rows] - sent) ** 2)
        n_sym += sent.size
    assert n_sym >= 10000
    assert err_mmse < err_zf


def test_mmse_converges_to_zero_forcing_at_high_snr():
    h = np.full((2, 8), 0.9 - 0.4j)
    rx = np.ones((2, 8), dtype=complex)
    zf = rx / h
    assert np.allclose(equalize_mmse(rx, h, noise_var=1e-12), zf, rtol=1e-9)


def test_mmse_scalar_formula():
    h = np.array([[0.5 + 0.5j]])
    rx = np.array([[1.0 + 0.0j]])
    nv = 0.25
    expected = np.conj(h) * rx / (np.abs(h) ** 2 + nv)
    assert np.allclose(equalize_mmse(rx, h, nv), expected, atol=1e-15)


def test_estimate_input_validation():
    pil = pilot_rows(CFG, 17)
    rows = CFG.pilot_rows_idx
    every = range(CFG.n_symbols)
    with pytest.raises(ValueError):  # received pilots narrower than the pilot block
        estimate(np.zeros((2, 32), dtype=complex), pil, rows, every, CFG.l_cp)
    with pytest.raises(ValueError):  # one pilot block row for two pilot rows
        estimate(np.zeros((1, 64), dtype=complex), pil[:1], rows, every, CFG.l_cp)
    with pytest.raises(ValueError):
        estimate(np.zeros((2, 64), dtype=complex), np.zeros_like(pil), rows, every, CFG.l_cp)
    with pytest.raises(ValueError):
        estimate(np.zeros((0, 64), dtype=complex), pil[:0], (), every, CFG.l_cp)
    with pytest.raises(ValueError):
        equalize_mmse(np.zeros((2, 4), dtype=complex), np.zeros((2, 4), dtype=complex), -1.0)


def test_equalize_shape_mismatch():
    with pytest.raises(ValueError):
        equalize_mmse(np.ones((2, 5), dtype=complex), np.ones((2, 4), dtype=complex), 0.1)

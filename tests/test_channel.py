"""Fading channel tests: PDP shape, response oracle, statistics, equivalence."""

import math

import numpy as np
import pytest

from conftest import from_time, to_time
from semlink import channel, ofdm
from semlink.channel import (
    ChannelProfile,
    ChannelRealization,
    apply,
    default_profile,
    doppler_frequency,
    freq_response,
    noise_variance,
    realize,
    symbol_correlation,
)
from semlink.ofdm import OfdmConfig
from semlink.seeding import derive_seed

CFG = OfdmConfig(l_fft=64, n_symbols=14, l_cp=8)
FULL = OfdmConfig()


def apply_time(samples: np.ndarray, real: ChannelRealization, cfg: OfdmConfig) -> np.ndarray:
    """Time-domain tap convolution of CP-extended symbols (noiseless).

    Tap delays must sit on the sample grid and inside the CP; samples that
    would reach back across the symbol boundary land in the CP region only,
    which the receiver discards, so they are left zero.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (real.n_symbols, cfg.l_cp + cfg.l_fft):
        raise ValueError(f"sample block shape {samples.shape} does not match config")
    d_samples = np.asarray(real.delays) * cfg.sample_rate
    d_int = np.round(d_samples).astype(int)
    if np.max(np.abs(d_samples - d_int)) > 1e-6:
        raise ValueError("time-domain path requires tap delays on the sample grid")
    if np.any(d_int > cfg.l_cp):
        raise ValueError("tap delays must not exceed the CP length")
    out = np.zeros_like(samples)
    for m, d in enumerate(d_int):
        shifted = np.zeros_like(samples)
        if d == 0:
            shifted[:, :] = samples
        else:
            shifted[:, d:] = samples[:, :-d]
        out += real.taps[:, m : m + 1] * shifted
    return out


def test_default_profile_shape():
    p = ChannelProfile()
    assert default_profile is ChannelProfile  # the name the benchmark builds its one-tap channel by
    assert p.n_taps == 6
    assert p.delays == tuple(0.5e-6 * m for m in range(6))
    assert abs(sum(p.powers) - 1.0) < 1e-12
    ratios = np.asarray(p.powers[1:]) / np.asarray(p.powers[:-1])
    assert np.allclose(ratios, np.exp(-1.0), atol=1e-12)
    assert abs(p.speed - 50.0 / 3.6) < 1e-12


def test_profile_validation():
    # one case per [channel] key; a zero decay or spacing would give NaN
    # powers or repeated delays, which no later check sees
    cases = [
        ({"speed_kmh": -5.0}, "speed_kmh must be >= 0"),
        ({"speed_kmh": float("nan")}, "speed_kmh must be >= 0"),
        ({"n_taps": 0}, "n_taps must be >= 1"),
        *(({key: value}, f"{key} must be finite and positive")
          for key in ("tap_spacing", "tap_decay")
          for value in (0.0, -1e-7, float("nan"), float("inf"))),
    ]
    for values, message in cases:
        with pytest.raises(ValueError, match=message):
            ChannelProfile(**values)
    # a single tap sits at delay 0 with all the power, whatever its spacing
    one = ChannelProfile(n_taps=1, tap_spacing=1e-3)
    assert (one.delays, one.powers) == ((0.0,), (1.0,))


def test_freq_response_matches_direct_sum():
    prof = ChannelProfile()
    real = realize(prof, FULL, 14, seed=42)
    h = freq_response(real, FULL)
    rng = np.random.default_rng(0)
    for _ in range(100):
        j = int(rng.integers(0, 14))
        k = int(rng.integers(0, FULL.l_fft))
        direct = sum(
            real.taps[j, m] * np.exp(-2j * np.pi * k * FULL.subcarrier_spacing * tau)
            for m, tau in enumerate(real.delays)
        )
        assert abs(h[j, k] - direct) < 1e-12


def test_single_zero_delay_tap_is_flat():
    real = ChannelRealization(np.full((3, 1), 0.7 - 0.2j), np.array([0.0]))
    h = freq_response(real, CFG)
    assert np.allclose(h, 0.7 - 0.2j, atol=1e-15)


def test_two_tap_destructive_null():
    # equal taps, second delayed so subcarrier 16 sees a pi phase offset
    tau = 0.5 / (CFG.subcarrier_spacing * 16)
    amp = 1.0 / np.sqrt(2.0)
    real = ChannelRealization(np.array([[amp, amp]]), np.array([0.0, tau]))
    h = freq_response(real, CFG)
    assert abs(h[0, 16]) < 1e-12
    assert abs(h[0, 0] - 2 * amp) < 1e-12


def test_zero_speed_is_static():
    prof = ChannelProfile(speed_kmh=0.0)
    assert symbol_correlation(prof, FULL) == 1.0
    real = realize(prof, FULL, 14, seed=3)
    assert np.array_equal(real.taps, np.tile(real.taps[0], (14, 1)))


def test_default_symbol_correlation_is_pinned():
    # the value the default config's channel draws are made with, bit for bit
    assert symbol_correlation(ChannelProfile(), FULL) == 0.9991546116106323


@pytest.mark.parametrize("x,tabulated", [(1.0, 0.7651976865579666), (2.0, 0.22389077914123567)])
def test_j0_series_matches_tabulated_values(x, tabulated):
    assert abs(channel.j0(x) - tabulated) <= 2 * math.ulp(tabulated)


def test_doppler_value():
    prof = ChannelProfile(speed_kmh=50.0)
    expected = (50.0 / 3.6) * 2.8e9 / 2.99792458e8
    assert abs(doppler_frequency(prof, FULL) - expected) < 1e-6


def test_mean_response_power_is_unity():
    prof = ChannelProfile()
    vals = []
    for seed in range(300):
        real = realize(prof, FULL, 2, seed=seed)
        h = freq_response(real, FULL)
        vals.append(np.mean(np.abs(h) ** 2))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 3 * se + 1e-3


def test_lag_one_tap_correlation():
    prof = ChannelProfile(speed_kmh=120.0)
    rho = symbol_correlation(prof, FULL)
    assert 0.9 < rho < 1.0
    real = realize(ChannelProfile(speed_kmh=120.0, n_taps=1), FULL, 60000, seed=11)
    a = real.taps[:, 0]
    emp = np.real(np.mean(a[1:] * np.conj(a[:-1]))) / np.mean(np.abs(a) ** 2)
    assert abs(emp - rho) < 0.01


def test_stationary_tap_power_matches_profile():
    # adjacent symbols are heavily correlated, so sample across realizations
    prof = ChannelProfile()
    draws = np.stack([realize(prof, FULL, 1, seed=s).taps[0] for s in range(2000)])
    emp = np.mean(np.abs(draws) ** 2, axis=0)
    assert np.allclose(emp, np.asarray(prof.powers), rtol=0.1)


def test_noise_variance_values():
    assert noise_variance(0.0) == 1.0
    assert abs(noise_variance(10.0) - 0.1) < 1e-15


def test_applied_noise_power_matches_target():
    prof = ChannelProfile()
    real = realize(prof, CFG, 14, seed=21)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=14 * CFG.l_fft * 2)
    grid = ofdm.qam_map(bits, 4).reshape(14, CFG.l_fft)
    clean = apply(grid, real, CFG, snr_db=None)
    total = np.zeros(0)
    for noise_seed in range(40):
        noisy = apply(grid, real, CFG, snr_db=10.0, noise_seed=noise_seed)
        total = np.concatenate([total, np.abs(noisy - clean).ravel() ** 2])
    measured_db = -10 * np.log10(np.mean(total))
    assert abs(measured_db - 10.0) < 0.1


def test_common_noise_draw_rescales_across_snr():
    prof = ChannelProfile()
    real = realize(prof, CFG, 14, seed=22)
    grid = np.ones((14, CFG.l_fft), dtype=complex)
    clean = apply(grid, real, CFG, snr_db=None)
    n0 = (apply(grid, real, CFG, snr_db=0.0, noise_seed=9) - clean)
    n12 = (apply(grid, real, CFG, snr_db=12.0, noise_seed=9) - clean)
    scale = np.sqrt(noise_variance(12.0) / noise_variance(0.0))
    assert np.allclose(n12, n0 * scale, rtol=1e-12)


def test_row_noise_follows_its_stated_rule():
    # channel._noise_rows: row j's noise is drawn from its own PCG64 stream,
    # keyed by (noise seed, j) alone, so any set of rows gets the rows the
    # whole grid gets, and channel.apply adds exactly these rows
    seed = 321
    for j in (0, 5, 13):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "noise-row", j)))
        re, im = rng.standard_normal((2, CFG.l_fft))
        want = (re + 1j * im) / np.sqrt(2.0)
        assert channel._noise_rows(seed, [j], CFG.l_fft).tobytes() == want.tobytes()
    whole = channel._noise_rows(seed, range(14), CFG.l_fft)
    assert channel._noise_rows(seed, (9, 2), CFG.l_fft).tobytes() == whole[[9, 2]].tobytes()
    real = realize(ChannelProfile(), CFG, 14, seed=24)
    zero = np.zeros((14, CFG.l_fft))
    assert apply(zero, real, CFG, snr_db=0.0, noise_seed=seed).tobytes() == whole.tobytes()


def test_row_noise_statistics():
    # over 400 seeds x 14 rows x 64 cells: every estimate below is a mean of
    # N terms whose standard error is at most 1/sqrt(N) (|z|^2 is Exp(1),
    # and each normalized cross term has unit variance), so each is checked
    # to 6 standard errors
    seeds, n_rows = 400, 14
    z = np.stack([channel._noise_rows(s, range(n_rows), CFG.l_fft) for s in range(seeds)])

    def within(value, n):
        return abs(value) <= 6.0 / np.sqrt(n)

    power = np.abs(z) ** 2
    assert within(power.mean() - 1.0, power.size)
    assert all(within(m - 1.0, seeds) for m in power.mean(axis=0).ravel())  # per cell, over seeds
    re, im = np.sqrt(2.0) * z.real, np.sqrt(2.0) * z.imag  # unit-variance parts
    assert within(np.mean(re * im), z.size)
    for j in range(n_rows):
        for k in range(j + 1, n_rows):  # rows of one seed
            assert within(np.mean(z[:, j] * np.conj(z[:, k])), seeds * CFG.l_fft)
    assert within(np.mean(z[1:] * np.conj(z[:-1])), (seeds - 1) * n_rows * CFG.l_fft)  # neighbouring seeds


def test_noiseless_apply_is_linear():
    prof = ChannelProfile()
    real = realize(prof, CFG, 14, seed=23)
    rng = np.random.default_rng(2)
    g1 = rng.standard_normal((14, CFG.l_fft)) + 1j * rng.standard_normal((14, CFG.l_fft))
    g2 = rng.standard_normal((14, CFG.l_fft)) + 1j * rng.standard_normal((14, CFG.l_fft))
    lhs = apply(2.0 * g1 + 3j * g2, real, CFG, snr_db=None)
    rhs = 2.0 * apply(g1, real, CFG, snr_db=None) + 3j * apply(g2, real, CFG, snr_db=None)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_time_domain_convolution_matches_grid_multiplication():
    # delays on the sample grid and inside the CP
    sr = CFG.sample_rate
    prof = ChannelProfile(n_taps=3, tap_spacing=3.0 / sr, tap_decay=3.0 / sr)
    assert np.array_equal(np.asarray(prof.delays) * sr, [0.0, 3.0, 6.0])
    real = realize(prof, CFG, 14, seed=31)
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((14, CFG.l_fft)) + 1j * rng.standard_normal((14, CFG.l_fft))
    via_freq = apply(grid, real, CFG, snr_db=None)
    t = to_time(grid, CFG)
    via_time = from_time(apply_time(t, real, CFG), CFG)
    err = np.max(np.abs(via_time - via_freq)) / np.max(np.abs(via_freq))
    assert err < 1e-6


def test_apply_time_rejects_off_grid_delays():
    prof = ChannelProfile()  # 0.5 us spacing is off the small-config sample grid
    real = realize(prof, CFG, 14, seed=32)
    t = np.zeros((14, CFG.l_cp + CFG.l_fft), dtype=complex)
    with pytest.raises(ValueError):
        apply_time(t, real, CFG)


def test_delay_beyond_cp_rejected():
    prof = ChannelProfile(n_taps=2, tap_spacing=9e-6)  # the CP lasts 8.3 us
    with pytest.raises(ValueError, match="must stay below the CP"):
        realize(prof, CFG, 4, seed=0)


def test_apply_shape_mismatch():
    prof = ChannelProfile()
    real = realize(prof, CFG, 14, seed=33)
    with pytest.raises(ValueError):
        apply(np.zeros((14, 32), dtype=complex), real, CFG, snr_db=None)


def test_realize_deterministic():
    prof = ChannelProfile()
    a = realize(prof, CFG, 14, seed=5)
    b = realize(prof, CFG, 14, seed=5)
    c = realize(prof, CFG, 14, seed=6)
    assert np.array_equal(a.taps, b.taps)
    assert not np.array_equal(a.taps, c.taps)

"""Configuration loading, validation, and derived-view tests."""

import math
from pathlib import Path

import pytest

from semlink.codec import CodecConfig
from semlink.config import (
    ExperimentConfig,
    default_config_text,
    load_config,
    validate_config,
    with_seed,
)
from semlink.detector import DetectorConfig
from semlink.ofdm import OfdmConfig
from semlink.scenegen import SceneConfig


def test_defaults_validate():
    cfg = ExperimentConfig()
    validate_config(cfg)
    assert cfg.experiment.master_seed == 2024
    assert cfg.experiment.snr_db == (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
    assert cfg.ofdm.l_fft == 2048
    assert cfg.ofdm.pilot_symbols == (3, 12)
    assert cfg.channel.n_taps == 6
    assert cfg.codec_pair1.snr_lo == 9.0
    assert cfg.codec_pair2.snr_hi == 6.0


def test_default_text_matches_the_pinned_file():
    # a changed default changes every sweep, and still round-trips, so the
    # rendered INI is compared with a checked-in copy
    pinned = Path(__file__).parent / "data" / "default_config.ini"
    assert default_config_text() == pinned.read_text()


def test_default_text_roundtrip(tmp_path):
    path = tmp_path / "default.ini"
    path.write_text(default_config_text())
    cfg = load_config(path)
    assert cfg == ExperimentConfig()


def test_load_modified_value(tmp_path):
    text = default_config_text().replace("master_seed = 2024", "master_seed = 11")
    path = tmp_path / "c.ini"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.experiment.master_seed == 11


def test_missing_file():
    with pytest.raises(ValueError, match="not found"):
        load_config("/nonexistent/path.ini")


@pytest.mark.parametrize(
    "text,what",
    [
        ("[ofdm]\nl_fft = 1024\n\n[ofdm]\nl_cp = 8\n", "section 'ofdm' already exists"),
        ("[ofdm]\nl_fft = 1024\nl_fft = 512\n", "option 'l_fft' in section 'ofdm' already exists"),
        ("l_fft = 1024\n[ofdm]\n", "no section headers"),
    ],
    ids=["repeated-section", "repeated-key", "no-section-header"],
)
def test_malformed_ini_is_a_value_error(tmp_path, text, what):
    # configparser's own errors are not ValueErrors; load_config turns them
    # into one, on one line, so the CLI reports them as it does a bad value
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad config file") as info:
        load_config(path)
    assert what in str(info.value)
    assert "\n" not in str(info.value)


def test_unknown_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ValueError, match="unknown section: nonsense"):
        load_config(path)


def test_unknown_field(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[ofdm]\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="unknown field: ofdm.bogus_key"):
        load_config(path)


def test_present_section_must_be_complete(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[experiment]\nmaster_seed = 5\n")
    with pytest.raises(ValueError, match="missing field: experiment"):
        load_config(path)


def test_bad_value_reports_location(tmp_path):
    text = default_config_text().replace("l_fft = 2048", "l_fft = not_a_number")
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad value for ofdm.l_fft"):
        load_config(path)


@pytest.mark.parametrize(
    "old,new",
    [
        ("ack_threshold = 0.72", "ack_threshold = 1.5"),
        ("sharpness = 1", "sharpness = 0"),
        ("batch_size = 64", "batch_size = 0"),
        ("object_rate = 0.06", "object_rate = 0"),
        ("l_cp = 144", "l_cp = 4096"),
        ("corpus_queries = 160", "corpus_queries = 0"),
        ("batch_queries = 8", "batch_queries = 0"),
        ("holdout = 0.25", "holdout = 1.5"),
        # round(0.997 * 160) = 160 held out, none left to train on
        ("holdout = 0.25", "holdout = 0.997"),
        ("holdout = 0.25", "holdout = nan"),
    ],
    ids=["ack_threshold", "sharpness", "batch_size", "object_rate", "l_cp",
         "corpus_queries", "batch_queries", "holdout", "holdout-all", "holdout-nan"],
)
def test_load_runs_the_section_type_checks(tmp_path, old, new):
    text = default_config_text()
    assert text.count(old) == 1
    path = tmp_path / "c.ini"
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=r"bad value in \["):
        load_config(path)


def test_validate_rejects_bad_mode():
    from dataclasses import replace

    cfg = ExperimentConfig()
    bad = replace(cfg, experiment=replace(cfg.experiment, modes=("warp",)))
    with pytest.raises(ValueError, match="unknown mode"):
        validate_config(bad)
    empty = replace(cfg, experiment=replace(cfg.experiment, modes=()))
    with pytest.raises(ValueError, match="experiment.modes: empty mode list"):
        validate_config(empty)


def test_validate_rejects_bad_cr():
    from dataclasses import replace

    cfg = ExperimentConfig()
    bad = replace(cfg, codec=replace(cfg.codec, cr=0.0))
    with pytest.raises(ValueError, match="codec.cr"):
        validate_config(bad)


def test_validate_rejects_bad_mod_order():
    from dataclasses import replace

    cfg = ExperimentConfig()
    bad = replace(cfg, baseline=replace(cfg.baseline, mod_order=8))
    with pytest.raises(ValueError, match="mod_order"):
        validate_config(bad)


def test_validate_rejects_oversized_pool():
    from dataclasses import replace

    cfg = ExperimentConfig()
    bad = replace(cfg, detector=replace(cfg.detector, pool=64))
    with pytest.raises(ValueError, match="detector.pool"):
        validate_config(bad)


def test_with_seed():
    cfg = ExperimentConfig()
    reseeded = with_seed(cfg, 999)
    assert reseeded.experiment.master_seed == 999
    assert cfg.experiment.master_seed == 2024
    assert reseeded.ofdm == cfg.ofdm


def test_packed_length_derivation():
    cfg = ExperimentConfig()
    cells = math.ceil(cfg.codec.cr * cfg.scene.height * cfg.scene.width)
    assert cfg.mask_cells() == cells
    assert cfg.packed_length() == cfg.scene.channels * cells
    assert cfg.packed_length() == 104


def test_derived_views_match_sections():
    cfg = ExperimentConfig()
    assert cfg.ofdm_config() is cfg.ofdm
    assert isinstance(cfg.ofdm, OfdmConfig)
    assert isinstance(cfg.scene, SceneConfig)
    assert isinstance(cfg.codec, CodecConfig)
    assert isinstance(cfg.detector, DetectorConfig)
    assert cfg.scene.logit_amp == 2.0
    prof = cfg.channel_profile()
    assert prof.n_taps == cfg.channel.n_taps
    assert abs(prof.speed - cfg.channel.speed_kmh / 3.6) < 1e-12


def test_train_config_band_override(tmp_path):
    # each pair trains over its own band, which PairSection checks
    cfg = ExperimentConfig()
    assert (cfg.codec_pair1.snr_lo, cfg.codec_pair1.snr_hi) == (9.0, 18.0)
    assert (cfg.codec_pair2.snr_lo, cfg.codec_pair2.snr_hi) == (0.0, 6.0)
    text = default_config_text().replace("[codec_pair2]\nsnr_lo = 0", "[codec_pair2]\nsnr_lo = 7")
    path = tmp_path / "c.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"bad value in \[codec_pair2\]"):
        load_config(path)


def test_baseline_cr_budget_math():
    # kept cells: largest k with 8*channels*k + 24 CRC bits inside the coded
    # bit budget of n_cu symbols
    cfg = ExperimentConfig()
    bits_per_use = math.log2(cfg.baseline.mod_order) / cfg.baseline.code_copies
    budget = cfg.codec.n_cu * bits_per_use
    k = int((budget - 24) // (8 * cfg.scene.channels))
    assert cfg.baseline_cr() == k / (cfg.scene.height * cfg.scene.width)
    assert 0.0 < cfg.baseline_cr() <= cfg.codec.cr

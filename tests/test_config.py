"""Configuration loading, validation, and derived-view tests."""

import configparser
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from semlink.channel import ChannelProfile
from semlink.codec import CodecConfig
from semlink.config import (
    _SECTION_TYPES,
    ExperimentConfig,
    default_config_text,
    load_config,
    validate_config,
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
        ("pool = 16", "pool = 0"),
        ("branch_width = 64", "branch_width = 0"),
        ("train_samples = 512", "train_samples = 0"),
        ("hidden = 192", "hidden = 0"),
        ("sessions = 200", "sessions = 0"),
        ("round_budget = 3", "round_budget = 0"),
        ("workers = 1", "workers = 0"),
        ("modes = noharq,sim1,sim2,base1", "modes = sim1,warp"),
        ("modes = noharq,sim1,sim2,base1", "modes = ,"),
        ("modes = noharq,sim1,sim2,base1", "modes = sim1,base1,sim1"),
        ("\nsnr_db = 0,3,6,9,12,15,18\n", "\nsnr_db = \n"),
        ("\nsnr_db = 0,3,6,9,12,15,18\n", "\nsnr_db = 0,3,0.0\n"),
        ("cr = 0.05", "cr = 0"),
        ("tap_decay = 5e-07", "tap_decay = 0"),
        ("lr = 0.002\n", "lr = -1\n"),
        ("lr = 0.0002", "lr = 0"),
        ("mod_order = 16", "mod_order = 8"),
        ("code_copies = 2", "code_copies = 0"),
        ("pilot_symbols = 3,12", "pilot_symbols = "),
        ("n_symbols = 14\npilot_symbols = 3,12", "n_symbols = 2\npilot_symbols = 1,2"),
        ("subcarrier_spacing = 15000", "subcarrier_spacing = 0"),
        ("corpus_snr_db = 0,3,6,9,12,15,18,21", "corpus_snr_db = "),
        ("corpus_snr_db = 0,3,6,9,12,15,18,21", "corpus_snr_db = 9"),
        ("recon_epochs = 80", "recon_epochs = -3"),
        ("task_epochs = 30", "task_epochs = -1"),
        ("\nepochs = 50", "\nepochs = 0"),
        ("task_weight = 0.5", "task_weight = -0.5"),
        ("weight_decay = 0.05", "weight_decay = -0.05"),
        ("n_taps = 6", "n_taps = 0"),
        ("tap_spacing = 5e-07", "tap_spacing = 0"),
        ("speed_kmh = 50", "speed_kmh = -5"),
        # cross-section rules on [channel] values name the section too
        ("n_taps = 6", "n_taps = 11"),
        ("speed_kmh = 50", "speed_kmh = 7500"),
        ("height = 16", "height = 0"),
        ("\nwidth = 16", "\nwidth = 0"),
        ("carrier_freq = 2800000000", "carrier_freq = -2.8e9"),
    ],
    ids=["ack_threshold", "sharpness", "batch_size", "object_rate", "l_cp",
         "corpus_queries", "batch_queries", "holdout", "holdout-all", "holdout-nan",
         "pool", "branch_width", "train_samples", "hidden", "sessions", "round_budget",
         "workers", "modes", "modes-empty", "modes-repeated", "snr_db-empty", "snr_db-repeated", "cr", "tap_decay", "codec-lr", "detector-lr",
         "mod_order", "code_copies", "pilot_symbols-empty", "pilot_symbols-all",
         "subcarrier_spacing", "corpus_snr_db-empty", "corpus_snr_db-one", "recon_epochs",
         "task_epochs", "detector-epochs", "task_weight", "weight_decay", "n_taps",
         "tap_spacing", "speed_kmh", "n_taps-beyond-cp", "speed_kmh-beyond-j0", "height",
         "width", "carrier_freq"],
)
def test_load_runs_the_section_type_checks(tmp_path, old, new):
    text = default_config_text()
    assert text.count(old) == 1
    path = tmp_path / "c.ini"
    path.write_text(text.replace(old, new))
    # a non-finite float fails one step sooner, where its text is parsed
    where = r"bad value for detector\.holdout: must be finite" if new.endswith("nan") else r"^bad value in \["
    with pytest.raises(ValueError, match=where):
        load_config(path)


# the checks run when a section or a config is made, so a replaced one is
# checked as a loaded one is


def test_validate_rejects_bad_mode():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="unknown mode 'warp'"):
        replace(cfg, experiment=replace(cfg.experiment, modes=("warp",)))
    with pytest.raises(ValueError, match="empty mode list"):
        replace(cfg, experiment=replace(cfg.experiment, modes=()))
    with pytest.raises(ValueError, match="repeated mode"):
        replace(cfg, experiment=replace(cfg.experiment, modes=("base1", "base1")))


def test_validate_rejects_a_repeated_snr():
    # a repeated SNR would run its sessions twice and count them twice in
    # summary.csv; 0.0 and -0.0 are one SNR
    cfg = ExperimentConfig()
    for snrs in ((0.0, 0.0), (3.0, 0.0, 3.0), (0.0, -0.0)):
        with pytest.raises(ValueError, match="repeated SNR"):
            replace(cfg, experiment=replace(cfg.experiment, snr_db=snrs))


def test_validate_rejects_bad_cr():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match=r"cr must be in \(0, 1\]"):
        replace(cfg, codec=replace(cfg.codec, cr=0.0))


def test_channel_section_rejects_a_decay_that_is_not_finite_and_positive():
    # a zero decay gives NaN tap powers, which no later check sees
    for decay in (0.0, -0.5e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tap_decay must be finite and positive"):
            ChannelProfile(tap_decay=decay)


def test_validate_rejects_bad_mod_order():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="mod_order"):
        replace(cfg, baseline=replace(cfg.baseline, mod_order=8))


def test_validate_rejects_oversized_pool():
    # a cross-section rule: runs when the ExperimentConfig is made
    cfg = ExperimentConfig()
    detector = replace(cfg.detector, pool=64)
    with pytest.raises(ValueError, match="detector.pool"):
        replace(cfg, detector=detector)


def test_validate_rejects_n_cu_beyond_payload_capacity():
    # a cross-section rule: a transmission must fit the payload rows of one frame
    capacity = OfdmConfig().payload_capacity
    assert ExperimentConfig(codec=CodecConfig(n_cu=capacity)).codec.n_cu == capacity
    with pytest.raises(ValueError, match="codec.n_cu"):
        ExperimentConfig(codec=CodecConfig(n_cu=capacity + 1))


def test_validate_rejects_a_channel_beyond_the_j0_series():
    # a cross-section rule: speed, carrier and symbol time set the Bessel argument
    assert ExperimentConfig(channel=ChannelProfile(speed_kmh=6500.0)).channel.speed_kmh == 6500.0
    with pytest.raises(ValueError, match=r"^bad value in \[channel\]: channel too fast"):
        ExperimentConfig(channel=ChannelProfile(speed_kmh=7500.0))


def test_validate_rejects_taps_beyond_the_cyclic_prefix():
    # a cross-section rule: [channel] sets the tap delays, [ofdm] the CP they must stay inside
    assert ExperimentConfig(channel=ChannelProfile(n_taps=10)).channel.n_taps == 10
    with pytest.raises(ValueError, match=r"^bad value in \[channel\]: max tap delay .* must stay below the CP"):
        ExperimentConfig(channel=ChannelProfile(n_taps=11))


def _float_fields():
    return [
        (name, f.name)
        for name, cls in _SECTION_TYPES.items()
        for f in fields(cls)
        if f.type == "float" or f.type.startswith("tuple[float")
    ]


@pytest.mark.parametrize("section,key", _float_fields(), ids=[f"{s}.{k}" for s, k in _float_fields()])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_floats_fail_at_load(tmp_path, section, key, value):
    # generated from the section types, so a new float field is covered too
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(default_config_text())
    parser[section][key] = value
    path = tmp_path / "c.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ValueError, match=rf"bad value for {section}\.{key}: must be finite"):
        load_config(path)


def test_float_fields_are_found():
    # the generator above sees every kind of float field
    found = set(_float_fields())
    assert {("experiment", "snr_db"), ("channel", "speed_kmh"), ("codec_pair1", "snr_lo"),
            ("detector", "corpus_snr_db"), ("codec", "lr")} <= found


def test_with_seed():
    cfg = ExperimentConfig()
    reseeded = replace(cfg, experiment=replace(cfg.experiment, master_seed=999))
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
    assert isinstance(cfg.channel, ChannelProfile)
    assert cfg.channel.n_taps == len(cfg.channel.delays) == len(cfg.channel.powers)
    assert abs(cfg.channel.speed - cfg.channel.speed_kmh / 3.6) < 1e-12


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


def test_baseline_cells_budget_math():
    # kept cells: largest k with 8*channels*k + 24 CRC bits inside one chunk,
    # the bits of n_cu // copies whole symbols
    cfg = ExperimentConfig()
    chunk_bits = (cfg.codec.n_cu // cfg.baseline.code_copies) * int(math.log2(cfg.baseline.mod_order))
    assert chunk_bits == 512
    k = (chunk_bits - 24) // (8 * cfg.scene.channels)
    assert cfg.baseline_cells() == k == 7
    assert 1 <= cfg.baseline_cells() <= cfg.mask_cells()
    # a grid smaller than the budget is kept whole
    small = replace(cfg, scene=replace(cfg.scene, height=2, width=3), detector=replace(cfg.detector, pool=2))
    assert small.baseline_cells() == 6
    # and a budget that holds no cell fails when the config is made
    with pytest.raises(ValueError, match="no payload fits the symbol budget"):
        replace(cfg, codec=replace(cfg.codec, n_cu=20))

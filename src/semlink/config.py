"""Experiment configuration: one INI file drives training and sweeps.

The [ofdm], [scene], [codec] and [detector] sections load straight into the
dataclass their module consumes (ofdm.OfdmConfig, scenegen.SceneConfig,
codec.CodecConfig, detector.DetectorConfig). The experiment, channel,
codec-pair SNR band and baseline sections are defined here.

Each setting has one home and one check: _parse_value parses its text (no
non-finite floats), its section type's __post_init__ checks its value, and
validate_config, run whenever an ExperimentConfig is made, the rules that
span sections. A config file, a flag and a sweep's arguments fail alike.

The file format is deliberately flat.  Every section that appears must be
complete; a missing key is a config error that names the field, so stale
files fail loudly instead of silently picking up new defaults.  Sections
that are absent entirely fall back to the built-in defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .channel import ChannelProfile, check_delays, default_profile, symbol_correlation
from .codec import CodecConfig
from .detector import DetectorConfig
from .harq import CRC24_BITS
from .ofdm import QAM_ORDERS, OfdmConfig
from .scenegen import SceneConfig

# Protocol modes: scorer-acknowledged semantic modes and CRC baselines.
SEMANTIC_MODES = ("noharq", "sim1", "sim2")
BASELINE_MODES = ("base1", "base2")
ALL_MODES = SEMANTIC_MODES + BASELINE_MODES


def check_modes(modes) -> None:
    """ValueError if the mode list is empty or names an unknown mode."""
    if not modes:
        raise ValueError("empty mode list")
    for mode in modes:
        if mode not in ALL_MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {', '.join(ALL_MODES)}")


@dataclass(frozen=True)
class ExperimentSection:
    master_seed: int = 2024
    sessions: int = 200
    snr_db: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
    modes: tuple[str, ...] = ("noharq", "sim1", "sim2", "base1")
    round_budget: int = 3
    workers: int = 1

    def __post_init__(self):
        for name in ("sessions", "round_budget", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_modes(self.modes)
        if not self.snr_db:
            raise ValueError("empty SNR list")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


@dataclass(frozen=True)
class ChannelSection:
    speed_kmh: float = 50.0
    n_taps: int = 6
    tap_spacing: float = 0.5e-6
    tap_decay: float = 0.5e-6

    def __post_init__(self):
        if not (math.isfinite(self.tap_decay) and self.tap_decay > 0.0):
            raise ValueError(f"tap_decay must be finite and positive, got {self.tap_decay}")


@dataclass(frozen=True)
class PairSection:
    """SNR band one retransmission stage codec trains over."""

    snr_lo: float
    snr_hi: float

    def __post_init__(self):
        if self.snr_hi < self.snr_lo:
            raise ValueError("snr_hi must be >= snr_lo")


@dataclass(frozen=True)
class BaselineSection:
    mod_order: int = 16
    code_copies: int = 2

    def __post_init__(self):
        if self.mod_order not in QAM_ORDERS:
            raise ValueError(f"mod_order must be one of {QAM_ORDERS}")
        if self.code_copies < 1:
            raise ValueError("code_copies must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)
    channel: ChannelSection = field(default_factory=ChannelSection)
    scene: SceneConfig = field(default_factory=SceneConfig)
    codec: CodecConfig = field(default_factory=CodecConfig)
    codec_pair1: PairSection = field(default_factory=lambda: PairSection(9.0, 18.0))
    codec_pair2: PairSection = field(default_factory=lambda: PairSection(0.0, 6.0))
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    baseline: BaselineSection = field(default_factory=BaselineSection)

    def __post_init__(self):
        validate_config(self)

    def ofdm_config(self) -> OfdmConfig:
        return self.ofdm

    def channel_profile(self) -> ChannelProfile:
        c = self.channel
        return default_profile(c.speed_kmh, c.n_taps, spacing=c.tap_spacing, decay=c.tap_decay)

    def mask_cells(self) -> int:
        """Cells the semantic pipeline keeps: codec.cr of the scene grid, rounded up."""
        s = self.scene
        return int(math.ceil(self.codec.cr * s.height * s.width))

    def packed_length(self) -> int:
        return self.scene.channels * self.mask_cells()

    def baseline_cells(self) -> int:
        """Cells the classical stack keeps in the learned codec's n_cu channel uses.

        Each of code_copies chunks gets n_cu // code_copies whole symbols; k is
        the largest count whose frame, 8 bits per kept value and the CRC-24,
        fits one, at most the whole grid. The codeword never exceeds n_cu symbols.
        """
        b, s = self.baseline, self.scene
        chunk_bits = (self.codec.n_cu // b.code_copies) * int(math.log2(b.mod_order))
        k = min((chunk_bits - CRC24_BITS) // (8 * s.channels), s.height * s.width)
        if k < 1:
            raise ValueError(
                "baseline.mod_order too small: no payload fits the symbol budget"
            )
        return k


_SECTION_TYPES = {
    "experiment": ExperimentSection,
    "ofdm": OfdmConfig,
    "channel": ChannelSection,
    "scene": SceneConfig,
    "codec": CodecConfig,
    "codec_pair1": PairSection,
    "codec_pair2": PairSection,
    "detector": DetectorConfig,
    "baseline": BaselineSection,
}


def _finite(tok: str) -> float:
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {tok.strip()}")
    return value


def _parse_value(section: str, key: str, raw: str, annotation: str):
    raw = raw.strip()
    try:
        if annotation == "int":
            return int(raw)
        if annotation == "float":
            return _finite(raw)
        if annotation.startswith("tuple[float"):
            return tuple(_finite(tok) for tok in raw.split(",") if tok.strip())
        if annotation.startswith("tuple[int"):
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if annotation.startswith("tuple[str"):
            return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad value for {section}.{key}: {exc}") from None
    raise ValueError(f"unsupported field type for {section}.{key}")


def parse_field(section: str, key: str, raw: str):
    """The value of `raw` as the INI text of field `key` of `section`."""
    spec = {f.name: f for f in fields(_SECTION_TYPES[section])}
    if key not in spec:
        raise ValueError(f"unknown field: {section}.{key}")
    ann = spec[key].type
    ann = ann if isinstance(ann, str) else getattr(ann, "__name__", str(ann))
    return _parse_value(section, key, raw, ann)


def _make_section(name: str, make, *args, **values):
    """make(*args, **values), naming the section in the ValueError of its type's checks."""
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ValueError(f"bad value in [{name}]: {exc}") from None


def override(cfg: ExperimentConfig, section: str, **values) -> ExperimentConfig:
    """cfg with `values` set in `section`; the section and the whole config
    are checked as a loaded file's are."""
    return replace(cfg, **{section: _make_section(section, replace, getattr(cfg, section), **values)})


def _load_section(parser: configparser.ConfigParser, name: str, cls):
    """Materialize one present section; it must list every key."""
    values = {key: parse_field(name, key, raw) for key, raw in parser.items(name)}
    missing = sorted({f.name for f in fields(cls)} - set(values))
    if missing:
        raise ValueError(f"missing field: {name}.{missing[0]}")
    return _make_section(name, cls, **values)


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:  # a repeated section or key, or no section header
        raise ValueError(f"bad config file: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ValueError(f"unknown section: {section}")
    return ExperimentConfig(**{
        name: _load_section(parser, name, cls)
        for name, cls in _SECTION_TYPES.items()
        if parser.has_section(name)
    })


def validate_config(cfg: ExperimentConfig) -> None:
    """The rules that span sections, run whenever an ExperimentConfig is made; a
    rule on one section's own fields lives in that section type's __post_init__."""
    if cfg.detector.pool > min(cfg.scene.height, cfg.scene.width):
        raise ValueError("bad value for detector.pool: exceeds scene grid")
    if cfg.codec.n_cu > cfg.ofdm.payload_capacity:
        raise ValueError(f"bad value for codec.n_cu: a frame holds {cfg.ofdm.payload_capacity} payload symbols")
    profile = cfg.channel_profile()
    check_delays(profile, cfg.ofdm)
    symbol_correlation(profile, cfg.ofdm)
    cfg.baseline_cells()


def default_config_text() -> str:
    """Render the built-in defaults as a complete INI document."""
    cfg = ExperimentConfig()
    lines = []
    for name, cls in _SECTION_TYPES.items():
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in fields(cls):
            val = getattr(section, f.name)
            if isinstance(val, tuple):
                rendered = ",".join(_render_scalar(v) for v in val)
            else:
                rendered = _render_scalar(val)
            lines.append(f"{f.name} = {rendered}")
        lines.append("")
    return "\n".join(lines)


def _render_scalar(val) -> str:
    if isinstance(val, float):
        return format(val, ".10g")
    return str(val)

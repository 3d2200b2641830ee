"""Experiment configuration: one INI file drives training and sweeps.

The [ofdm], [scene], [codec] and [detector] sections load straight into the
dataclass their module consumes (ofdm.OfdmConfig, scenegen.SceneConfig,
codec.CodecConfig, detector.DetectorConfig), so each type's own checks run
when the file is loaded. The experiment, channel, codec-pair SNR band and
baseline sections are defined here.

The file format is deliberately flat.  Every section that appears must be
complete; a missing key is a config error that names the field, so stale
files fail loudly instead of silently picking up new defaults.  Sections
that are absent entirely fall back to the built-in defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace

from .channel import ChannelProfile, default_profile
from .codec import CodecConfig
from .detector import DetectorConfig
from .harq import CRC24_BITS
from .ofdm import QAM_ORDERS, OfdmConfig
from .scenegen import SceneConfig

# Protocol modes: scorer-acknowledged semantic modes and CRC baselines.
SEMANTIC_MODES = ("noharq", "sim1", "sim2")
BASELINE_MODES = ("base1", "base2")
ALL_MODES = SEMANTIC_MODES + BASELINE_MODES


@dataclass(frozen=True)
class ExperimentSection:
    master_seed: int = 2024
    sessions: int = 200
    snr_db: tuple[float, ...] = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
    modes: tuple[str, ...] = ("noharq", "sim1", "sim2", "base1")
    round_budget: int = 3
    workers: int = 1


@dataclass(frozen=True)
class ChannelSection:
    speed_kmh: float = 50.0
    n_taps: int = 6
    tap_spacing: float = 0.5e-6
    tap_decay: float = 0.5e-6


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

    def ofdm_config(self) -> OfdmConfig:
        return self.ofdm

    def channel_profile(self) -> ChannelProfile:
        c = self.channel
        return default_profile(
            speed_kmh=c.speed_kmh,
            n_taps=c.n_taps,
            spacing=c.tap_spacing,
            decay=c.tap_decay,
        )

    def mask_cells(self) -> int:
        s = self.scene
        return int(math.ceil(self.codec.cr * s.height * s.width))

    def packed_length(self) -> int:
        return self.scene.channels * self.mask_cells()

    def baseline_cr(self) -> float:
        """Compression ratio granting the classical stack the same channel uses.

        The byte pipeline spends 8 bits per kept value plus a fixed integrity
        tag, coded at rate 1/copies, so the number of kept cells is the largest
        one whose coded payload fits the learned codec's symbol budget.
        """
        b = self.baseline
        bits_per_use = math.log2(b.mod_order) / b.code_copies
        budget_bits = self.codec.n_cu * bits_per_use
        k = int((budget_bits - CRC24_BITS) // (8 * self.scene.channels))
        if k < 1:
            raise ValueError(
                "baseline.mod_order too small: no payload fits the symbol budget"
            )
        cells = self.scene.height * self.scene.width
        return min(1.0, k / cells)


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


def _parse_value(section: str, key: str, raw: str, annotation: str):
    raw = raw.strip()
    try:
        if annotation == "int":
            return int(raw)
        if annotation == "float":
            return float(raw)
        if annotation.startswith("tuple[float"):
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if annotation.startswith("tuple[int"):
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if annotation.startswith("tuple[str"):
            return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad value for {section}.{key}: {exc}") from None
    raise ValueError(f"unsupported field type for {section}.{key}")


def _load_section(parser: configparser.ConfigParser, name: str, cls):
    """Materialize one present section; it must list every key."""
    spec = {f.name: f for f in fields(cls)}
    values = {}
    for key, raw in parser.items(name):
        if key not in spec:
            raise ValueError(f"unknown field: {name}.{key}")
        ann = spec[key].type
        ann = ann if isinstance(ann, str) else getattr(ann, "__name__", str(ann))
        values[key] = _parse_value(name, key, raw, ann)
    missing = sorted(set(spec) - set(values))
    if missing:
        raise ValueError(f"missing field: {name}.{missing[0]}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"bad value in [{name}]: {exc}") from None


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
    cfg = ExperimentConfig(**{
        name: _load_section(parser, name, cls)
        for name, cls in _SECTION_TYPES.items()
        if parser.has_section(name)
    })
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Checks that span sections; each section type checks its own values."""
    e = cfg.experiment
    if e.sessions < 1:
        raise ValueError("bad value for experiment.sessions: must be >= 1")
    if e.round_budget < 1:
        raise ValueError("bad value for experiment.round_budget: must be >= 1")
    if e.workers < 1:
        raise ValueError("bad value for experiment.workers: must be >= 1")
    check_modes(e.modes, "experiment.modes")
    if not 0.0 < cfg.codec.cr <= 1.0:
        raise ValueError("bad value for codec.cr: must be in (0, 1]")
    if cfg.baseline.mod_order not in QAM_ORDERS:
        raise ValueError(
            f"bad value for baseline.mod_order: must be one of {QAM_ORDERS}"
        )
    if cfg.baseline.code_copies < 1:
        raise ValueError("bad value for baseline.code_copies: must be >= 1")
    if cfg.detector.pool > min(cfg.scene.height, cfg.scene.width):
        raise ValueError("bad value for detector.pool: exceeds scene grid")
    cfg.channel_profile()
    cfg.baseline_cr()


def check_modes(modes, name: str = "modes") -> tuple[str, ...]:
    """The mode list as a tuple; ValueError, naming it `name`, if it is empty or
    names an unknown mode."""
    modes = tuple(modes)
    if not modes:
        raise ValueError(f"bad value for {name}: empty mode list")
    for mode in modes:
        if mode not in ALL_MODES:
            raise ValueError(
                f"bad value for {name}: unknown mode {mode!r}; choose from {', '.join(ALL_MODES)}"
            )
    return modes


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, experiment=replace(cfg.experiment, master_seed=seed))


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

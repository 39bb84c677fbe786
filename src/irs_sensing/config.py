"""Configuration dataclasses and file loading.

Angles are degrees in config files and radians everywhere in code.  All
defaults reproduce the reference simulation setup: a 60 GHz carrier, 16
access-point antennas, a 32-element reflecting surface at (100, 100) m,
and two moving targets south-east of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import yaml

from .errors import ConfigError

SPEED_OF_LIGHT = 2.99792458e8  # m/s, exact
MODULATION_SYMBOL = 1.0 + 0.0j  # unit-modulus symbol on every subcarrier


@dataclass(frozen=True)
class WaveformConfig:
    """Multicarrier pulse-train waveform parameters."""

    carrier_freq_hz: float = 60e9
    n_subcarriers: int = 10
    n_pulses: int = 10
    symbol_duration_s: float = 2e-6
    cyclic_prefix_s: float = 1e-6
    pri_s: float = 8e-6
    tx_power_w: float = 1.0

    def __post_init__(self):
        _coerce_fields(self)
        if self.n_subcarriers < 1 or self.n_pulses < 1:
            raise ConfigError("subcarrier and pulse counts must be >= 1")
        if min(self.carrier_freq_hz, self.symbol_duration_s,
               self.cyclic_prefix_s, self.pri_s, self.tx_power_w) <= 0:
            raise ConfigError("waveform durations, carrier, and power must be positive")
        if self.n_subcarriers * self.subcarrier_spacing_hz >= 0.1 * self.carrier_freq_hz:
            raise ConfigError("occupied bandwidth must stay far below the carrier")

    @property
    def subcarrier_spacing_hz(self) -> float:
        return 1.0 / self.symbol_duration_s

    @property
    def full_symbol_s(self) -> float:
        """Cyclic prefix plus useful symbol span of one pulse."""
        return self.symbol_duration_s + self.cyclic_prefix_s

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz


@dataclass(frozen=True)
class ArrayConfig:
    """Antenna/element counts and uniform linear array geometry."""

    n_ap_antennas: int = 16
    n_irs_elements: int = 32
    element_spacing_m: float = 0.0   # 0 means: use half the carrier wavelength
    wavelength_m: float = SPEED_OF_LIGHT / 60e9

    def __post_init__(self):
        _coerce_fields(self)
        if self.n_ap_antennas < 1 or self.n_irs_elements < 1:
            raise ConfigError("antenna and element counts must be >= 1")
        if self.wavelength_m <= 0:
            raise ConfigError("wavelength must be positive")
        if self.element_spacing_m == 0.0:
            object.__setattr__(self, "element_spacing_m", self.wavelength_m / 2)
        if self.element_spacing_m <= 0:
            raise ConfigError("element spacing must be positive")

    @property
    def surface(self) -> tuple[int, float, float]:
        """Surface array as steering_vector arguments (N, spacing, wavelength)."""
        return self.n_irs_elements, self.element_spacing_m, self.wavelength_m


@dataclass(frozen=True)
class TargetConfig:
    """One point target: 2-D position and radial speed toward the surface.
    The scene checks its fields."""

    position_m: tuple[float, float]
    radial_velocity_mps: float = 0.0
    rcs: float = 1.0


@dataclass(frozen=True)
class SceneConfig:
    """Scene layout: terminal positions, targets, and the DOA prior."""

    ap_position_m: tuple[float, float] = (0.0, 0.0)
    irs_position_m: tuple[float, float] = (100.0, 100.0)
    targets: tuple[TargetConfig, ...] = (
        TargetConfig(position_m=(533.0, -170.0), radial_velocity_mps=16.66),
        TargetConfig(position_m=(541.0, -245.0), radial_velocity_mps=-22.0),
    )
    doa_prior_rad: tuple[float, float] = (math.radians(30.0), math.radians(45.0))
    n_subarrays: int = 4
    rician_k_db: float | None = None   # None: pure line-of-sight AP-IRS channel
    n_nlos_paths: int = 4

    def __post_init__(self):
        _coerce_fields(self)
        if len(self.targets) < 1:
            raise ConfigError("at least one target required")
        if self.doa_prior_rad[1] <= self.doa_prior_rad[0]:
            raise ConfigError("DOA prior upper bound must exceed lower bound")
        if self.n_subarrays < 1:
            raise ConfigError("subarray count must be >= 1")
        if self.n_nlos_paths < 0:
            raise ConfigError("scattered path count must be >= 0")
        if any(t.rcs <= 0 for t in self.targets):
            raise ConfigError("target rcs must be positive")


@dataclass(frozen=True)
class FullConfig:
    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    arrays: ArrayConfig = field(default_factory=ArrayConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)


_WAVEFORM_KEYS = {"carrier_freq_hz", "n_subcarriers", "n_pulses",
                  "symbol_duration_s", "cyclic_prefix_s", "pri_s",
                  "tx_power_w"}
_ARRAY_KEYS = {"n_ap_antennas", "n_irs_elements", "element_spacing_m"}
_SCENE_KEYS = {"ap_position_m", "irs_position_m", "targets", "doa_prior_deg",
               "n_subarrays", "rician_k_db", "n_nlos_paths"}
_TARGET_KEYS = {"position_m", "radial_velocity_mps", "rcs"}
_FILE_SECTIONS = {"waveform": _WAVEFORM_KEYS, "arrays": _ARRAY_KEYS,
                  "scene": _SCENE_KEYS}
_OVERRIDE_SECTIONS = {**_FILE_SECTIONS,
                      "scene": _SCENE_KEYS - {"doa_prior_deg"} | {"doa_prior_rad"}}


def _coerce_fields(section, name: str = ""):
    """Set each field of the config ``section`` to its declared type, or
    raise ConfigError naming the field, or ``name`` if given; returns
    ``section``.

    A count (an ``int`` field) takes only whole numbers: 2.7 pulses is an
    error, not 2.  Any other number becomes a finite float; a pair becomes
    two finite floats, and each target's fields are checked under the name
    ``'targets'``.  No number may be a bool, NaN or an infinity (NaN passes
    every range check).  A numeric string is a number, since some YAML
    parsers read exponent forms like ``60.0e9`` as strings.  None stays
    None where the field allows it.
    """
    for f in dataclass_fields(section):
        object.__setattr__(section, f.name, _coerce(
            f.type, getattr(section, f.name), name or f.name))
    return section


def _coerce(kind: str, value, name: str):
    """``value`` as the declared type ``kind`` of field ``name``."""
    try:
        if value is None and kind == "float | None":
            return None
        if kind == "tuple[TargetConfig, ...]":
            targets = tuple(value)
            if not all(isinstance(t, TargetConfig) for t in targets):
                raise TypeError("not a target")
            return tuple(_coerce_fields(replace(t), name) for t in targets)
        if kind == "tuple[float, float]":
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise TypeError("not a pair")
            return tuple(_coerce("float", v, name) for v in value)
        number = math.nan if isinstance(value, bool) else float(value)
        if math.isfinite(number) and (kind != "int" or number.is_integer()):
            return int(number) if kind == "int" else number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"bad value for {name!r}: {value!r}")


def _reject_unknown(name: str, mapping: dict, known: set) -> None:
    bad = set(mapping) - known
    if bad:
        raise ConfigError(f"unknown {name} keys: {sorted(bad)}")


def _build_targets(raw) -> tuple[TargetConfig, ...]:
    """Targets from a list of mappings; the scene checks their values."""
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ConfigError(f"targets must be a list of mappings, got {raw!r}")
    for i, entry in enumerate(raw):
        _reject_unknown(f"target {i}", entry, _TARGET_KEYS)
    return tuple(TargetConfig(**{"position_m": None, **entry}) for entry in raw)


def config_from_dict(raw: dict) -> FullConfig:
    """Build a FullConfig from a nested dict, overriding defaults.

    Recognized top-level sections: ``waveform``, ``arrays``, ``scene``.
    Unknown keys raise ConfigError rather than being silently ignored.  The
    keys are flattened and passed to ``with_overrides``, so a file and an
    override are checked alike.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown("top-level", raw, set(_FILE_SECTIONS))
    flat = {}
    for name, known in _FILE_SECTIONS.items():
        section = {} if raw.get(name) is None else raw[name]
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        _reject_unknown(name, section, known)
        flat.update(section)
    if "doa_prior_deg" in flat:
        lo, hi = _coerce("tuple[float, float]", flat.pop("doa_prior_deg"),
                         "doa_prior_deg")
        flat["doa_prior_rad"] = (math.radians(lo), math.radians(hi))
    if "targets" in flat:
        flat["targets"] = _build_targets(flat["targets"])
    return with_overrides(FullConfig(), **flat)


def load_config(path: str | Path) -> FullConfig:
    """Load a YAML config file; missing keys fall back to defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return config_from_dict(raw)


def with_overrides(cfg: FullConfig, **kwargs) -> FullConfig:
    """Return a copy of ``cfg`` with selected fields replaced.

    Keys are routed to the section that owns them, e.g. ``n_pulses`` to the
    waveform and ``n_ap_antennas`` to the arrays, and each section checks
    its fields.  The array wavelength is the carrier's, and an element
    spacing of half the old wavelength stays half the new one.
    """
    routed = {name: {k: v for k, v in kwargs.items() if k in keys}
              for name, keys in _OVERRIDE_SECTIONS.items()}
    leftovers = set(kwargs).difference(*_OVERRIDE_SECTIONS.values())
    if leftovers:
        raise ConfigError(f"unknown override keys: {sorted(leftovers)}")
    waveform = replace(cfg.waveform, **routed["waveform"])
    ar_kw = {"wavelength_m": waveform.wavelength_m, **routed["arrays"]}
    if cfg.arrays.element_spacing_m == cfg.arrays.wavelength_m / 2:
        ar_kw.setdefault("element_spacing_m", 0.0)  # 0: half the wavelength
    return FullConfig(waveform, replace(cfg.arrays, **ar_kw),
                      replace(cfg.scene, **routed["scene"]))

"""Configuration dataclasses and file loading.

Angles are degrees in config files and radians everywhere in code.  All
defaults reproduce the reference simulation setup: a 60 GHz carrier, 16
access-point antennas, a 32-element reflecting surface at (100, 100) m,
and two moving targets south-east of it.
"""
from __future__ import annotations

import math
from dataclasses import (dataclass, field, fields as dataclass_fields,
                         is_dataclass, replace)
from pathlib import Path

import yaml

from .errors import ConfigError

SPEED_OF_LIGHT = 2.99792458e8  # m/s, exact


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
    modulation_symbol: complex = 1.0 + 0.0j

    def __post_init__(self):
        _require_finite(self)
        if self.n_subcarriers < 1 or self.n_pulses < 1:
            raise ConfigError("subcarrier and pulse counts must be >= 1")
        if min(self.carrier_freq_hz, self.symbol_duration_s,
               self.cyclic_prefix_s, self.pri_s, self.tx_power_w) <= 0:
            raise ConfigError("waveform durations, carrier, and power must be positive")
        if abs(abs(self.modulation_symbol) - 1.0) > 1e-12:
            raise ConfigError("modulation symbol must be unit modulus")
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
        _require_finite(self)
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
    """One point target: 2-D position and radial speed toward the surface."""

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
        _require_finite(self)
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


def _finite(value) -> float:
    """``value`` as a finite float; ValueError for a bool, NaN or an infinity."""
    number = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _require_finite(value, name: str = "") -> None:
    """ConfigError unless each number in a config section, target, pair or
    field is finite and no bool (NaN passes every range check); None is unset."""
    if is_dataclass(value):
        for f in dataclass_fields(value):
            _require_finite(getattr(value, f.name), name or f.name)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _require_finite(item, name)
    elif value is not None:
        try:
            _finite(abs(value) if isinstance(value, complex) else value)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {name!r}: {value!r}") from None


def _pair(key: str, value) -> tuple[float, float]:
    """Two finite numbers from a two-item list, or ConfigError."""
    try:
        if isinstance(value, list) and len(value) == 2:
            return _finite(value[0]), _finite(value[1])
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a list of two finite numbers, got {value!r}")


def _build_targets(raw) -> tuple[TargetConfig, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"targets must be a list of mappings, got {raw!r}")
    targets = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"target {i}: expected a mapping")
        _reject_unknown(f"target {i}", entry, _TARGET_KEYS)
        pos = _pair(f"target {i}: position_m", entry.get("position_m"))
        try:
            vel = _finite(entry.get("radial_velocity_mps", 0.0))
            rcs = _finite(entry.get("rcs", 1.0))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"target {i}: speed and rcs must be finite numbers") from exc
        targets.append(TargetConfig(position_m=pos, radial_velocity_mps=vel, rcs=rcs))
    return tuple(targets)


def _coerce_numbers(section: dict, cls) -> dict:
    """Convert scalar fields to their declared numeric types.

    Some YAML parsers read exponent forms like ``60.0e9`` as strings;
    coercing by the dataclass annotation keeps config files forgiving.
    An int field takes only whole numbers: 2.7 pulses is an error, not 2.
    No number may be a bool, NaN or an infinity.
    """
    kinds = {f.name: f.type for f in dataclass_fields(cls)}
    out = {}
    for key, value in section.items():
        kind = kinds.get(key)
        try:
            if kind == "int":
                if not _finite(value).is_integer():
                    raise ValueError("not a whole number")
                value = int(float(value))
            elif kind == "float" or (kind == "float | None" and value is not None):
                value = _finite(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        out[key] = value
    return out


def _reject_unknown(name: str, mapping: dict, known: set) -> None:
    bad = set(mapping) - known
    if bad:
        raise ConfigError(f"unknown {name} keys: {sorted(bad)}")


def _section(raw: dict, name: str, cls, known: set) -> dict:
    section = raw.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    _reject_unknown(name, section, known)
    return _coerce_numbers(section, cls)


def config_from_dict(raw: dict) -> FullConfig:
    """Build a FullConfig from a nested dict, overriding defaults.

    Recognized top-level sections: ``waveform``, ``arrays``, ``scene``.
    Unknown keys raise ConfigError rather than being silently ignored.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _reject_unknown("top-level", raw, {"waveform", "arrays", "scene"})
    # the known keys are dataclass fields, so the constructors take them all
    waveform = WaveformConfig(**_section(raw, "waveform", WaveformConfig,
                                         _WAVEFORM_KEYS))
    ar_raw = _section(raw, "arrays", ArrayConfig, _ARRAY_KEYS)
    ar_raw.setdefault("wavelength_m", waveform.wavelength_m)
    arrays = ArrayConfig(**ar_raw)

    sc_raw = _section(raw, "scene", SceneConfig, _SCENE_KEYS)
    if "doa_prior_deg" in sc_raw:
        lo, hi = _pair("doa_prior_deg", sc_raw.pop("doa_prior_deg"))
        sc_raw["doa_prior_rad"] = (math.radians(lo), math.radians(hi))
    if "targets" in sc_raw:
        sc_raw["targets"] = _build_targets(sc_raw["targets"])
    for key in ("ap_position_m", "irs_position_m"):
        if key in sc_raw:
            sc_raw[key] = _pair(key, sc_raw[key])
    return FullConfig(waveform=waveform, arrays=arrays,
                      scene=SceneConfig(**sc_raw))


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
    """Return a copy of ``cfg`` with selected scalar fields replaced.

    Keys are routed to the section that owns them, e.g. ``n_pulses`` to the
    waveform and ``n_ap_antennas`` to the arrays.  Array wavelength tracks
    any carrier change.
    """
    wf_kw = {k: v for k, v in kwargs.items() if k in _WAVEFORM_KEYS}
    ar_kw = {k: v for k, v in kwargs.items()
             if k in _ARRAY_KEYS or k == "wavelength_m"}
    sc_kw = {k: v for k, v in kwargs.items()
             if k in (_SCENE_KEYS - {"doa_prior_deg"}) | {"doa_prior_rad", "targets"}}
    leftovers = set(kwargs) - set(wf_kw) - set(ar_kw) - set(sc_kw)
    if leftovers:
        raise ConfigError(f"unknown override keys: {sorted(leftovers)}")
    waveform = replace(cfg.waveform, **wf_kw) if wf_kw else cfg.waveform
    arrays = cfg.arrays
    if wf_kw or ar_kw:
        ar_kw.setdefault("wavelength_m", waveform.wavelength_m)
        arrays = replace(cfg.arrays, **ar_kw)
    scene = replace(cfg.scene, **sc_kw) if sc_kw else cfg.scene
    return FullConfig(waveform=waveform, arrays=arrays, scene=scene)

"""Configuration defaults, file loading, and override routing."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irs_sensing.config import (_ARRAY_KEYS, _SCENE_KEYS, _TARGET_KEYS,
                                _WAVEFORM_KEYS, SPEED_OF_LIGHT, ArrayConfig,
                                FullConfig, TargetConfig, WaveformConfig,
                                config_from_dict,
                                load_config, with_overrides)
from irs_sensing.errors import ConfigError


def test_default_waveform_constants(cfg):
    wf = cfg.waveform
    assert wf.carrier_freq_hz == 60e9
    assert wf.n_subcarriers == 10
    assert wf.n_pulses == 10
    assert wf.symbol_duration_s == 2e-6
    assert wf.cyclic_prefix_s == 1e-6
    assert wf.pri_s == 8e-6
    assert wf.subcarrier_spacing_hz == pytest.approx(500e3)
    assert wf.full_symbol_s == pytest.approx(3e-6)


def test_wavelength_uses_exact_light_speed(cfg):
    assert SPEED_OF_LIGHT == 2.99792458e8
    assert cfg.waveform.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 60e9)


def test_default_arrays(cfg):
    assert cfg.arrays.n_ap_antennas == 16
    assert cfg.arrays.n_irs_elements == 32
    assert cfg.arrays.element_spacing_m == pytest.approx(
        cfg.waveform.wavelength_m / 2)


def test_default_scene(cfg):
    sc = cfg.scene
    assert sc.ap_position_m == (0.0, 0.0)
    assert sc.irs_position_m == (100.0, 100.0)
    assert len(sc.targets) == 2
    assert sc.targets[0].position_m == (533.0, -170.0)
    assert sc.targets[0].radial_velocity_mps == pytest.approx(16.66)
    assert sc.targets[1].radial_velocity_mps == pytest.approx(-22.0)
    assert sc.doa_prior_rad == pytest.approx((math.radians(30), math.radians(45)))
    assert sc.rician_k_db is None


def test_yaml_file_matches_defaults():
    assert load_config("configs/default.yaml") == FullConfig()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"wavform": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"waveform": {"n_subcarier": 4}})


def test_doa_prior_degrees_converted():
    cfg = config_from_dict({"scene": {"doa_prior_deg": [10, 20]}})
    assert cfg.scene.doa_prior_rad == pytest.approx(
        (math.radians(10), math.radians(20)))


def test_numeric_strings_coerced():
    """A file and the Python API read a numeric string as a number."""
    cfg = config_from_dict({"waveform": {"carrier_freq_hz": "60.0e9",
                                         "n_pulses": "8"}})
    assert cfg.waveform.carrier_freq_hz == 60e9
    assert cfg.waveform.n_pulses == 8
    pulses = with_overrides(FullConfig(), n_pulses="8").waveform.n_pulses
    assert type(pulses) is int and pulses == 8


def test_bad_numeric_string_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"waveform": {"carrier_freq_hz": "sixty GHz"}})


def test_invalid_waveform_values_rejected():
    with pytest.raises(ConfigError):
        WaveformConfig(n_subcarriers=0)
    with pytest.raises(ConfigError):
        WaveformConfig(symbol_duration_s=-1e-6)
    with pytest.raises(ConfigError):
        WaveformConfig(modulation_symbol=2.0 + 0.0j)


def test_invalid_array_values_rejected():
    with pytest.raises(ConfigError):
        ArrayConfig(n_ap_antennas=0, wavelength_m=5e-3)


def test_with_overrides_routes_sections():
    base = FullConfig()
    out = with_overrides(base, n_pulses=20, n_ap_antennas=8)
    assert out.waveform.n_pulses == 20
    assert out.arrays.n_ap_antennas == 8
    assert out.scene == base.scene


def test_with_overrides_unknown_key():
    with pytest.raises(ConfigError):
        with_overrides(FullConfig(), bogus_knob=3)


def test_wavelength_tracks_carrier_override():
    """The wavelength follows the carrier, and so does a half-wavelength
    spacing, alike through a file and an override; a spacing given as
    another length stays."""
    out = with_overrides(FullConfig(), carrier_freq_hz=30e9)
    assert out.arrays.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 30e9)
    assert out.arrays.element_spacing_m == out.arrays.wavelength_m / 2
    assert out == config_from_dict({"waveform": {"carrier_freq_hz": 30e9}})
    spaced = with_overrides(FullConfig(), element_spacing_m=3e-3)
    moved = with_overrides(spaced, carrier_freq_hz=30e9)
    assert moved.arrays.element_spacing_m == 3e-3
    assert moved.arrays.wavelength_m == out.arrays.wavelength_m


def test_target_parsing_errors():
    with pytest.raises(ConfigError):
        config_from_dict({"scene": {"targets": [{"radial_velocity_mps": 3}]}})
    with pytest.raises(ConfigError):
        config_from_dict({"scene": {"targets": [{"position_m": [1, 2, 3]}]}})


@pytest.mark.parametrize("raw", [
    {"waveform": {"carrier_freq_hz": math.nan}},
    {"waveform": {"pri_s": math.inf}},
    {"waveform": {"carrier_freq_hz": "nan"}},
    {"waveform": {"n_pulses": True}},
    {"arrays": {"element_spacing_m": math.nan}},
    {"arrays": {"n_ap_antennas": False}},
    {"scene": {"ap_position_m": [math.nan, 0]}},
    {"scene": {"doa_prior_deg": [30, math.inf]}},
    {"scene": {"irs_position_m": [True, 100]}},
    {"scene": {"rician_k_db": math.nan}},
    {"scene": {"rician_k_db": -math.inf}},
    {"scene": {"targets": [{"position_m": [533.0, -170.0], "rcs": math.nan}]}},
    {"scene": {"targets": [{"position_m": [533.0, -170.0],
                            "radial_velocity_mps": math.inf}]}},
    {"scene": {"targets": [{"position_m": [533.0, -170.0], "rcs": True}]}},
    pytest.param({"waveform": {"n_pulses": 10**400}},
                 id="{'waveform': {'n_pulses': 10**400}}"),
], ids=repr)
def test_non_finite_numbers_and_bools_rejected(raw):
    """NaN passes every range check by comparison, so it is rejected where
    it is read, as are the infinities, a whole number past the float range
    and a bool taken as a number."""
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize("override", [
    {"carrier_freq_hz": math.nan},
    {"pri_s": math.inf},
    {"n_pulses": True},
    {"n_ap_antennas": math.nan},
    {"rician_k_db": -math.inf},
    {"irs_position_m": (math.nan, 100.0)},
    {"targets": (TargetConfig(position_m=(533.0, -170.0), rcs=math.inf),)},
    {"n_pulses": 2.7},
    {"n_ap_antennas": 7.5},
    {"n_subarrays": 2.5},
], ids=repr)
def test_non_finite_numbers_and_bools_rejected_through_the_api(override):
    """The config classes check their own numbers, so the Python API takes
    no NaN, infinity, bool or fractional count that a config file cannot
    pass either."""
    with pytest.raises(ConfigError) as info:
        with_overrides(FullConfig(), **override)
    assert "\n" not in str(info.value)
    assert repr(next(iter(override))) in str(info.value)


# Any YAML scalar or short list: None, bools, ints, floats with NaN and
# inf, short strings (numeric ones among them) and lists of these.  Half
# the values are plausible counts, sizes and pairs instead, and half the
# values of a pair key are pairs, so that valid sections occur and the keys
# and sections parsed after them are reached.
_SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**12)
            | st.floats() | st.text(max_size=4)
            | st.sampled_from(["1", "2.5", "-3", "60e9", "nan", "inf"]))
_PAIR = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)
_VALUES = st.booleans().flatmap(
    lambda plausible: (st.integers(1, 64) | st.floats(1e-6, 1e11) | _PAIR)
    if plausible else (_SCALARS | st.lists(_SCALARS, max_size=3)))
_NOT_A_MAPPING = st.sampled_from([None, 0, 1.5, "x", [], [{}]])


def _value(key):
    if key == "targets":
        return _TARGETS
    return _PAIR | _VALUES if key.endswith(("position_m", "_deg", "_rad")) else _VALUES


def _mapping(keys):
    """A few of ``keys``, at times with a stray one, each with any value.
    Few keys per mapping let the later keys be reached."""
    return st.lists(st.sampled_from(sorted(keys) + ["stray"]), max_size=3,
                    unique=True).flatmap(lambda chosen: st.fixed_dictionaries(
                        {k: _value(k) for k in chosen}))


_TARGETS = st.lists(_mapping(_TARGET_KEYS) | _NOT_A_MAPPING,
                    min_size=1, max_size=3) | _NOT_A_MAPPING
_SECTIONS = {name: _mapping(keys) | _NOT_A_MAPPING
             for name, keys in (("waveform", _WAVEFORM_KEYS),
                                ("arrays", _ARRAY_KEYS), ("scene", _SCENE_KEYS))}
# Any subset of the sections, or one section alone: a failure in an early
# section would otherwise hide the later ones.
_RAW = st.fixed_dictionaries({}, optional=_SECTIONS) | st.one_of(
    st.fixed_dictionaries({name: section})
    for name, section in _SECTIONS.items())


@given(raw=_RAW)
@settings(max_examples=300, deadline=None)
def test_any_mapping_gives_a_config_or_config_error(raw):
    """No mapping raises anything but ConfigError; the rest is a FullConfig
    with an int in every count field and a finite float in every other
    number."""
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    _assert_typed_and_finite(cfg)


def _assert_typed_and_finite(cfg):
    """An int in every count field of ``cfg`` and a finite float in every
    other number."""
    assert isinstance(cfg, FullConfig)
    scene = cfg.scene
    fields = [*((k, getattr(cfg.waveform, k)) for k in _WAVEFORM_KEYS),
              *((k, getattr(cfg.arrays, k))
                for k in (*_ARRAY_KEYS, "wavelength_m")),
              *((k, getattr(scene, k)) for k in ("n_subarrays", "n_nlos_paths")),
              *(("pair", x) for x in (*scene.ap_position_m, *scene.irs_position_m,
                                      *scene.doa_prior_rad)),
              *(("target", x) for t in scene.targets
                for x in (*t.position_m, t.radial_velocity_mps, t.rcs))]
    for name, value in fields:
        assert type(value) is (int if name.startswith("n_") else float), name
        assert math.isfinite(value), name
    assert scene.rician_k_db is None or (type(scene.rician_k_db) is float
                                         and math.isfinite(scene.rician_k_db))


# Every key that a file can set, as the override key that sets it, and the
# wavelength, each with any value; the targets as TargetConfig entries, as
# the API takes them.
_API_TARGETS = st.lists(st.builds(
    TargetConfig, position_m=_PAIR | _VALUES, radial_velocity_mps=_VALUES,
    rcs=_VALUES) | _NOT_A_MAPPING, min_size=1, max_size=3) | _NOT_A_MAPPING
_OVERRIDE = st.sampled_from(sorted(
    _WAVEFORM_KEYS | _ARRAY_KEYS | _SCENE_KEYS - {"doa_prior_deg"}
    | {"doa_prior_rad", "wavelength_m"})).flatmap(
        lambda key: st.fixed_dictionaries({key: _API_TARGETS if key == "targets"
                                           else _value(key)}))


@given(override=_OVERRIDE)
@settings(max_examples=300, deadline=None)
def test_any_override_gives_a_config_or_config_error(override):
    """Through the Python API too, no value of any key raises anything but
    ConfigError, and the rest is a config with typed, finite fields."""
    try:
        cfg = with_overrides(FullConfig(), **override)
    except ConfigError:
        return
    _assert_typed_and_finite(cfg)

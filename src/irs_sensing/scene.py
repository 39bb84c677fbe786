"""Physical scene: array responses, channels, reflection profiles, truth.

Geometry convention (fixed once, used everywhere): both uniform linear
arrays lie along the +y axis with broadside along +x.  The direction to a
point is measured from broadside, positive when the point lies toward
negative y, i.e. theta = arcsin(-u_y) for the unit vector u pointing at
it.  With the reference layout (surface at (100, 100), targets around
(540, -200)) this puts both targets inside the [30 deg, 45 deg] prior.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import (SPEED_OF_LIGHT, ArrayConfig, FullConfig, SceneConfig,
                     WaveformConfig)
from .errors import (ConfigError, DegenerateGeometry, DuplicateParameter,
                     InfeasibleTiming, InvalidPartition, OutOfRange)

# Log-distance path loss in dB: PL_INTERCEPT + PL_SLOPE*log10(D) + shadowing
PL_INTERCEPT_DB = 68.0
PL_SLOPE_DB = 20.0
PL_SHADOW_STD_DB = 5.8


def steering_vector(theta, n_elem: int, spacing: float,
                    wavelength: float) -> np.ndarray:
    """Unit-norm ULA response; element n carries phase 2*pi*n*d*sin(theta)/lambda.

    A scalar angle gives an N-vector, a 1-D array of G angles an N x G
    matrix whose columns equal the scalar calls bit for bit, and a (B, K)
    array a stack of B such N x K matrices.
    """
    n = np.arange(n_elem)
    phase = np.multiply.outer(2j * np.pi * n * spacing, np.sin(theta)) / wavelength
    steer = np.exp(phase) / math.sqrt(n_elem)
    return steer if steer.ndim < 3 else steer.swapaxes(0, 1)


def steering_derivative(theta, n_elem: int, spacing: float,
                        wavelength: float) -> np.ndarray:
    """Elementwise derivative of steering_vector with respect to the angle."""
    n = np.arange(n_elem)
    scale = np.multiply.outer(2j * np.pi * n * spacing, np.cos(theta)) / wavelength
    return steering_vector(theta, n_elem, spacing, wavelength) * scale


def angle_from_broadside(origin, point) -> float:
    """Direction of ``point`` seen from an array at ``origin`` (see module doc)."""
    delta = np.asarray(point, float) - np.asarray(origin, float)
    dist = np.linalg.norm(delta)
    if dist == 0.0:
        raise DegenerateGeometry("coincident points have no direction")
    return math.asin(-delta[1] / dist)


@dataclass(frozen=True)
class SceneTruth:
    """Ground-truth parameters, one array over the targets per parameter."""

    theta_rad: np.ndarray
    range_m: np.ndarray
    delay_s: np.ndarray      # round-trip surface-target delay, 2*range/c
    doppler_hz: np.ndarray   # 2 * radial_velocity * carrier / c
    gain: np.ndarray         # lumped two-leg propagation gain (complex)
    sync_delay_s: float      # known AP-surface round trip, common to all targets

    @property
    def n_targets(self) -> int:
        return len(self.theta_rad)


@dataclass(frozen=True)
class RankOneParts:
    """Leading singular triple, matrix ~ sigma * outer(u, v)."""

    sigma: float
    u: np.ndarray   # surface-side unit vector
    v: np.ndarray   # AP-side unit vector


@dataclass(frozen=True)
class ChannelMatrix:
    """AP-to-surface channel (n_irs_elements x n_ap_antennas), or a stack
    (B, N, M) of one per trial; ``dominant`` is recorded when it is built."""

    matrix: np.ndarray
    dominant: RankOneParts

    def irs_side_vector(self) -> np.ndarray:
        """Dominant surface-side vector(s) for the cross-phase DOA ratio."""
        return self.dominant.u

    def singular_ratio(self) -> np.ndarray:
        """Second-to-first singular value ratio of each trial's channel."""
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if (s[..., 0] == 0.0).any():
            raise DegenerateGeometry("zero channel matrix")
        return s[..., 1] / s[..., 0] if s.shape[-1] > 1 else 0 * s[..., 0]

    def trials(self, s: slice) -> ChannelMatrix:
        """The channels of the trials in slice s of a stack, or a shared one."""
        d = self.dominant
        return self if self.matrix.ndim == 2 else ChannelMatrix(
            self.matrix[s], RankOneParts(d.sigma[s], d.u[s], d.v[s]))


def stack_channels(channels: Sequence[ChannelMatrix]) -> ChannelMatrix:
    """The channels of B trials as one stack along a leading trial axis."""
    parts = [c.dominant for c in channels]
    return ChannelMatrix(np.stack([c.matrix for c in channels]), RankOneParts(
        np.array([p.sigma for p in parts]), np.stack([p.u for p in parts]),
        np.stack([p.v for p in parts])))


@dataclass(frozen=True)
class PhaseProfile:
    """Per-element reflection phases in [0, 2*pi) for one observation phase."""

    phases: np.ndarray
    phase_index: int

    def diagonal(self) -> np.ndarray:
        return np.exp(1j * self.phases)


def relayed_response(channel: ChannelMatrix, profile: PhaseProfile,
                     steer: np.ndarray) -> np.ndarray:
    """AP-side response H^T diag(phi) a of every surface steering column.

    ``steer`` is N x G (surface steering vectors or their derivatives) or
    a stack (B, N, G); the result is M x G, with the leading trial axis of
    a stacked channel or steer.  Every AP-side target response of the
    model is this one product.
    """
    return (channel.matrix.swapaxes(-1, -2)
            @ (profile.diagonal()[:, None] * steer))


@dataclass(frozen=True)
class SensingLimits:
    min_range_m: float
    max_range_m: float
    max_speed_mps: float


def sensing_limits(waveform: WaveformConfig) -> SensingLimits:
    """Range window and unambiguous speed implied by the pulse timing."""
    full = waveform.full_symbol_s
    return SensingLimits(
        min_range_m=SPEED_OF_LIGHT * full / 2,
        max_range_m=SPEED_OF_LIGHT * (full + waveform.cyclic_prefix_s) / 2,
        max_speed_mps=SPEED_OF_LIGHT / (2 * waveform.carrier_freq_hz * waveform.pri_s),
    )


def ap_irs_distance(scene: SceneConfig) -> float:
    d = np.linalg.norm(np.asarray(scene.irs_position_m, float)
                       - np.asarray(scene.ap_position_m, float))
    if d == 0.0:
        raise DegenerateGeometry("AP and surface positions coincide")
    return float(d)


def _target_geometry(scene: SceneConfig, waveform: WaveformConfig,
                     tgt) -> tuple[float, float, float, float]:
    """Range from the surface, direction, round-trip delay, Doppler shift."""
    rng_m = float(np.linalg.norm(np.asarray(tgt.position_m, float)
                                 - np.asarray(scene.irs_position_m, float)))
    return (rng_m, angle_from_broadside(scene.irs_position_m, tgt.position_m),
            2 * rng_m / SPEED_OF_LIGHT,
            2 * tgt.radial_velocity_mps * waveform.carrier_freq_hz / SPEED_OF_LIGHT)


def validate_scene(scene: SceneConfig, waveform: WaveformConfig,
                   arrays: ArrayConfig) -> None:
    """Check ranges, the DOA prior, timing feasibility, and separability.

    Separability uses 1e-3 of the classical resolution cell in each
    parameter: coinciding targets break identifiability of the
    factorization, but demanding a full cell would reject legitimate
    closely-spaced scenes.
    """
    limits = sensing_limits(waveform)
    lo, hi = scene.doa_prior_rad
    params = []     # (direction, delay, Doppler) per target
    for i, tgt in enumerate(scene.targets):
        rng_m, theta, delay, doppler = _target_geometry(scene, waveform, tgt)
        if not (limits.min_range_m <= rng_m <= limits.max_range_m):
            raise OutOfRange(
                f"target {i} at {rng_m:.1f} m outside "
                f"[{limits.min_range_m:.1f}, {limits.max_range_m:.1f}] m")
        if not (lo <= theta <= hi):
            raise OutOfRange(f"target {i} DOA {math.degrees(theta):.2f} deg "
                             f"outside the prior interval")
        params.append((theta, delay, doppler))

    cells = (("a DOA", 2.0 / arrays.n_irs_elements),
             ("a delay", waveform.symbol_duration_s / waveform.n_subcarriers),
             ("a Doppler shift", 1.0 / (waveform.n_pulses * waveform.pri_s)))
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            for (what, cell), a, b in zip(cells, params[i], params[j]):
                if abs(a - b) < 1e-3 * cell:
                    raise DuplicateParameter(f"targets {i},{j} share {what}")

    # The echo of pulse p must arrive before pulse p+1 is transmitted.
    round_trip = 2 * ap_irs_distance(scene) / SPEED_OF_LIGHT
    needed = round_trip + 2 * waveform.full_symbol_s + waveform.cyclic_prefix_s
    if waveform.pri_s < needed - 1e-15:
        raise InfeasibleTiming(
            f"pulse interval {waveform.pri_s:.3e} s < required {needed:.3e} s")


def _complex_normal(rng: np.random.Generator, scale: float = 1.0) -> complex:
    return (scale / math.sqrt(2)) * complex(rng.standard_normal(), rng.standard_normal())


def _shadowed_leg_gain(distance_m: float, rng: np.random.Generator) -> complex:
    """One-way log-distance loss with lognormal shadowing, Rayleigh phase."""
    kappa_db = (PL_INTERCEPT_DB + PL_SLOPE_DB * math.log10(distance_m)
                + rng.normal(0.0, PL_SHADOW_STD_DB))
    return _complex_normal(rng, math.sqrt(10.0 ** (-0.1 * kappa_db)))


def derive_target_truth(scene: SceneConfig, waveform: WaveformConfig,
                        arrays: ArrayConfig,
                        rng: np.random.Generator) -> SceneTruth:
    """Geometry-derived per-target parameters plus drawn propagation gains.

    The lumped gain multiplies the transmit amplitude, two independent
    shadowed leg draws (surface->target and back), the carrier phase of the
    total delay, the modulation symbol, and the symbol duration.
    """
    validate_scene(scene, waveform, arrays)
    tau0 = 2 * ap_irs_distance(scene) / SPEED_OF_LIGHT
    params = []     # (direction, range, delay, Doppler, gain) per target
    for tgt in scene.targets:
        rng_m, theta, delay, doppler = _target_geometry(scene, waveform, tgt)
        two_leg = (_shadowed_leg_gain(rng_m, rng) * _shadowed_leg_gain(rng_m, rng)
                   * abs(tgt.rcs))
        gain = (math.sqrt(waveform.tx_power_w) * two_leg
                * np.exp(-2j * np.pi * waveform.carrier_freq_hz * (delay + tau0))
                * waveform.modulation_symbol * waveform.symbol_duration_s)
        params.append((theta, rng_m, delay, doppler, complex(gain)))
    theta, rng_m, delay, doppler, gain = map(np.array, zip(*params))
    return SceneTruth(theta_rad=theta, range_m=rng_m, delay_s=delay,
                      doppler_hz=doppler, gain=gain, sync_delay_s=tau0)


def build_los_channel(scene: SceneConfig, arrays: ArrayConfig,
                      rng: np.random.Generator) -> ChannelMatrix:
    """Single-path AP-surface channel: shadowed gain times an outer product."""
    dist = ap_irs_distance(scene)
    aoa = angle_from_broadside(scene.irs_position_m, scene.ap_position_m)
    aod = angle_from_broadside(scene.ap_position_m, scene.irs_position_m)
    a_irs = steering_vector(aoa, *arrays.surface)
    a_ap = steering_vector(aod, arrays.n_ap_antennas, arrays.element_spacing_m,
                           arrays.wavelength_m)
    gain = _shadowed_leg_gain(dist, rng)
    matrix = gain * np.outer(a_irs, a_ap.conj())
    phase = gain / abs(gain)
    return ChannelMatrix(matrix, RankOneParts(sigma=abs(gain), u=a_irs * phase,
                                              v=a_ap.conj()))


def build_rician_channel(g_los: ChannelMatrix, rician_db: float | None,
                         n_nlos: int, arrays: ArrayConfig,
                         rng: np.random.Generator) -> ChannelMatrix:
    """Mix the line-of-sight channel with scattered outer-product paths.

    The scattered part sums ``n_nlos`` random-angle paths and is
    renormalized to the line-of-sight Frobenius norm, so the k-factor alone
    sets the power split.  ``rician_db=None`` (or infinite) returns the
    line-of-sight channel unchanged.
    """
    if rician_db is None or math.isinf(rician_db):
        return g_los
    scattered = np.zeros_like(g_los.matrix)
    for _ in range(n_nlos):
        aoa = rng.uniform(-np.pi / 2, np.pi / 2)
        aod = rng.uniform(-np.pi / 2, np.pi / 2)
        a_irs = steering_vector(aoa, *arrays.surface)
        a_ap = steering_vector(aod, arrays.n_ap_antennas,
                               arrays.element_spacing_m, arrays.wavelength_m)
        scattered = scattered + _complex_normal(rng) * np.outer(a_irs, a_ap.conj())
    norm_s = np.linalg.norm(scattered)
    if norm_s > 0:
        scattered = scattered * (np.linalg.norm(g_los.matrix) / norm_s)
    k_lin = 10.0 ** (rician_db / 10.0)
    matrix = (math.sqrt(k_lin / (1 + k_lin)) * g_los.matrix
              + math.sqrt(1 / (1 + k_lin)) * scattered)
    u_mat, s, vh = np.linalg.svd(matrix)
    return ChannelMatrix(matrix, RankOneParts(sigma=s[0], u=u_mat[:, 0],
                                              v=vh[0]))


def subarray_beam_directions(doa_prior: tuple[float, float], n_subarrays: int,
                             offset_cells: float) -> np.ndarray:
    """Cell-center beam angles over the prior, shifted by offset_cells cells."""
    lo, hi = doa_prior
    s = np.arange(n_subarrays)
    return lo + (hi - lo) * (s + 0.5 + offset_cells) / n_subarrays


def design_phase_profiles(doa_prior: tuple[float, float], arrays: ArrayConfig,
                          n_subarrays: int = 4) -> tuple[PhaseProfile, PhaseProfile]:
    """Two diverse reflection profiles from interleaved subarray beams.

    Contiguous subarrays each steer a conjugate-phase beam at one cell
    center of the prior interval; the second profile shifts every beam by
    half a cell so the two profiles are never proportional and their
    cross-phase ratio varies over the prior.
    """
    n_elem = arrays.n_irs_elements
    if n_elem % n_subarrays != 0:
        raise InvalidPartition(
            f"{n_elem} elements not divisible into {n_subarrays} subarrays")
    if doa_prior[1] <= doa_prior[0]:
        raise ConfigError("empty DOA prior interval")

    def one_profile(offset_cells: float, index: int) -> PhaseProfile:
        beams = subarray_beam_directions(doa_prior, n_subarrays, offset_cells)
        phases = np.zeros(n_elem)
        size = n_elem // n_subarrays
        for s, beam in enumerate(beams):
            idx = np.arange(s * size, (s + 1) * size)
            phases[idx] = (-2 * np.pi * idx * arrays.element_spacing_m
                           * np.sin(beam) / arrays.wavelength_m) % (2 * np.pi)
        return PhaseProfile(phases=phases, phase_index=index)

    return one_profile(0.0, 1), one_profile(0.5, 2)


def design_beamformers(channel: ChannelMatrix, n_pulses: int) -> np.ndarray:
    """Per-pulse transmit weights matched to the channel's AP-side factor.

    Every column is the same unit-norm vector w chosen so the combined
    gain (w dotted with the AP-side channel direction) has unit modulus;
    returning the full matrix keeps pulse-varying weights possible.
    """
    w = channel.dominant.v.conj()
    w = w / np.linalg.norm(w)
    return np.tile(w[:, None], (1, n_pulses))


class ScenePoint(NamedTuple):
    """Everything the model needs at one operating point, in the argument
    order of the synthesis and bound functions (``f(*point, ...)``)."""

    truth: SceneTruth
    channel: ChannelMatrix
    profiles: tuple[PhaseProfile, PhaseProfile]
    combiner: np.ndarray


def draw_scene_point(cfg: FullConfig, profiles: tuple[PhaseProfile, PhaseProfile],
                     rng: np.random.Generator) -> ScenePoint:
    """Draw the truth, then the line-of-sight channel, then its scattered
    paths (when ``rician_k_db`` is set) from ``rng``; the transmit weights
    follow from the channel.  Validation happens in derive_target_truth.
    """
    truth = derive_target_truth(cfg.scene, cfg.waveform, cfg.arrays, rng)
    channel = build_rician_channel(build_los_channel(cfg.scene, cfg.arrays, rng),
                                   cfg.scene.rician_k_db, cfg.scene.n_nlos_paths,
                                   cfg.arrays, rng)
    return ScenePoint(truth, channel, profiles,
                      design_beamformers(channel, cfg.waveform.n_pulses))

"""Simulation and estimation toolkit for surface-assisted NLOS sensing.

A reflecting surface relays pulsed multicarrier illumination around a
blocked line of sight; echoes form a pulse x antenna x subcarrier tensor
whose structured low-rank factorization yields each target's direction,
Doppler shift, and delay.  The package covers scene synthesis, tensor
factorization, two-phase ambiguity resolution, variance lower bounds, and
a Monte Carlo benchmarking harness.
"""
from .config import (SPEED_OF_LIGHT, ArrayConfig, FullConfig, SceneConfig,
                     TargetConfig, WaveformConfig, load_config, with_overrides)
from .cpd import (FactorTriple, check_uniqueness, cp_decompose,
                  cp_reconstruct, khatri_rao, reconstruction_error)
from .crb import CrbBounds, compute_crb, compute_fim
from .errors import (AmbiguousAlignment, ConfigError, DegenerateGeometry,
                     DegenerateProfilePair, DimensionMismatch,
                     DuplicateParameter, EstimationError, IllConditionedShift,
                     InfeasibleTiming, InvalidPartition, NoFeasibleGrid,
                     OutOfRange, RankDeficient, RankOneChannel, SensingError,
                     UniquenessError, UnwrapInfeasible)
from .estimation import (Estimates, align_columns, compute_gamma_statistics,
                         estimate_delay, estimate_doa_multirank,
                         estimate_doppler, estimate_targets, estimate_trials,
                         gamma_ratio_curve, greedy_match, resolve_doa)
from .experiments import (ExperimentSpec, ResultRow, build_spec, emit_results,
                          run_experiment)
from .scene import (ChannelMatrix, ScenePoint, SceneTruth, SensingLimits,
                    build_los_channel, build_rician_channel,
                    derive_target_truth, design_beamformers,
                    design_phase_profiles, draw_scene_point, relayed_response,
                    sensing_limits, steering_vector, validate_scene)
from .synthesis import (apply_noise, build_factor_matrices, echo_tensors,
                        noise_sigma_for_snr, synthesize_echo_tensor)

__version__ = "1.0.0"

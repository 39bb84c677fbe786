"""Exception hierarchy for the sensing library.

``EstimationError`` subclasses mark per-trial failures that a Monte Carlo
harness counts and excludes from MSE accumulation; everything else signals
misconfiguration or numerical breakdown that should abort the run.
"""
import numpy as np


class SensingError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(SensingError):
    """Invalid or inconsistent configuration input."""


class DegenerateGeometry(ConfigError):
    """Two scene points coincide where a direction or distance is needed."""


class OutOfRange(ConfigError):
    """A target lies outside the sensable range window."""


class DuplicateParameter(ConfigError):
    """Two targets share a DOA, delay, or Doppler within resolution."""


class InfeasibleTiming(ConfigError):
    """Pulse repetition interval too short for the round-trip echo window."""


class InvalidPartition(ConfigError):
    """Reflecting-surface element count not divisible into subarrays."""


class DimensionMismatch(ConfigError):
    """Matrix/tensor operands have inconsistent shapes."""


class InsufficientSampling(ConfigError):
    """Time-domain integration requested with too few sample points."""


class EstimationError(SensingError):
    """Base class for recoverable per-trial estimator failures."""


class UniquenessError(EstimationError):
    """Factorization is not identifiable for the given tensor dimensions."""


class RankDeficient(EstimationError):
    """Observed tensor carries fewer identifiable components than requested."""


class IllConditionedShift(EstimationError):
    """Shift-invariance subspace equation too ill-conditioned to solve."""


class AmbiguousAlignment(EstimationError):
    """Cross-phase column matching has no clear winner for some column."""


class NoFeasibleGrid(EstimationError):
    """Every candidate grid point was excluded from the DOA search."""


class DegenerateProfilePair(EstimationError):
    """The two reflection profiles give a constant cross-phase ratio."""


class RankOneChannel(EstimationError):
    """Single-phase correlation DOA is unreliable on a rank-one channel."""


class DivisionBlowup(EstimationError):
    """All entries of a normalizing divisor were below threshold."""


class UnwrapInfeasible(EstimationError):
    """No alias of the raw delay lands inside the feasible window."""


def record_failures(errors: list, failed, make_error) -> None:
    """Give each flagged trial b of a stack without an error yet
    ``make_error(b)``; an estimator step calls it in check order, so each
    trial keeps the first check it fails."""
    for b in np.flatnonzero(failed):
        if errors[b] is None:
            errors[b] = make_error(b)


class SingularFim(SensingError):
    """Fisher information matrix numerically singular; bounds undefined."""

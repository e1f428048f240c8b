"""Exception types shared across the package."""


class CoupledSplittingError(Exception):
    """Base class for every error raised by this package."""


class StructuralError(CoupledSplittingError):
    """Problem data is malformed: shape mismatch, asymmetry, indefiniteness."""


class UsageError(CoupledSplittingError):
    """An operation was called with incompatible arguments or in the wrong mode."""


class ConditionError(CoupledSplittingError):
    """A positive-definiteness condition required for unique subproblem
    solvability does not hold."""


class UnsupportedOracleError(CoupledSplittingError):
    """The requested exact computation is not available for this term kind."""


class DomainError(CoupledSplittingError):
    """Point lies outside the domain of a separable term."""


class SubproblemStructureError(UsageError):
    """A block subproblem has no closed form under the direct variant; a
    linearized variant must be used instead."""


class InfeasibleError(CoupledSplittingError):
    """The stationarity system is inconsistent; no certified point exists."""


class CertificateError(CoupledSplittingError):
    """A numeric certificate failed its verification checks."""


class EnumerationLimitError(UsageError):
    """Averaging over block orders requested beyond its supported cost."""

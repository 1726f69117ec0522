"""Exception hierarchy shared across the package."""


class EigtrackError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(EigtrackError):
    """A factorization met a pivot at or below the configured floor."""


class NoConvergence(EigtrackError):
    """An iterative solver exhausted its iteration budget."""


class DimensionMismatch(EigtrackError):
    """Operands have inconsistent shapes."""


class SingularSchurComplement(EigtrackError):
    """The algebraic-elimination Schur complement is singular; an
    eigenvalue is entering the finite spectrum from infinity."""


class DegenerateVector(EigtrackError):
    """The bilinear product v^T v vanished, so the normalization
    constraint cannot be imposed on this vector."""


class DegeneratePair(EigtrackError):
    """Left/right eigenvector product vanished; participation factors
    are undefined for this mode."""


class ZeroVector(EigtrackError):
    """An operation received an all-zero vector."""


class NoCandidate(EigtrackError):
    """Re-initialization found no spectrum entry resembling the
    reference eigenvector."""


class DisconnectedNetwork(EigtrackError):
    """The bus graph of a network model is not connected."""


class ManifestError(EigtrackError):
    """A pencil-sequence manifest file is malformed."""


class OffGrid(EigtrackError, ValueError):
    """A tabulated provider was asked for a parameter value it does not
    list."""


class AmbiguousTarget(EigtrackError):
    """Two spectrum entries score identically for a target selector."""


class TrackingAborted(EigtrackError):
    """Tracking failed irrecoverably; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory

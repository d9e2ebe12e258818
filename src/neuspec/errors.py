"""Exception types raised by the solver layers.

Numerical failures get their own classes so callers (and the CLI, which maps
them to exit codes) can distinguish "you passed garbage" from "the computation
degenerated".
"""


class NeuspecError(Exception):
    """Base class for all package errors."""


class InvalidCurveError(NeuspecError, ValueError):
    """Radius function is non-positive somewhere, or curve spec is malformed."""


class DomainError(NeuspecError, ValueError):
    """Argument outside the supported range of a special function."""


class ChargePlacementError(NeuspecError):
    """A charge point landed inside or on the boundary.

    Carries the index of the first offending point; usually means the
    imaginary shift is too large (or too small) for the curve.
    """

    def __init__(self, index, point, message=None):
        self.index = index
        self.point = point
        super().__init__(
            message or f"charge point {index} at {point} is not strictly exterior"
        )


class SingularKernelError(NeuspecError):
    """A boundary node and a charge point (nearly) coincide."""


class DegenerateNormError(NeuspecError):
    """Interior-norm matrix has no positive eigenvalue: the trial basis lies
    entirely in its numerical kernel."""


class RankCollapseError(NeuspecError):
    """Stacked matrix has numerical rank zero at the requested cutoff."""


class NoInteriorMassError(NeuspecError):
    """Trial space is numerically annihilated by the interior-norm factor."""


class ConvergenceFailureError(NeuspecError):
    """Minimum search exhausted its evaluation budget.

    The best iterate found so far is attached so callers can still report it.
    """

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class IllSeparatedError(NeuspecError):
    """Two energies are too close to divide by their difference."""


class IncompleteEnumerationError(NeuspecError):
    """Mode enumeration hit the angular-order cap before exhausting a window."""


class IdentityViolationError(NeuspecError):
    """An exact analytic identity failed its tolerance (likely an upstream bug)."""


class NumericalError(NeuspecError):
    """Generic numerical failure with diagnostics."""

"""Exception types raised by the solver layers.

Every class derives from ``NeuspecError``.  The input errors,
``DomainError`` and its subclass ``InvalidCurveError``, are also
``ValueError``s; the numerical failures are not.  That base class alone
tells "you passed garbage" from "the computation degenerated": the CLI
exits 2 (usage error) for a ``NeuspecError`` that is a ``ValueError`` and 3
(numerical failure) for any other, so a new input error must subclass
``DomainError``, and the library raises no bare ``ValueError``, which would
end the CLI in a traceback.
A search that runs out of evaluations is an outcome, not an error: the
search returns its best iterate marked unconverged.
"""


class NeuspecError(Exception):
    """Base class for all package errors."""


class DomainError(NeuspecError, ValueError):
    """An argument outside its supported range: an energy, a bracket, a
    sample count, a flag or config line, a special-function argument or a
    disc-suite bound.

    An input error: the ``ValueError`` base makes the CLI exit 2, not 3.
    """


class InvalidCurveError(DomainError):
    """Radius function is non-positive somewhere, curve spec is malformed, or
    a discretization parameter (M, N, tau, nx, filter scale) is out of range.
    """


class ChargePlacementError(NeuspecError):
    """A charge point landed inside or on the boundary.

    Carries the index of the first offending point; usually means the
    imaginary shift is too large (or too small) for the curve.
    """

    def __init__(self, index, point, message=None):
        self.index = index
        # Python floats print as ``nan``, numpy scalars as ``np.float64(nan)``
        self.point = tuple(map(float, point))
        super().__init__(
            message
            or f"charge point {index} at {self.point} is not strictly exterior"
        )


class SingularKernelError(NeuspecError):
    """A boundary node and a charge point (nearly) coincide."""


class DegenerateNormError(NeuspecError):
    """Interior-norm matrix has no positive eigenvalue: the trial basis lies
    entirely in its numerical kernel."""


class RankCollapseError(NeuspecError):
    """Stacked matrix has numerical rank zero at the cutoff ``tension.EPS``."""


class NoInteriorMassError(NeuspecError):
    """Trial space is numerically annihilated by the interior-norm factor."""


class IncompleteEnumerationError(NeuspecError):
    """Mode enumeration hit the angular-order cap before exhausting a window."""


class NumericalError(NeuspecError):
    """Generic numerical failure with diagnostics."""

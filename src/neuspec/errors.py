"""Exception types raised by the solver layers.

The library raises two kinds, both ``NeuspecError``s, and the kind is the
CLI's exit rule.  A ``DomainError`` is an input it cannot take (exit 2);
it is also a ``ValueError``.  A ``NumericalError`` is a computation that
degenerated (exit 3).  The library raises no bare ``ValueError``, which
would end the CLI in a traceback.
A search that runs out of evaluations is an outcome, not an error: the
search returns its best iterate marked unconverged.
"""


class NeuspecError(Exception):
    """Base class for all package errors."""


class DomainError(NeuspecError, ValueError):
    """An input outside its supported range: a curve spec or radius, a
    discretization parameter (M, N, tau, nx, filter scale), an energy, a
    bracket, a sample count, a flag or config line, a special-function
    argument or a disc-suite bound."""


class NumericalError(NeuspecError):
    """A computation that degenerated: a charge point not strictly exterior,
    a node on a charge, a rank-zero or annihilated trial space, a mode
    enumeration cut off by its order cap, or a search with no usable
    sample."""

"""Bessel functions and zeros of J_n', all taken from scipy.special.

Y0, Y1, J_n and J_n' are ``y0``, ``y1``, ``jv`` and ``jvp`` (Cephes/AMOS
kernels, relative error well inside the 1e-13/1e-12 budgets), the zeros of
J_n' ``jnp_zeros`` (Zhang & Jin, Computation of Special Functions, 1996,
ch. 5); the tests check them against series, identities and mpmath.  The
ranges are capped at what the solver and the disc data need; out-of-range
arguments raise instead of degrading.

Y0 and Y1 are the kernels of every assembly.  :func:`kernel_threads`
workers run them on row blocks of an evaluation's traces
(``assembly.SystemBuilder.traces``) and on the ``mode`` raster's near field
(``assembly.point_source_sum``, once per ``assembly.raster_sum``), each
writing its own rows of a shared array through ``out=``; scipy's loops
release the interpreter lock and take each element on its own, so the
values are bit-equal for any count.  The raster's far field takes one Y0
and one Y1 per far tile and charge, at the tile centres, on the calling
thread.
"""

import os

import numpy as np
from scipy import special as _sp

from .errors import DomainError

_N_MAX = 200
_X_MAX = 1e4
_L_MAX = 100

# what ``cli.main`` sets for ``--threads``, in the order OpenBLAS reads them
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _cores():
    """Cores this process may run on (all cores where the platform cannot
    say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def kernel_threads():
    """Threads of the element-wise kernels (``SystemBuilder``'s tables and
    traces, the ``mode`` raster's near field), which no output depends on:
    the first of OPENBLAS_NUM_THREADS and OMP_NUM_THREADS that holds a
    positive integer, else the number of cores this process may run on,
    capped at that number."""
    cores = _cores()
    for var in _THREAD_VARS:
        try:
            n = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if n >= 1:
            return min(n, cores)
    return cores


def _check_positive(x, name):
    x = np.asarray(x, dtype=float)
    # NaN fails both comparisons
    if not (np.all(x > 0) and np.all(x < np.inf)):
        raise DomainError(f"{name} requires finite x > 0")
    return x


def bessel_y0(x, out=None):
    """Y0(x) for finite x > 0; scalar or array, written to ``out`` if
    given."""
    return _sp.y0(_check_positive(x, "bessel_y0"), out=out)


def bessel_y1(x, out=None):
    """Y1(x) for finite x > 0; scalar or array, written to ``out`` if
    given."""
    return _sp.y1(_check_positive(x, "bessel_y1"), out=out)


def _check_order(n):
    n = int(n)
    if n < 0 or n > _N_MAX:
        raise DomainError(f"order must be in [0, {_N_MAX}]")
    return n


def _check_jn_args(n, x):
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > _X_MAX):
        raise DomainError(f"argument must be in [0, {_X_MAX:g}]")
    return n, x


def bessel_jn(n, x):
    """J_n(x) for integer 0 <= n <= 200 and 0 <= x <= 1e4."""
    return _sp.jv(*_check_jn_args(n, x))


def bessel_jn_prime(n, x):
    """J_n'(x) for integer 0 <= n <= 200 and 0 <= x <= 1e4."""
    return _sp.jvp(*_check_jn_args(n, x))


def jnprime_zero(n, l):
    """l-th positive zero of J_n' (n <= 200, l <= 100)."""
    n = _check_order(n)
    l = int(l)
    if l < 1 or l > _L_MAX:
        raise DomainError(f"zero index must be in [1, {_L_MAX}]")
    return float(_sp.jnp_zeros(n, l)[-1])


def jnprime_zeros_upto(n, x_hi):
    """All positive zeros of J_n' that are <= x_hi, in increasing order.

    The first zero exceeds n and consecutive zeros lie more than pi apart,
    so (n, x_hi] holds at most floor((x_hi - n) / pi) + 1 of them."""
    n = _check_order(n)
    if x_hi > _X_MAX:
        raise DomainError(f"argument must be <= {_X_MAX:g}")
    if x_hi <= n:
        return np.zeros(0)
    zeros = _sp.jnp_zeros(n, int((x_hi - n) // np.pi) + 1)
    return zeros[zeros <= x_hi]


def jnprime_zeros(n, count):
    """First ``count`` positive zeros of J_n' (count <= 100)."""
    n = _check_order(n)
    count = int(count)
    if count < 1 or count > _L_MAX:
        raise DomainError(f"count must be in [1, {_L_MAX}]")
    return _sp.jnp_zeros(n, count)

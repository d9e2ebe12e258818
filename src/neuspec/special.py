"""Bessel functions and zeros of J_n'.

Y0/Y1/J_n evaluations are delegated to scipy.special (Cephes/AMOS kernels,
relative error well inside the 1e-13/1e-12 budgets; the test suite checks
them against a high-precision series oracle and standard identities).  The
derivative-zero solver is implemented here: a vectorized sign-change scan
bracketing every zero, refined by Newton iterations safeguarded with
bisection.  Supported ranges are capped at what the solver and the disc
reference data need; out-of-range orders raise instead of degrading.
"""

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NumericalError

_N_MAX = 200
_X_MAX = 1e4
_L_MAX = 100
_SCAN_STEP = 0.25


def bessel_y0(x):
    """Y0(x) for x > 0; scalar or array."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_y0 requires x > 0")
    return _sp.y0(x)


def bessel_y1(x):
    """Y1(x) for x > 0; scalar or array."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("bessel_y1 requires x > 0")
    return _sp.y1(x)


def _check_order(n):
    n = int(n)
    if n < 0 or n > _N_MAX:
        raise DomainError(f"order must be in [0, {_N_MAX}]")
    return n


def bessel_jn(n, x):
    """J_n(x) for integer 0 <= n <= 200 and 0 <= x <= 1e4."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > _X_MAX):
        raise DomainError(f"argument must be in [0, {_X_MAX:g}]")
    return _sp.jv(n, x)


def bessel_jn_prime(n, x):
    """J_n'(x) = (J_{n-1}(x) - J_{n+1}(x)) / 2, with J_{-1} = -J_1."""
    n = _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > _X_MAX):
        raise DomainError(f"argument must be in [0, {_X_MAX:g}]")
    lower = -_sp.jv(1, x) if n == 0 else _sp.jv(n - 1, x)
    return 0.5 * (lower - _sp.jv(n + 1, x))


def _scan_brackets(n, x_hi):
    """Sign-change brackets of J_n' below x_hi.

    Zeros of J_n' are separated by more than pi/sqrt(1 - n^2/x^2) > 3, so a
    0.25 step cannot skip a pair.  Starts just above the order (J_n' > 0
    there for n >= 1; for n = 0 the first zero is that of -J_1).
    """
    start = n + 1e-3 if n else 1e-3
    if x_hi <= start:
        return np.zeros((0, 2))
    xs = np.arange(start, x_hi + _SCAN_STEP, _SCAN_STEP)
    vals = bessel_jn_prime(n, xs)
    sign = np.sign(vals)
    # treat exact zeros as positive-side so the bracket survives
    sign[sign == 0] = 1.0
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return np.stack([xs[flips], xs[flips + 1]], axis=1)


def _refine_zero(n, lo, hi):
    """Newton on J_n' with J_n'' from the recurrence, bisection fallback;
    stops at a relative step of 1e-15 or after 80 iterations."""
    f = lambda x: float(bessel_jn_prime(n, x))

    def fp(x):
        # J_n'' = (J_{n-2} - 2 J_n + J_{n+2}) / 4, with J_{-1} = -J_1, J_{-2} = J_2
        if n >= 2:
            a = _sp.jv(n - 2, x)
        elif n == 1:
            a = -_sp.jv(1, x)
        else:
            a = _sp.jv(2, x)
        return float(0.25 * (a - 2 * _sp.jv(n, x) + _sp.jv(n + 2, x)))
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NumericalError(f"bracket ({lo}, {hi}) does not straddle a zero of J_{n}'")
    x = 0.5 * (lo + hi)
    for _ in range(80):
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0:
            hi = x
        else:
            lo, flo = x, fx
        d = fp(x)
        x_new = x - fx / d if d else 0.5 * (lo + hi)
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 * x:
            return x_new
        x = x_new
    return x


def _first_brackets(n, count):
    """Brackets of the first ``count`` positive zeros of J_n'.  McMahon's
    asymptotics give a generous upper end for the scan window, widened until
    the scan holds them."""
    hi = (count + 0.5 * n + 0.25) * np.pi + 5.0
    for _ in range(8):
        br = _scan_brackets(n, hi)
        if len(br) >= count:
            return br[:count]
        hi *= 1.5
    raise NumericalError(f"failed to bracket {count} zeros of J_{n}' "
                         f"below {hi:g}")


def jnprime_zero(n, l):
    """l-th positive zero of J_n' (n <= 200, l <= 100), ~1e-14 relative."""
    n = _check_order(n)
    l = int(l)
    if l < 1 or l > _L_MAX:
        raise DomainError(f"zero index must be in [1, {_L_MAX}]")
    lo, hi = _first_brackets(n, l)[-1]
    return _refine_zero(n, lo, hi)


def jnprime_zeros_upto(n, x_hi):
    """All positive zeros of J_n' that are <= x_hi, in increasing order."""
    n = _check_order(n)
    if x_hi > _X_MAX:
        raise DomainError(f"argument must be <= {_X_MAX:g}")
    br = _scan_brackets(n, x_hi + _SCAN_STEP)
    zeros = [_refine_zero(n, lo, hi) for lo, hi in br]
    return np.array([z for z in zeros if z <= x_hi])


def jnprime_zeros(n, count):
    """First ``count`` positive zeros of J_n' (count <= 100), one scan."""
    n = _check_order(n)
    count = int(count)
    if count < 1 or count > _L_MAX:
        raise DomainError(f"count must be in [1, {_L_MAX}]")
    return np.array([_refine_zero(n, lo, hi)
                     for lo, hi in _first_brackets(n, count)])

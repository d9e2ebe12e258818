"""Energy sweeps, minimum localization, and certified inclusion bounds.

Near each Neumann eigenvalue E_j the minimum tension is a slightly rounded
V, t(E) ~ s |E - E_j| with a slope s independent of E (the paper's
comparable upper and lower bounds), so ``parabolic_min`` minimizes t^2(E),
optionally from the smallest sample of a coarse grid (the presolve) and its
neighbours.  ``sweep`` and ``localize_minimum`` search with a
``TensionSolver``, each of whose evaluations yields the weighted t_min and
the classical t_clas of its minimizer from one assembled system; nothing is
kept between evaluations.  Located minima convert to bounds on the distance
from E to the Neumann spectrum, in energy units:

    eps_new  = C_est * t_min          (C_est = 1.6)
    eps_clas = C_enn * E * t_clas     (C_enn = 7.4)

The reported slope is a diagnostic that no bound reads: the secant from the
minimum to the nearest of the search's own samples (on the disc, s = 2^-1/2).

The paper's bound holds for the exact tension; the computed one carries a
rounding error of a few u*E (u = 2^-53) from the Bessel kernels and from
k = fl(sqrt(E)), which moves the floor of the computed V off the eigenvalue
by more than the bound's margin (on the disc C_est = 1.6 leaves 13 %).  So
``localize_minimum`` certifies from a tension rounded up by

    delta_t = T_ROUNDING_ULPS * u * E      (T_ROUNDING_ULPS = 10)

The allowance is empirical, not proved.  It was sized from exact disc
eigenvalues (M=256, N=128): over 320 jittered brackets, 40 each around
j'_{30,1} (tau=0.1 and 0.05), j'_{9,7} (tau=0.1), j'_{20,2} (tau=0.05 and
0.07), j'_{8,6} and j'_{15,3} (tau=0.05) and 40 inside [32.4, 32.6] with a
21-point presolve, C_est * t(E) fell short of |E - E_j| by at most 4.0 u*E
on the whole stack and 2.5 u*E per reflection class; delta_t adds 16 u*E
to eps_new, four times the larger.

The presolve samples its coarse grid lazily (``_v_walk``): the grid ends,
then a walk from the dip of the V through them to the smallest sample b.
The rest of the grid is sampled unless the V through b's neighbours, of
slope s and dip E_d, passes through both grid ends:

    |t_end / (s |E_end - E_d|) - 1| <= V_FIT_TOL      (V_FIT_TOL = 0.02)

Then the skipped samples lie on the V away from b, so b and its neighbours
are those of the whole grid.  The tolerance is empirical, not proved.  It
was sized on 21-point grids: 4 jittered brackets inside [40.50, 40.55] on
the three-lobe domain (M=700, N=350, tau=0.025) read end ratios within 3e-4
of 1, and 11 disc brackets with one dip each, around j'_{30,1} (tau=0.1) and
j'_{20,2}, j'_{8,6}, j'_{15,3} (tau=0.05) at M=256, N=128, within 0.0036 of
1; all 15 took 5 samples and returned the whole grid's result bit for bit.
The two-dip bracket [32.4, 32.6] (j'_{9,7} and j'_{30,1}) read 0.66, and the
narrow dip at j'_{20,2} (tau=0.1) left b on the grid's upper end, so both
sampled the whole grid.  Over 120 random disc brackets of width 0.03 to 0.25
in [20, 34], mostly holding several eigenvalues, the check never passed on a
walk whose minimum differed from the whole grid's.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .assembly import SystemBuilder
from .errors import (ConvergenceFailureError, DomainError, NeuspecError,
                     NumericalError)
from .geometry import area, arclength_spectral
from .tension import classical_tension, min_tension

TOL_DEFAULT = 1e-13
C_EST_DEFAULT = 1.6
C_ENNENBACH = 7.4
T_ROUNDING_ULPS = 10.0
V_FIT_TOL = 0.02

_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps
_SQRTE_MAX = math.sqrt(np.finfo(float).max)  # the largest f with f^2 finite

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SweepSample:
    sqrtE: float
    t_min: float
    rank_eps: int
    c_min: float
    rank_H: int
    error: str | None = None

    @property
    def ok(self):
        return self.error is None


@dataclass(frozen=True)
class EigenResult:
    """One certified tension minimum.

    ``t_min`` is the computed minimum tension rounded up by
    ``T_ROUNDING_ULPS * u * E`` (module docstring), so it bounds the exact
    tension at ``E``, and ``eps_new = c_est * t_min``.  ``alpha``,
    ``t_classical``, ``t_second`` (small where the eigenvalue is degenerate)
    and ``slope`` come from the computed tensions.  ``converged`` is False
    when the search ran out of evaluations or ended on a bracket end, where
    the bounds describe the end, not a dip.  ``presolve_failures`` lists the
    (sqrtE, message) of failed presolve samples in grid order; ``n_presolve``
    counts the grid samples evaluated, failed ones included, and
    ``n_evals_total`` every energy evaluated.  ``t_second`` depends on the
    BLAS thread count (three-lobe solve: 1.86 at one thread, 2.13 at two).
    """

    sqrtE: float
    E: float
    t_min: float
    t_classical: float
    alpha: np.ndarray
    eps_new: float
    eps_clas: float
    n_evals: int
    weyl_index: float
    slope: float
    t_second: float
    converged: bool = True
    presolve_failures: tuple = ()
    n_presolve: int = 0
    n_evals_total: int = 0

    @property
    def n_reused(self):
        """The search samples taken from the presolve."""
        return self.n_presolve + self.n_evals - self.n_evals_total


class TensionSolver:
    """Minimum-tension evaluator for one discretization: the ``curve``, M
    boundary nodes and N charges at distance tau.

    It holds only energy-independent data, set once in ``__init__``, so an
    evaluation does not depend on the ones before it.
    """

    def __init__(self, curve, M, N, tau):
        self.curve = curve
        self.builder = SystemBuilder(curve, M, N, tau)

    def evaluate(self, E):
        """TensionEval at energy E, with coefficients normalized to unit
        interior norm, their classical tension and the rank of H."""
        system = self.builder.system(E)
        ev = min_tension(system.A_w, system.B, basis=system.basis)
        return replace(ev, E=float(E), rank_H=len(system.B),
                       t_classical=classical_tension(ev.alpha, system.A_nor,
                                                     system.B))

    def classical(self, E, alpha):
        """Classical (unweighted) tension of the coefficients alpha at E."""
        system = self.builder.system(E)
        return classical_tension(alpha, system.A_nor, system.B)


def _attempt(solver, E):
    """The evaluation at energy E, or the message (a ``str``) of its
    numerical failure.  An input error, a ``NeuspecError`` that is also a
    ``ValueError``, propagates."""
    try:
        return solver.evaluate(E)
    except NeuspecError as exc:
        if isinstance(exc, ValueError):
            raise
        return str(exc)


def sweep(solver, sqrtE_min, sqrtE_max, steps):
    """Minimum tension of ``solver`` at ``steps`` equispaced frequencies.

    Numerical failures at individual energies are recorded as samples with
    an error message; an input error (a ``ValueError``) aborts the sweep.
    """
    if steps < 2:
        raise DomainError("steps must be >= 2")
    if not 0 < sqrtE_min < sqrtE_max <= _SQRTE_MAX:
        raise DomainError("need 0 < sqrtE_min < sqrtE_max, sqrtE_max^2 finite")
    out = []
    for f in np.linspace(sqrtE_min, sqrtE_max, steps):
        ev = _attempt(solver, f * f)
        if not isinstance(ev, str):
            out.append(SweepSample(sqrtE=float(f), t_min=ev.t_min,
                                   rank_eps=ev.rank_eps, c_min=ev.c_min,
                                   rank_H=ev.rank_H))
        else:
            out.append(SweepSample(sqrtE=float(f), t_min=float("nan"),
                                   rank_eps=0, c_min=float("nan"), rank_H=0,
                                   error=ev))
    return out


def _v_walk(sample, Es, ts):
    """Sample the grid ``Es`` only where a V-fit puts the minimum.

    ``sample(i)`` evaluates grid point i, writing its tension to ``ts[i]``
    (which holds inf until then), and returns whether the evaluation
    succeeded.  Returns True when the smallest sample is an interior grid
    point that the isolation check vouches for as the minimum of the whole
    grid; False when the caller must sample the rest of the grid.
    """
    n = len(Es)
    if not (sample(0) and sample(n - 1)):
        return False
    # dip of the symmetric V through the two ends
    E0 = Es[0] + ts[0] * (Es[-1] - Es[0]) / (ts[0] + ts[-1])
    c = min(max(int(np.argmin(np.abs(Es - E0))), 1), n - 2)
    lo, hi = c - 1, c + 1
    if not all(sample(i) for i in (lo, c, hi)):
        return False
    while True:
        b = int(np.argmin(ts))
        if b == lo and lo > 0:
            lo -= 1
            new = lo
        elif b == hi and hi < n - 1:
            hi += 1
            new = hi
        else:
            break
        if not sample(new):
            return False
    if b in (0, n - 1):
        return False
    # the V through b's neighbours must also pass through both ends
    s = (ts[b - 1] + ts[b + 1]) / (Es[b + 1] - Es[b - 1])
    E_d = Es[b - 1] + ts[b - 1] / s
    for i in (0, n - 1):
        v = s * abs(Es[i] - E_d)
        if not abs(ts[i] - v) <= V_FIT_TOL * v:
            return False
    return True


def parabolic_min(fn, e_lo, e_hi, tol=TOL_DEFAULT, budget=60, e_mid=None):
    """Minimize a locally parabolic function on [e_lo, e_hi].

    ``fn`` maps an abscissa to the value being minimized (here: t^2 at an
    energy).  Starting from the endpoints and ``e_mid`` between them (by
    default the midpoint), a bracketing triple is established by golden
    steps toward the lower side, then refined: fit a parabola through the
    triple, evaluate at its vertex, and update the bracket so the middle
    point stays the running minimum, with a golden-section step into the
    wider flank whenever the fit is non-convex or the vertex escapes.  Stops
    when the vertex update falls below ``tol`` times the bracket middle.
    Returns (e_best, y_best, n_evals), the best iterate and the number of
    evaluations; when ``budget`` evaluations do not suffice, raises
    ``ConvergenceFailureError`` carrying the same.
    """
    if not e_lo < e_hi:
        raise DomainError("empty bracket")
    if e_mid is None:
        e_mid = 0.5 * (e_lo + e_hi)
    elif not e_lo < e_mid < e_hi:
        raise DomainError("e_mid must lie inside the bracket")
    cache = {}

    def f(e):
        if e not in cache:
            cache[e] = fn(e)
        return cache[e]

    def finish():
        e_best = min(cache, key=cache.get)
        return e_best, cache[e_best], len(cache)

    def exhausted():
        return ConvergenceFailureError(
            f"evaluation budget {budget} exhausted", best=finish())

    a, b, c = e_lo, e_mid, e_hi
    for e in (a, b, c):
        f(e)
    # establish a bracketing triple: the middle must not exceed either end
    # (if the minimum sits at a bracket endpoint this grinds toward it and
    # finish() returns the endpoint itself)
    while f(b) > min(f(a), f(c)):
        if len(cache) >= budget:
            raise exhausted()
        if f(a) < f(c):
            a, b, c = a, a + _GOLDEN * (b - a), b
        else:
            a, b, c = b, c - _GOLDEN * (c - b), c
        if c - a < tol * abs(b):
            return finish()
        f(b)
    while len(cache) < budget:
        ya, yb, yc = f(a), f(b), f(c)
        dab = (yb - ya) / (b - a)
        dbc = (yc - yb) / (c - b)
        curv = (dbc - dab) / (c - a)
        v = 0.5 * (a + b) - dab / (2.0 * curv) if curv > 0 else None
        if v is not None and abs(v - b) < tol * abs(b):
            return finish()
        if v is None or not a < v < c or v in cache:
            # non-convex fit, vertex escaping, or a repeated proposal:
            # golden step into the wider flank of the bracket middle
            v = b - _GOLDEN * (b - a) if (b - a) > (c - b) else b + _GOLDEN * (c - b)
            if v in cache or not a < v < c:
                return finish()
        yv = f(v)
        if v < b:
            a, b, c = (a, v, b) if yv < yb else (v, b, c)
        else:
            a, b, c = (b, v, c) if yv < yb else (a, b, v)
    raise exhausted()


def inclusion_bounds(E, t_min, t_clas, c_est=C_EST_DEFAULT):
    """Certified distances to the Neumann spectrum, new and classical;
    ``c_est`` must be finite and positive."""
    if not (t_min >= 0 and t_clas >= 0):
        raise DomainError("tensions must be nonnegative")
    if not 0 < c_est < np.inf:
        raise DomainError("c_est must be finite and positive")
    return c_est * t_min, C_ENNENBACH * E * t_clas


def weyl_index(curve, E):
    """Two-term eigenvalue-count estimate |Omega| E / 4pi + |dOmega| sqrt(E) / 4pi
    (Neumann sign: boundary term positive)."""
    if not 0 < E < np.inf:
        raise DomainError("E must be finite and positive")
    _, L = arclength_spectral(curve, 2048)
    return area(curve) * E / (4 * np.pi) + L * np.sqrt(E) / (4 * np.pi)


def localize_minimum(solver, bracket, c_est=C_EST_DEFAULT, coarse=0):
    """Locate one minimum of ``solver``'s tension inside a frequency bracket
    and certify it; ``weyl_index`` is taken on ``solver.curve``.

    ``bracket`` is (sqrtE_lo, sqrtE_hi).  ``coarse >= 3`` first runs the
    presolve (module docstring) on a grid of ``coarse`` equispaced
    frequencies; ``coarse=0`` skips it, and the bracket should then contain
    exactly one local minimum (use a sweep to isolate one); 1, 2 and
    negative values raise ``DomainError``, as do a ``c_est`` that is not
    finite and positive and a non-finite sqrtE_hi^2, before any evaluation.
    Presolve samples that fail numerically are listed in
    ``presolve_failures`` (a search step onto one raises its message as
    ``NumericalError``), input errors (each a ``ValueError``) propagate, and
    all failing raises ``NumericalError``.  If the evaluation budget runs out, or the minimum
    lands on a bracket end (the tension falls toward it, so the dip may lie
    outside), the best iterate is still returned, marked ``converged=False``.
    """
    f_lo, f_hi = bracket
    if not 0 < f_lo < f_hi <= _SQRTE_MAX:
        raise DomainError("bracket must satisfy 0 < lo < hi, hi^2 finite")
    if not (coarse == 0 or coarse >= 3):
        raise DomainError("coarse must be 0 (no presolve) or at least 3")
    if not 0 < c_est < np.inf:
        raise DomainError("c_est must be finite and positive")
    # every evaluation spent, by energy: its TensionEval or failure message
    memo = {}
    E_lo, E_hi = f_lo ** 2, f_hi ** 2
    failures = []
    n_presolve = 0
    E_mid = None
    if coarse:
        fs = np.linspace(f_lo, f_hi, coarse)
        Es = fs * fs
        ts = np.full(coarse, np.inf)

        def sample(i):
            """Evaluate grid point i once; whether it succeeded."""
            if Es[i] not in memo:
                memo[Es[i]] = ev = _attempt(solver, Es[i])
                if not isinstance(ev, str):
                    ts[i] = ev.t_min
            return not isinstance(memo[Es[i]], str)

        if not _v_walk(sample, Es, ts):
            for i in range(coarse):
                sample(i)
        n_presolve = len(memo)
        failures = [(float(f), memo[E]) for f, E in zip(fs, Es)
                    if isinstance(memo.get(E), str)]
        if len(failures) == n_presolve:
            f, msg = failures[0]
            raise NumericalError(f"presolve failed at every sample "
                                 f"(first at sqrtE={f!r}: {msg})")
        best = min(max(int(np.argmin(ts)), 1), coarse - 2)
        E_lo, E_hi = Es[best - 1], Es[best + 1]
        # the grid minimum's own sample, unless it failed (clamped off an
        # end); parabolic_min then starts from the midpoint
        if not isinstance(memo[Es[best]], str):
            E_mid = Es[best]

    refined = []  # the search's own samples, bracket ends included

    def tension_sq(E):
        refined.append(E)
        if E not in memo:
            memo[E] = solver.evaluate(E)
        elif isinstance(memo[E], str):
            # a failed presolve sample would fail again
            raise NumericalError(memo[E])
        return memo[E].t_min ** 2

    try:
        E_star, _, n_evals = parabolic_min(tension_sq, E_lo, E_hi, e_mid=E_mid)
        # parabolic_min returns a bracket end bit-exactly, so `in` finds it
        converged = E_star not in (E_lo, E_hi)
    except ConvergenceFailureError as exc:
        E_star, _, n_evals = exc.best
        converged = False
    best = memo[E_star]
    # the secant to the nearest of the search's own samples (module docstring)
    E_n = min((E for E in refined if E != E_star),
              key=lambda E: abs(E - E_star))
    slope = (memo[E_n].t_min - best.t_min) / abs(E_n - E_star)

    t_bound = best.t_min + T_ROUNDING_ULPS * _UNIT_ROUNDOFF * E_star
    eps_new, eps_clas = inclusion_bounds(E_star, t_bound, best.t_classical,
                                         c_est=c_est)
    return EigenResult(sqrtE=float(np.sqrt(E_star)), E=float(E_star),
                       t_min=float(t_bound), t_classical=float(best.t_classical),
                       alpha=best.alpha, eps_new=float(eps_new),
                       eps_clas=float(eps_clas), n_evals=n_evals,
                       weyl_index=float(weyl_index(solver.curve, E_star)),
                       slope=float(slope), t_second=best.t_second,
                       converged=converged, presolve_failures=tuple(failures),
                       n_presolve=n_presolve, n_evals_total=len(memo))

import dataclasses
import functools
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

import neuspec.search
from neuspec import (EigenResult, SystemBuilder, TensionSolver,
                     classical_tension, disc_modes_in_window, inclusion_bounds,
                     jnprime_zero, jnprime_zeros_upto, localize_minimum,
                     parabolic_min, sweep, weyl_index)
from neuspec.errors import DomainError, NumericalError
from neuspec.tension import TensionEval

MU_30_1 = 32.534223556790142


def _failures(res):
    """The (sqrtE, message) of the failed samples in ``res``'s log, in grid
    order."""
    return sorted(p for p in res.evaluations if isinstance(p[1], str))


def _counts(res):
    """(grid samples, search evaluations, search samples taken from the
    presolve, energies evaluated) of ``res``."""
    n = len(res.evaluations)
    return res.n_presolve, res.n_evals, res.n_presolve + res.n_evals - n, n


class TestParabolicMin:
    def test_exact_parabola_converges_in_four_evals(self):
        calls = []

        def f(E):
            calls.append(E)
            return (E - 5.0) ** 2 + 1e-6

        e, y, n, done = parabolic_min(f, 3.0, 8.0, tol=1e-13)
        assert done
        assert abs(e - 5.0) < 1e-9
        assert n <= 4
        assert len(calls) == n

    def test_middle_abscissa_starts_the_search(self):
        calls = []

        def f(E):
            calls.append(E)
            return (E - 5.0) ** 2 + 1e-6

        e, y, n, done = parabolic_min(f, 3.0, 8.0, tol=1e-13, e_mid=4.5)
        assert done
        assert calls[:3] == [3.0, 4.5, 8.0]
        assert abs(e - 5.0) < 1e-9
        with pytest.raises(ValueError):
            parabolic_min(f, 3.0, 8.0, e_mid=8.0)

    def test_budget_exhaustion_returns_best(self):
        # noisy function defeats the vertex stopping rule
        rng = np.random.default_rng(7)
        seen = {}

        def f(E):
            seen[E] = abs(E - 5.0) + rng.uniform(0, 1e-3)
            return seen[E]

        e_best, y_best, n, done = parabolic_min(f, 3.0, 8.0, tol=1e-16,
                                                budget=12)
        assert done is False
        assert 3.0 <= e_best <= 8.0
        assert n == 12
        assert y_best == seen[e_best] == min(seen.values())

    def test_budget_exhausted_while_bracketing(self):
        # the minimum sits on the left end, so the middle never drops below
        # it and the budget runs out before a bracketing triple exists
        calls = []

        def f(E):
            calls.append(E)
            return E

        assert parabolic_min(f, 3.0, 8.0, budget=5) == (3.0, 3.0, 5, False)
        assert len(calls) == 5

    def test_empty_bracket_rejected(self):
        calls = []
        for lo, hi in ((3.0, 3.0), (8.0, 3.0)):
            with pytest.raises(DomainError, match="empty bracket"):
                parabolic_min(calls.append, lo, hi)
        assert calls == []

    def test_golden_fallback_on_concave_start(self):
        # concave bump with a sharp minimum near the right edge
        f = lambda E: -((E - 5.0) ** 2) + 100 * max(E - 7.6, 0.0) ** 2
        e, y, n, done = parabolic_min(f, 3.0, 8.0, tol=1e-10, budget=40)
        assert 3.0 <= e <= 8.0


class TestSweep:
    def test_disc_sweep_brackets_reference_zero(self, disc):
        samples = sweep(TensionSolver(disc, 256, 128, 0.1), 32.4, 32.6, 21)
        assert not any(isinstance(ev, str) for _, ev in samples)
        assert all(ev.t_min >= 0 for _, ev in samples)
        f_best, _ = min(samples, key=lambda s: s[1].t_min)
        step = (32.6 - 32.4) / 20
        assert abs(f_best - MU_30_1) <= step

    def test_deterministic(self, disc):
        a = sweep(TensionSolver(disc, 64, 32, 0.1), 3.0, 3.5, 5)
        b = sweep(TensionSolver(disc, 64, 32, 0.1), 3.0, 3.5, 5)
        for (f1, ev1), (f2, ev2) in zip(a, b):
            assert f1 == f2
            assert ev1.t_min == ev2.t_min
            assert ev1.c_min == ev2.c_min

    def test_bad_arguments(self, disc):
        with pytest.raises(ValueError):
            sweep(TensionSolver(disc, 64, 32, 0.1), 3.0, 3.5, 1)
        with pytest.raises(ValueError):
            sweep(TensionSolver(disc, 64, 32, 0.1), 3.5, 3.0, 5)

    @pytest.mark.parametrize("fmax", [np.inf, np.nan, 1e200])
    def test_non_finite_energy_rejected_before_evaluating(self, disc, fmax):
        stub = _Stub(disc, lambda E: 1.0)
        with pytest.raises(DomainError, match=r"sqrtE_max\^2 finite"):
            sweep(stub, 3.0, fmax, 3)
        assert stub.calls == []


class TestLocalizeMinimum:
    def test_disc_reference_zero_to_1e10(self, disc):
        res = localize_minimum(TensionSolver(disc, 256, 128, 0.1),
                               (32.52, 32.55))
        assert res.converged
        assert abs(res.sqrtE - MU_30_1) < 1e-10
        assert res.n_evals >= 3
        assert res.t_min <= 1e-9
        assert res.eps_new == pytest.approx(1.6 * res.t_min, rel=1e-14)
        # certified inclusion holds against the independent zero
        assert abs(res.E - MU_30_1 ** 2) <= res.eps_new

    def test_wobbly_bracket_regression(self, wobbly):
        # self-derived reference eigenfrequency of this domain (frozen from a
        # converged run; certified there by eps_new/E ~ 2.4e-15)
        res = localize_minimum(TensionSolver(wobbly, 700, 350, 0.025),
                               (40.52, 40.54))
        assert res.converged
        assert res.n_evals <= 20
        assert abs(res.sqrtE - 40.530115494218926) < 1e-8
        assert res.eps_new / res.E < 1e-12
        assert 0.5 <= abs(res.slope) <= 0.8

    def test_slope_two_sided_agreement(self, disc):
        solver = TensionSolver(disc, 256, 128, 0.1)
        res = localize_minimum(solver, (32.52, 32.55))
        dE = 1e-6 * res.E
        t0 = solver.evaluate(res.E).t_min
        left = (solver.evaluate(res.E - dE).t_min - t0) / dE
        right = (solver.evaluate(res.E + dE).t_min - t0) / dE
        assert abs(abs(left) - abs(right)) <= 0.15 * max(abs(left), abs(right))

    def test_bracket_end_minimum_not_converged(self, disc):
        # around j'_{20,2} = 27.71213 the tension is rounding noise at 1e-2
        # with a narrow dip, and which noise sample the search ends on
        # depends on the last bits of the arithmetic (once the upper end,
        # 1.98 in E from the nearest eigenvalue).  The interior norm of a
        # noise landing is lost to rounding, so the result either is not
        # certified or contains j'_{20,2}^2
        lo, hi = 27.708039453137719, 27.747889183327814
        res = localize_minimum(TensionSolver(disc, 256, 128, 0.1), (lo, hi))
        assert res.certified == (res.reasons == ())
        assert (not res.certified
                or abs(res.E - jnprime_zero(20, 2) ** 2) <= res.eps_new)

    def test_far_charges_certificate_contains_eigenvalue(self, wobbly):
        # at tau=0.04 the tension has a noise floor near 2e-3 around a
        # narrow dip, and the search can converge on a noise minimum tens to
        # hundreds of times eps_new from the eigenvalue 40.53011549421899^2;
        # which bracket lands on noise depends on the rounding (BLAS thread
        # count, factorization order), so several are tried.  A result may
        # miss only when it is not certified
        solver = TensionSolver(wobbly, 700, 350, 0.04)
        for bracket in ((40.50, 40.55), (40.502, 40.548), (40.504, 40.546)):
            res = localize_minimum(solver, bracket, coarse=21)
            assert (not res.certified
                    or abs(res.E - 40.53011549421899 ** 2) <= res.eps_new)

    @pytest.mark.xfail(strict=True, reason="the parabola's vertex stops "
                       "moving while the bracket is still wide")
    def test_wide_bracket_converges_to_tension_floor(self, wobbly):
        # the presolve's samples put the first vertex 3e-10 relative from
        # the eigenvalue, and the next fit through the same far flanks
        # predicts it again, so the search stops at eps_new/E = 6.2e-10
        # instead of about 6e-15; a converged result must reach the floor
        res = localize_minimum(TensionSolver(wobbly, 700, 350, 0.025),
                               (40.503522859181075, 40.549770878081716),
                               coarse=21)
        assert not res.converged or res.eps_new / res.E <= 1e-12

    @pytest.mark.parametrize("c_est", [-1.0, 0.0, np.nan, np.inf])
    def test_c_est_not_finite_and_positive_rejected_before_evaluating(
            self, disc, monkeypatch, c_est):
        solver = TensionSolver(disc, 64, 32, 0.1)
        evaluated = []
        monkeypatch.setattr(type(solver), "evaluate",
                            lambda self, E: evaluated.append(E))
        with pytest.raises(DomainError, match="c_est"):
            localize_minimum(solver, (3.81, 3.84), c_est=c_est, coarse=5)
        assert evaluated == []

    @pytest.mark.parametrize("f_hi", [np.inf, np.nan, 1e200])
    def test_non_finite_energy_rejected_before_evaluating(self, disc, f_hi):
        stub = _Stub(disc, lambda E: 1.0)
        for coarse in (0, 5):
            with pytest.raises(DomainError, match=r"hi\^2 finite"):
                localize_minimum(stub, (3.0, f_hi), coarse=coarse)
        assert stub.calls == []

    def test_weyl_index_of_solver_curve(self, disc):
        solver = TensionSolver(disc, 64, 32, 0.1)
        res = localize_minimum(solver, (3.81, 3.84))
        assert res.weyl_index == weyl_index(solver.curve, res.E)

    def test_returned_min_not_above_any_sample(self, disc):
        solver = TensionSolver(disc, 256, 128, 0.1)
        seen = []

        def f(E):
            t2 = solver.evaluate(E).t_min ** 2
            seen.append(t2)
            return t2

        e, y, n, done = parabolic_min(f, 32.52 ** 2, 32.55 ** 2, tol=1e-13)
        assert done
        assert y <= min(seen) + 1e-15


class TestPresolve:
    def test_isolates_the_deeper_dip(self, disc):
        # [32.4, 32.6] holds j'_{9,7} = 32.50525 and j'_{30,1}: without a
        # presolve the search lands on j'_{9,7}, with one on j'_{30,1}
        res = localize_minimum(TensionSolver(disc, 256, 128, 0.1),
                               (32.4, 32.6), coarse=21)
        assert res.converged
        assert abs(res.sqrtE - MU_30_1) < 1e-10
        assert _failures(res) == []

    def test_bracketing_samples_reused(self, disc, monkeypatch):
        energies = []
        evaluate = TensionSolver.evaluate

        def counted(self, E):
            energies.append(E)
            return evaluate(self, E)

        monkeypatch.setattr(TensionSolver, "evaluate", counted)
        res = localize_minimum(TensionSolver(disc, 64, 32, 0.1), (3.7, 3.95),
                               coarse=11)
        assert res.converged
        assert len(energies) == len(set(energies))
        # the presolve samples and the search's own minus the three reused:
        # the two ends and the grid minimum; the slope reuses a search sample
        assert _counts(res)[2] == 3
        assert len(energies) == res.n_presolve + res.n_evals - 3
        assert len(energies) == len(res.evaluations)

    def test_search_starts_from_grid_minimum(self, disc, monkeypatch):
        # the search's middle sample is the presolve's smallest, not a new
        # evaluation at the midpoint of its neighbours
        starts = []
        parabolic = neuspec.search.parabolic_min

        def spy(fn, e_lo, e_hi, **kwargs):
            starts.append((e_lo, kwargs.get("e_mid"), e_hi))
            return parabolic(fn, e_lo, e_hi, **kwargs)

        monkeypatch.setattr(neuspec.search, "parabolic_min", spy)
        solver = TensionSolver(disc, 64, 32, 0.1)
        res = localize_minimum(solver, (3.7, 3.95), coarse=11)
        assert res.converged
        Es = np.linspace(3.7, 3.95, 11) ** 2
        ts = [solver.evaluate(E).t_min for E in Es]
        b = int(np.argmin(ts))
        [(e_lo, e_mid, e_hi)] = starts
        assert (e_lo, e_mid, e_hi) == (Es[b - 1], Es[b], Es[b + 1])
        assert e_mid != 0.5 * (e_lo + e_hi)

    def test_failed_grid_minimum_falls_back_to_midpoint(self, disc):
        # the tension falls toward the lower end of (3.835, 3.95), past
        # j'_{0,1} = 3.83171, so the grid minimum is point 0 and the search
        # bracket is points 0..2, whose middle sample fails
        solver = TensionSolver(disc, 64, 32, 0.1)
        fs = np.linspace(3.835, 3.95, 11)
        calls = []

        class FailsAtPoint1:
            curve = disc

            def evaluate(self, E):
                calls.append(E)
                if E == fs[1] ** 2:
                    raise NumericalError("injected")
                return solver.evaluate(E)

        res = localize_minimum(FailsAtPoint1(), (3.835, 3.95), coarse=11)
        assert [f for f, _ in _failures(res)] == [fs[1]]
        assert res.n_presolve == 11
        # the midpoint of points 0 and 2 is evaluated in the middle's place
        assert calls[11] == 0.5 * (fs[0] ** 2 + fs[2] ** 2)
        assert _counts(res)[2] == 2
        assert len(calls) == len(res.evaluations)

    @pytest.mark.parametrize("coarse", [1, 2, -1])
    def test_coarse_without_grid_middle_raises(self, disc, coarse):
        calls = []

        class Counted:
            def evaluate(self, E):
                calls.append(E)

        with pytest.raises(ValueError, match="coarse"):
            localize_minimum(Counted(), (3.81, 3.84), coarse=coarse)
        assert calls == []

    # brackets some ulps of sqrtE = 3.81 wide: a grid of more points than
    # the bracket has ulps repeats a frequency, and so an energy
    @pytest.mark.parametrize("ulps, coarse", [(1, 5), (1, 21), (8, 21),
                                              (15, 21), (19, 21)])
    def test_narrow_bracket_rejected_before_evaluating(self, disc, ulps,
                                                       coarse):
        stub = _Stub(disc, lambda E: abs(E - 3.81 ** 2))
        f_hi = 3.81 + ulps * np.spacing(3.81)
        with pytest.raises(DomainError, match=(
                f"^bracket too narrow for a presolve grid of {coarse} "
                f"distinct energies$")):
            localize_minimum(stub, (3.81, f_hi), coarse=coarse)
        assert stub.calls == []

    def test_narrowest_bracket_of_distinct_energies_solves(self, disc):
        # 20 ulps hold 21 distinct frequencies; each squares to its own E
        ulp = np.spacing(3.81)
        stub = _Stub(disc, lambda E: abs(E - (3.81 + 10 * ulp) ** 2))
        bracket = (3.81, 3.81 + 20 * ulp)
        res = localize_minimum(stub, bracket, coarse=21)
        assert bracket[0] < res.sqrtE < bracket[1]
        stub.check_log(res, bracket, 21)

    def test_failed_samples_listed_or_raised(self, disc):
        solver = TensionSolver(disc, 64, 32, 0.1)

        class Flaky:
            curve = disc

            def __init__(self, below):
                self.below = below

            def evaluate(self, E):
                if E < self.below:
                    raise NumericalError("injected")
                return solver.evaluate(E)

        res = localize_minimum(Flaky(3.75 ** 2), (3.7, 3.95), coarse=11)
        assert res.converged
        assert _failures(res) == [(3.7, "injected"), (3.725, "injected")]
        with pytest.raises(NumericalError, match="every sample"):
            localize_minimum(Flaky(np.inf), (3.7, 3.95), coarse=11)

    # single-dip disc brackets around j'_{30,1} (tau=0.1) and j'_{8,6}
    # = 27.88927 (tau=0.05)
    SINGLE_DIPS = [(0.1, (32.52274027225723, 32.553636297388444)),
                   (0.05, (27.810758164089904, 27.907221165938836))]

    @pytest.mark.parametrize("tau, bracket", SINGLE_DIPS)
    def test_walk_matches_full_grid(self, disc, tau, bracket, monkeypatch):
        solver = TensionSolver(disc, 256, 128, tau)
        res = localize_minimum(solver, bracket, coarse=21)
        assert 5 <= res.n_presolve < 21
        # oracle: a presolve whose walk never vouches, so it samples the
        # whole grid
        monkeypatch.setattr(neuspec.search, "_v_walk", lambda *args: False)
        oracle = localize_minimum(solver, bracket, coarse=21)
        assert oracle.n_presolve == 21
        # the walk spends fewer evaluations, the search reuses as many
        assert _counts(res)[2] == _counts(oracle)[2]
        for field in dataclasses.fields(EigenResult):
            if field.name == "best":
                for f in dataclasses.fields(TensionEval):
                    assert np.array_equal(getattr(res.best, f.name),
                                          getattr(oracle.best, f.name)), f.name
            elif field.name not in ("n_presolve", "evaluations"):
                assert np.array_equal(getattr(res, field.name),
                                      getattr(oracle, field.name)), field.name

    @pytest.mark.parametrize("bracket, n, l", [
        ((32.4, 32.6), 30, 1),
        ((27.708039453137719, 27.747889183327814), 20, 2)])
    def test_unisolated_dips_sample_whole_grid(self, disc, bracket, n, l):
        # two dips ([32.4, 32.6]) and a narrow dip that the ends' V misses
        # both fail the V-fit, so the whole grid is sampled
        res = localize_minimum(TensionSolver(disc, 256, 128, 0.1), bracket,
                               coarse=21)
        assert res.n_presolve == 21
        assert res.converged
        assert abs(res.sqrtE - jnprime_zero(n, l)) < 1e-10

    def test_failed_end_samples_whole_grid(self, disc):
        solver = TensionSolver(disc, 64, 32, 0.1)

        class FailsAbove:
            curve = disc

            def evaluate(self, E):
                if E > 3.91 ** 2:
                    raise NumericalError("injected")
                return solver.evaluate(E)

        res = localize_minimum(FailsAbove(), (3.7, 3.95), coarse=11)
        assert res.converged
        assert res.n_presolve == 11
        # the upper end fails first, yet the failures are listed in grid order
        grid = np.linspace(3.7, 3.95, 11)
        assert [f for f, _ in _failures(res)] == list(grid[9:])

    def test_three_lobe_walk_budget(self, wobbly, monkeypatch):
        calls = []
        evaluate = TensionSolver.evaluate

        def counted(self, E):
            calls.append(E)
            return evaluate(self, E)

        monkeypatch.setattr(TensionSolver, "evaluate", counted)
        res = localize_minimum(TensionSolver(wobbly, 700, 350, 0.025),
                               (40.50, 40.55), coarse=21)
        assert res.converged
        assert len(calls) == len(res.evaluations) == 8
        assert res.sqrtE == pytest.approx(40.53011549421898, rel=1e-12)


class _Stub:
    """A solver whose minimum tension at E is ``t(E)``, failing numerically
    where ``t`` returns None; ``calls`` lists the energies evaluated and
    ``records`` what each returned, or the message it raised.  Each record's
    interior norm is ``q``, with no rounding."""

    def __init__(self, curve, t, q=1.0):
        self.curve, self.t, self.q = curve, t, q
        self.calls, self.records = [], []

    def evaluate(self, E):
        self.calls.append(E)
        t = self.t(E)
        if t is None:
            self.records.append("injected")
            raise NumericalError("injected")
        self.records.append(SimpleNamespace(t_min=t, t_classical=t,
                                            alpha=np.ones(1), t_second=1.0,
                                            q=self.q, q_scale=0.0))
        return self.records[-1]

    def check_log(self, res, bracket, coarse):
        """``res.evaluations`` lists every call once, in call order, with
        the object it returned, and its grid samples at the frequencies of
        ``np.linspace`` bit for bit."""
        assert [f for f, _ in res.evaluations] == list(map(math.sqrt,
                                                           self.calls))
        for (_, ev), rec in zip(res.evaluations, self.records, strict=True):
            assert ev == rec if isinstance(rec, str) else ev is rec
        grid = np.linspace(*bracket, coarse).tolist()
        assert all(f in grid for f, _ in res.evaluations[:res.n_presolve])


class TestSearchBranches:
    """The search's rarer paths on stub tensions over the grid sqrt(E) =
    3.0, 3.1, ..., 4.0 of ``coarse=11``, each counting its evaluations."""

    FS = np.linspace(3.0, 4.0, 11)
    # a V with its dip at E = 10.5 between grid points 2 and 3, steepened
    # left of E = 9.5: the V through the grid ends puts its dip near point
    # 7, so the walk goes left, and the ends lie off the V through the
    # walk's minimum
    STEEP_LEFT = staticmethod(lambda E: abs(E - 10.5)
                              + 20.0 * max(9.5 - E, 0.0))

    def test_budget_exhausted(self, disc, monkeypatch):
        monkeypatch.setattr(neuspec.search, "parabolic_min",
                            functools.partial(parabolic_min, budget=4))
        stub = _Stub(disc, lambda E: abs(E - 12.3))
        res = localize_minimum(stub, (3.0, 4.0), coarse=11)
        assert not res.converged
        # the symmetric V passes the walk's check after 5 samples
        assert _counts(res) == (5, 4, 3, 6)
        assert len(stub.calls) == len(set(stub.calls)) == 6
        stub.check_log(res, (3.0, 4.0), 11)

    def test_left_walk(self, disc):
        stub = _Stub(disc, self.STEEP_LEFT)
        res = localize_minimum(stub, (3.0, 4.0), coarse=11)
        Es = list(self.FS ** 2)
        # ends, the triple about point 7, the walk left to point 1, then
        # the rest of the grid
        assert [Es.index(E) for E in stub.calls[:11]] == [
            0, 10, 6, 7, 8, 5, 4, 3, 2, 1, 9]
        assert res.converged
        assert res.E == pytest.approx(10.5, rel=1e-13)
        assert _counts(res) == (11, 4, 3, 12)
        assert len(stub.calls) == len(set(stub.calls)) == 12
        stub.check_log(res, (3.0, 4.0), 11)

    def test_failed_walk_sample(self, disc):
        Es = list(self.FS ** 2)
        stub = _Stub(disc, lambda E: None if E == Es[5]
                     else self.STEEP_LEFT(E))
        res = localize_minimum(stub, (3.0, 4.0), coarse=11)
        # the walk's first step, to point 5, fails: the rest of the grid
        # follows, and point 5 is not evaluated again
        assert [Es.index(E) for E in stub.calls[:11]] == [
            0, 10, 6, 7, 8, 5, 1, 2, 3, 4, 9]
        assert _failures(res) == [(self.FS[5], "injected")]
        assert res.converged
        assert _counts(res) == (11, 4, 3, 12)
        assert len(stub.calls) == len(set(stub.calls)) == 12
        stub.check_log(res, (3.0, 4.0), 11)

    def test_golden_fallback_on_flat_tension(self, disc):
        # a grid two ulps of sqrt(E) wide: E = 4 + (0, 2, 4) ulp(4).  A flat
        # tension fits no parabola, so golden steps take the ulps between,
        # until the next step rounds onto the bracket middle
        f_hi = np.nextafter(np.nextafter(2.0, 3.0), 3.0)
        stub = _Stub(disc, lambda E: 1.0)
        res = localize_minimum(stub, (2.0, float(f_hi)), coarse=3)
        assert [(E - 4.0) / np.spacing(4.0) for E in stub.calls] == [
            0, 4, 2, 3, 1]
        # the first of the equal samples, the lower end, is the minimum
        assert res.E == 4.0 and not res.converged
        assert _counts(res) == (3, 5, 3, 5)
        stub.check_log(res, (2.0, float(f_hi)), 3)

    def test_failed_bracket_end_not_evaluated_again(self, disc):
        # the grid minimum, point 3, sits next to the failed point 4, an
        # end of the search's bracket: the search raises the presolve's
        # message without a second evaluation
        Es = list(self.FS ** 2)
        stub = _Stub(disc, lambda E: None if E == Es[4]
                     else abs(E - 10.9))
        with pytest.raises(NumericalError, match="^injected$"):
            localize_minimum(stub, (3.0, 4.0), coarse=11)
        assert stub.calls.count(Es[4]) == 1


class TestStatelessSolver:
    # the disc bracket (3.81, 3.84) holds j'_{0,1} = 3.83171 alone
    BRACKET = (3.81, 3.84)

    def test_solver_keeps_its_curve(self, disc):
        assert TensionSolver(disc, 64, 32, 0.1).curve is disc

    @pytest.mark.parametrize("E", [np.inf, np.nan])
    def test_energy_not_finite_rejected(self, disc, E):
        solver = TensionSolver(disc, 64, 32, 0.1)
        with pytest.raises(DomainError, match="E must be finite"):
            solver.evaluate(E)

    def test_attributes_unchanged(self, disc):
        solver = TensionSolver(disc, 64, 32, 0.1)
        before = dict(vars(solver)), dict(vars(solver.builder))
        solver.evaluate(3.82 ** 2)
        localize_minimum(solver, self.BRACKET)
        assert (vars(solver), vars(solver.builder)) == before

    def test_evaluation_independent_of_history(self, disc):
        solver = TensionSolver(disc, 64, 32, 0.1)
        first = solver.evaluate(3.82 ** 2)
        solver.evaluate(4.2 ** 2)
        again = solver.evaluate(3.82 ** 2)
        assert again.t_min == first.t_min
        assert again.t_classical == first.t_classical
        assert np.array_equal(again.alpha, first.alpha)

    def test_evaluation_records_its_energy(self, disc):
        E = 3.82 ** 2
        assert TensionSolver(disc, 64, 32, 0.1).evaluate(E).E == E

    def test_classical_tension_matches_fresh_system(self, disc):
        E = 3.82 ** 2
        ev = TensionSolver(disc, 64, 32, 0.1).evaluate(E)
        system = SystemBuilder(disc, 64, 32, 0.1).system(E)
        assert ev.t_classical == classical_tension(ev.alpha, system.A_nor, system.B)
        assert ev.rank_H == system.B.shape[0]

    def test_one_assembly_per_evaluation(self, disc, monkeypatch):
        # on this bracket the search's last iterate is not its best, so a
        # re-assembly at the minimum would show as one call too many
        counts = {"system": 0, "evaluate": 0}

        def counted(name, fn):
            def wrapper(self, E):
                counts[name] += 1
                return fn(self, E)
            return wrapper

        monkeypatch.setattr(SystemBuilder, "system",
                            counted("system", SystemBuilder.system))
        monkeypatch.setattr(TensionSolver, "evaluate",
                            counted("evaluate", TensionSolver.evaluate))
        res = localize_minimum(TensionSolver(disc, 64, 32, 0.1), self.BRACKET)
        assert res.converged
        assert counts["evaluate"] == res.n_evals  # the slope costs none
        assert counts["system"] == counts["evaluate"]


class TestCertificateContainment:
    # (n, l, tau, lower and upper jitter ranges): each bracket holds one disc
    # eigenfrequency.  [32.4, 32.6] holds two, j'_{9,7} = 32.50525 and
    # j'_{30,1} = 32.53422, so the brackets around j'_{30,1} start above their
    # midpoint.  Around j'_{20,2} tau=0.05 is used: at tau=0.1 the tension
    # there is noisy at the 1e-2 level around a narrow dip.  Without the
    # rounding allowance 3 of the 10 j'_{30,1} brackets miss by up to 3 u*E.
    MODES = [(30, 1, 0.1, (0.002, 0.012), (0.002, 0.03)),
             (20, 2, 0.05, (0.002, 0.08), (0.002, 0.08))]

    def test_jittered_brackets_contain_exact_eigenvalue(self, disc):
        """The certified interval E +- eps_new holds the nearest exact disc
        eigenvalue (mpmath), also where E lands on the computed tension's
        rounding floor."""
        rng = np.random.default_rng(3)
        misses = []
        for n, l, tau, (a0, a1), (b0, b1) in self.MODES:
            solver = TensionSolver(disc, 256, 128, tau)
            with mp.workdps(40):
                mu = float(mp.besseljzero(n, l, derivative=1))
                window = {(m.n, m.l) for m in disc_modes_in_window(mu - 0.2, mu + 0.2)}
                exact = [mp.besseljzero(*nl, derivative=1) ** 2 for nl in window]
            for _ in range(10):
                lo, hi = mu - rng.uniform(a0, a1), mu + rng.uniform(b0, b1)
                res = localize_minimum(solver, (lo, hi))
                with mp.workdps(40):
                    dist = min(abs(mp.mpf(res.E) - e2) for e2 in exact)
                if dist > res.eps_new:
                    misses.append((lo, hi, res.E, float(dist), res.eps_new))
        assert not misses, f"certified intervals missing the eigenvalue: {misses}"


class TestInteriorNormGate:
    """A result is certified only if q - N u S_q >= 1/2 for its alpha
    (``search`` module docstring)."""

    @staticmethod
    def clean(ev):
        return ev.q - len(ev.alpha) * ev.q_scale >= neuspec.search.Q_FLOOR

    @pytest.mark.parametrize("n, l", [(20, 2), (30, 1)])
    def test_clean_at_disc_eigenvalues(self, disc, n, l):
        # measured: u S_q 5.1e-15 and 1.2e-14
        ev = TensionSolver(disc, 256, 128, 0.1).evaluate(
            jnprime_zero(n, l) ** 2)
        assert abs(ev.q - 1.0) <= 1e-12
        assert ev.q_scale <= 1e-13
        assert self.clean(ev)

    def test_clean_at_lobe_dip(self, wobbly):
        # measured: u S_q 6.9e-13
        ev = TensionSolver(wobbly, 700, 350, 0.025).evaluate(
            40.53011549421899 ** 2)
        assert abs(ev.q - 1.0) <= 1e-9
        assert ev.q_scale <= 1e-11
        assert self.clean(ev)

    @pytest.mark.parametrize("sqrtE", [27.7080, 27.73, 27.7479])
    def test_lost_on_disc_noise(self, disc, sqrtE):
        # the noise samples of the bracket-end test: |alpha| 6e10 to 8e10,
        # u S_q 1.8e6 to 3.0e6
        ev = TensionSolver(disc, 256, 128, 0.1).evaluate(sqrtE ** 2)
        assert ev.q_scale >= 1e5
        assert not self.clean(ev)

    def test_unknown_interior_norm_is_not_certified(self, disc):
        # a record whose q is nan reads lost, not clean
        stub = _Stub(disc, lambda E: abs(E - 3.81 ** 2), q=float("nan"))
        res = localize_minimum(stub, (3.7, 3.95))
        assert res.converged
        assert not res.certified
        assert res.reasons == ("interior norm lost to rounding",)

    def test_jittered_disc_brackets_never_certify_a_miss(self, disc):
        """No certified interval misses the nearest exact eigenvalue.  At
        tau=0.1 the tension around j'_{20,2} and j'_{8,6} is rounding noise
        with narrow dips, and searches land on noise 5 to 20 eps_new from
        the eigenvalue; at tau=0.05 every search lands on its dip."""
        rng = np.random.default_rng(5)
        for tau in (0.05, 0.1):
            solver = TensionSolver(disc, 256, 128, tau)
            for n, l in ((30, 1), (20, 2), (8, 6)):
                mu = jnprime_zero(n, l)
                exact = [jnprime_zero(m.n, m.l) ** 2
                         for m in disc_modes_in_window(mu - 0.3, mu + 0.3)]
                for _ in range(3):
                    bracket = (mu - rng.uniform(0.002, 0.03),
                               mu + rng.uniform(0.002, 0.03))
                    res = localize_minimum(solver, bracket)
                    hit = min(abs(res.E - e) for e in exact) <= res.eps_new
                    assert hit or not res.certified, (tau, bracket, res.sqrtE)
                    assert res.certified or tau == 0.1, (tau, bracket)


class TestBounds:
    def test_inclusion_trivials(self):
        eps_new, eps_clas = inclusion_bounds(100.0, 0.0, 1e-3)
        assert eps_new == 0.0
        assert eps_clas == pytest.approx(7.4 * 100.0 * 1e-3)

    def test_linearity_in_tension(self):
        a, _ = inclusion_bounds(10.0, 2e-5, 0.0)
        b, _ = inclusion_bounds(10.0, 4e-5, 0.0)
        assert b == pytest.approx(2 * a, rel=1e-15)

    def test_constants_overridable(self):
        # c_est is a parameter; the classical constant is fixed
        eps_new, eps_clas = inclusion_bounds(2.0, 1.0, 1.0, c_est=2.5)
        assert eps_new == 2.5
        assert eps_clas == 2.0 * neuspec.search.C_ENNENBACH

    @pytest.mark.parametrize("t_min, t_clas", [(np.nan, 0.1), (0.1, np.nan)])
    def test_nan_tension_rejected(self, t_min, t_clas):
        with pytest.raises(DomainError, match="tensions"):
            inclusion_bounds(1.0, t_min, t_clas)

    @pytest.mark.parametrize("E", [-4.0, 0.0, np.nan, np.inf])
    def test_energy_not_finite_and_positive_rejected(self, E):
        with pytest.raises(DomainError, match="E must be finite and positive"):
            inclusion_bounds(E, 0.1, 0.1)

    @pytest.mark.parametrize("c_est", [-1.0, 0.0, np.nan, np.inf])
    def test_c_est_not_finite_and_positive_rejected(self, c_est):
        with pytest.raises(DomainError, match="c_est"):
            inclusion_bounds(2.0, 1.0, 1.0, c_est=c_est)


class TestWeylIndex:
    def test_small_energy(self, disc):
        assert weyl_index(disc, 1e-6) < 1e-3

    def test_disc_low_mode_vs_enumeration(self, disc):
        # count disc Neumann eigenvalues below E (with multiplicity, plus the
        # zero eigenvalue) and compare with the two-term estimate
        mu01 = jnprime_zero(0, 1)
        E = mu01 ** 2
        count = 1  # eigenvalue 0
        for n in range(0, 10):
            for mu in jnprime_zeros_upto(n, mu01 - 1e-9):
                count += 1 if n == 0 else 2
        est = weyl_index(disc, E)
        assert abs(est - count) <= 1.0

    @pytest.mark.parametrize("E", [np.inf, np.nan, 0.0])
    def test_energy_not_finite_and_positive_rejected(self, disc, E):
        with pytest.raises(DomainError, match="E must be finite"):
            weyl_index(disc, E)

    def test_wobbly_reference_index(self, wobbly):
        est = weyl_index(wobbly, 405.003269518228 ** 2)
        assert abs(est - 42612) / 42612 < 0.015

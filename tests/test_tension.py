import numpy as np
import pytest
from scipy import linalg

from neuspec import (RadialCurve, TensionSolver, classical_tension,
                     interior_norm_matrix, jnprime_zero, min_tension,
                     sqrt_factor)
from neuspec.errors import DomainError, NoInteriorMassError, RankCollapseError


def gen_eig_oracle(A, B):
    """Smallest generalized eigenvalue of (A^T A, B^T B) by a dense solver;
    the minimum tension squared."""
    lam = linalg.eigh(A.T @ A, B.T @ B, eigvals_only=True)
    return float(np.sqrt(max(lam[0], 0.0)))


def well_conditioned_pair(rng, m=20, n=8):
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)  # keep B full rank
    return A, B


class TestMinTension:
    def test_equal_matrices_give_unit_tension(self, rng):
        A = rng.standard_normal((12, 6))
        res = min_tension(A, A.copy())
        assert res.t_min == pytest.approx(1.0, rel=1e-12)
        # any coefficient vector attains the same ratio
        a = rng.standard_normal(6)
        assert classical_tension(a, A, A) == pytest.approx(1.0, rel=1e-12)

    def test_matches_generalized_eig_oracle(self, rng):
        for _ in range(10):
            A, B = well_conditioned_pair(rng)
            res = min_tension(A, B)
            assert res.t_min == pytest.approx(gen_eig_oracle(A, B), rel=1e-10)

    def test_minimizer_attains_value(self, rng):
        A, B = well_conditioned_pair(rng)
        res = min_tension(A, B)
        assert classical_tension(res.alpha, A, B) == pytest.approx(
            res.t_min, rel=1e-10)

    def test_alpha_normalized_to_unit_interior_norm(self, rng):
        A, B = well_conditioned_pair(rng)
        res = min_tension(A, B)
        assert np.linalg.norm(B @ res.alpha) == pytest.approx(1.0, rel=1e-12)

    def test_tension_identity_with_cmin(self, rng):
        A, B = well_conditioned_pair(rng)
        res = min_tension(A, B)
        assert res.t_min == pytest.approx(res.c_min / np.sqrt(1 - res.c_min ** 2),
                                          rel=1e-12)

    def test_minimality_against_samples(self, rng):
        A, B = well_conditioned_pair(rng)
        res = min_tension(A, B)
        for _ in range(100):
            a = rng.standard_normal(8)
            assert res.t_min <= classical_tension(a, A, B) + 1e-12

    def test_rank_collapse(self):
        with pytest.raises(RankCollapseError):
            min_tension(np.zeros((4, 3)), np.zeros((2, 3)))

    def test_no_interior_mass(self, rng):
        A = rng.standard_normal((6, 3))
        B = np.zeros((2, 3))
        with pytest.raises(NoInteriorMassError):
            min_tension(A, B)

    def test_empty_interior_factor(self, rng):
        # B without rows: no direction has interior mass
        with pytest.raises(NoInteriorMassError):
            min_tension(rng.standard_normal((6, 3)), np.zeros((0, 3)))

    def test_fewer_rows_than_columns(self, rng):
        # A has a null space that B does not: the minimum tension is zero,
        # and the returned alpha attains it
        A = rng.standard_normal((3, 6))
        B = rng.standard_normal((10, 6))
        res = min_tension(A, B)
        assert res.t_min < 1e-12
        assert classical_tension(res.alpha, A, B) < 1e-12

    def test_column_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            min_tension(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))


class TestTensionOf:
    def test_homogeneity(self, rng):
        A, B = well_conditioned_pair(rng)
        a = rng.standard_normal(8)
        base = classical_tension(a, A, B)
        for s in (-3.0, 0.5, 17.0):
            assert classical_tension(s * a, A, B) == pytest.approx(base, rel=1e-12)

    def test_zero_denominator(self, rng):
        A = rng.standard_normal((5, 3))
        B = np.zeros((2, 3))
        with pytest.raises(NoInteriorMassError):
            classical_tension(np.ones(3), A, B)

    @pytest.mark.parametrize("shape", [(5,), (40,), (32, 1)],
                             ids=["short", "long", "column"])
    def test_alpha_of_wrong_shape_rejected(self, rng, shape):
        A, B = well_conditioned_pair(rng, m=64, n=32)
        with pytest.raises(DomainError, match="alpha has shape"):
            classical_tension(np.ones(shape), A, B)

    def test_classical_is_unweighted(self, rng):
        A, B = well_conditioned_pair(rng)
        a = rng.standard_normal(8)
        assert classical_tension(a, A, B) == (np.linalg.norm(A @ a)
                                              / np.linalg.norm(B @ a))


def unreduced_min_tension(A, B, eps=1e-14):
    """(t_min, c_min, rank_eps) from the SVD of the full stack [A; B] and the
    full-matrices SVD of its A rows, without the QR reduction of A."""
    U, sig, _ = np.linalg.svd(np.vstack([A, B]), full_matrices=False)
    r_eps = int((sig >= eps * sig[0]).sum())
    c = np.linalg.svd(U[: A.shape[0], :r_eps], compute_uv=False)
    return c[-1] / np.sqrt(1.0 - c[-1] ** 2), c[-1], r_eps


def ill_conditioned_pair(rng, m=60, n=20, rank_B=14, null=3):
    """A and B with singular values spread over three to nine decades, B of
    rank ``rank_B`` < n, both annihilating the same ``null`` directions, so
    the stack has a clear numerical rank n - null."""
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = V[:, : n - null]
    U, _ = np.linalg.qr(rng.standard_normal((m, n - null)))
    A = (U * np.logspace(0, -rng.uniform(3, 9), n - null)) @ V.T
    W, _ = np.linalg.qr(rng.standard_normal((n - null, rank_B)))
    G = (W.T * np.logspace(0, -rng.uniform(3, 9), rank_B)[:, None]) @ V.T
    B = rng.standard_normal((m, rank_B)) @ G
    return A, B


class TestQRReduction:
    def test_matches_unreduced_stacked_svd(self, rng):
        compared = 0
        for _ in range(40):
            A, B = ill_conditioned_pair(rng)
            res = min_tension(A, B)
            t_ref, c_ref, r_ref = unreduced_min_tension(A, B)
            assert res.rank_eps == r_ref
            if t_ref >= 1e-6:
                compared += 1
                assert res.t_min == pytest.approx(t_ref, rel=1e-10)
                assert res.c_min == pytest.approx(c_ref, rel=1e-10)
        assert compared >= 10

    def test_full_rank_stack_takes_qr_path(self, rng, monkeypatch):
        for _ in range(10):
            A, B = well_conditioned_pair(rng)
            t_ref, c_ref, _ = unreduced_min_tension(A, B)
            res, n_svd = count_svd_calls(monkeypatch, min_tension, A, B)
            assert n_svd == 1  # only the SVD of Q_A
            assert res.rank_eps == A.shape[1]
            assert res.t_min == pytest.approx(t_ref, rel=1e-10)
            assert res.c_min == pytest.approx(c_ref, rel=1e-10)
            assert classical_tension(res.alpha, A, B) == pytest.approx(
                res.t_min, rel=1e-10)

    def test_rank_deficient_stack_falls_back(self, rng, monkeypatch):
        for _ in range(10):
            A, B = ill_conditioned_pair(rng)
            _, _, r_ref = unreduced_min_tension(A, B)
            res, n_svd = count_svd_calls(monkeypatch, min_tension, A, B)
            assert n_svd == 2  # the stack's, then Q_A's
            assert res.rank_eps == r_ref < A.shape[1]


    def test_lobe_stack_matches_unreduced(self, wobbly):
        # the solver's own stack, rotated by the eigenbasis of H
        system = TensionSolver(wobbly, 700, 350, 0.025).builder.system(
            40.525 ** 2)
        res = min_tension(system.A_w, system.B, basis=system.basis)
        t_ref, c_ref, r_ref = unreduced_min_tension(system.A_w, system.B)
        assert res.rank_eps == r_ref == 350
        assert res.t_min == pytest.approx(t_ref, rel=1e-9)
        assert res.c_min == pytest.approx(c_ref, rel=1e-9)
        assert classical_tension(res.alpha, system.A_w, system.B) == (
            pytest.approx(res.t_min, rel=1e-10))

    def test_disc_stack_takes_qr_path(self, disc, monkeypatch):
        # each class's rotated stack has a condition estimate below 1/eps
        # here (module docstring): one SVD per class
        system = TensionSolver(disc, 256, 128, 0.1).builder.system(27.72 ** 2)
        res, n_svd = count_svd_calls(
            monkeypatch, lambda: min_tension(system.A_w, system.B,
                                             basis=system.basis))
        assert n_svd == len(system.basis) == 2
        assert res.rank_eps == 128

    def test_disc_solver_falls_back(self, disc):
        # at tau=0.2 both classes' rcond estimates (4e-15, 8e-15) fall below
        # the cutoff 1e-14, and the truncated SVD drops a direction
        assert TensionSolver(disc, 256, 128, 0.2).evaluate(
            27.72 ** 2).rank_eps < 128


def count_svd_calls(monkeypatch, fn, *args):
    """fn(*args) and the number of np.linalg.svd calls it made."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*a, **kw):
        calls.append(1)
        return svd(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", counting_svd)
        out = fn(*args)
    return out, len(calls)


class TestSecondTension:
    def test_single_column_has_no_second(self, rng):
        A, B = well_conditioned_pair(rng, n=1)
        assert min_tension(A, B).t_second == float("inf")

    def test_identity_with_second_singular_value(self, rng):
        A, B = well_conditioned_pair(rng)
        res = min_tension(A, B)
        lam = linalg.eigh(A.T @ A, B.T @ B, eigvals_only=True)
        assert res.t_second == pytest.approx(np.sqrt(lam[1]), rel=1e-10)
        assert res.t_second >= res.t_min

    @pytest.mark.parametrize("n, l, double", [
        (5, 2, True), (12, 1, True), (9, 7, True), (0, 3, False),
        (0, 5, False)])
    def test_disc_multiplicity(self, disc, n, l, double):
        # every disc mode with n >= 1 is double, n = 0 modes are simple
        solver = TensionSolver(disc, 256, 128, 0.1)
        ev = solver.evaluate(jnprime_zero(n, l) ** 2)
        if double:
            assert ev.t_second < 1e-10
        else:
            assert ev.t_second > 1e-6


def shared_null_pair(rng, m=30, n=12, rows_B=5, null=0):
    """A (m x n) and B (rows_B x n, rows_B < n) with generic singular values
    that annihilate the same ``null`` directions: with ``null = 0`` the stack
    is well conditioned (QR path), with ``null > 0`` it has numerical rank
    n - null and takes the truncated-SVD fallback."""
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = V[:, : n - null]
    A = rng.standard_normal((m, n - null)) @ V.T
    B = rng.standard_normal((rows_B, n - null)) @ V.T
    return A, B


def full_basis_tensions(A, B, eps=1e-14):
    """(t_min, c_min, t_second, c) from the full SVD of the A rows Q_A of an
    orthonormal basis of the stack's kept column space, without restricting
    it to the row space of the B rows: [R; B] = Q2 R2 with R from A's QR,
    and the right factor of R2's truncated SVD, which is every column on a
    well-conditioned stack."""
    R = np.linalg.qr(A, mode="r")
    R = np.vstack([R, np.zeros((A.shape[1] - R.shape[0], A.shape[1]))])
    Q2, R2 = np.linalg.qr(np.vstack([R, B]))
    Ur, sig, _ = np.linalg.svd(R2)
    Q_A = Q2[: R.shape[0]] @ Ur[:, : int((sig >= eps * sig[0]).sum())]
    c = np.linalg.svd(Q_A, compute_uv=False)
    t_min, t_second = c[[-1, -2]] / np.sqrt(1.0 - c[[-1, -2]] ** 2)
    return t_min, c[-1], t_second, c


class TestRowSpaceReduction:
    """``min_tension`` takes the SVD of Q_A W, W an orthonormal basis of the
    row space of Q_B (on the QR path, Q2[:r]), instead of the SVD of
    Q_A."""

    # (null directions, kept rank): the QR path and the fallback
    PATHS = [(0, 12), (3, 9)]

    @pytest.mark.parametrize("make_pair, r_eps", [
        (lambda rng: shared_null_pair(rng), 12),
        (lambda rng: shared_null_pair(rng, null=3), 9),
        # B with at least N rows: W is square
        (well_conditioned_pair, 8)], ids=["qr", "fallback", "square-W"])
    def test_matches_full_basis_svd(self, rng, make_pair, r_eps):
        for _ in range(10):
            A, B = make_pair(rng)
            res = min_tension(A, B)
            t_ref, c_ref, t2_ref, _ = full_basis_tensions(A, B)
            assert res.rank_eps == r_eps
            assert res.t_min == pytest.approx(t_ref, rel=1e-12, abs=1e-12)
            assert res.c_min == pytest.approx(c_ref, rel=1e-12, abs=1e-12)
            assert res.t_second == pytest.approx(t2_ref, rel=1e-12, abs=1e-12)
            assert classical_tension(res.alpha, A, B) == pytest.approx(
                res.t_min, rel=1e-10)

    @pytest.mark.parametrize("null, r_eps", PATHS)
    def test_unit_values_outside_row_space(self, rng, null, r_eps):
        # the premise: Q_A^T Q_A + Q_B^T Q_B = I, so r_eps - rank(B) singular
        # values of Q_A are 1
        A, B = shared_null_pair(rng, null=null)
        _, _, _, c = full_basis_tensions(A, B)
        assert len(c) == r_eps
        assert (np.abs(c - 1.0) <= 1e-14).sum() == r_eps - B.shape[0]

    def test_svd_of_reduced_block(self, rng, monkeypatch):
        A, B = shared_null_pair(rng)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kw):
            shapes.append(a.shape)
            return svd(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        min_tension(A, B)
        # the triangular factor of Q_A W, square of the rank of B
        assert shapes == [(B.shape[0], B.shape[0])]


def full_stack_tension(solver, E):
    """(min_tension, B) on the whole stack: H factored as one class, as
    before the reflection split."""
    b = solver.builder
    B, _, basis = sqrt_factor(interior_norm_matrix(b.grid, *b.traces(E), E))
    return min_tension(b.system(E).A_w, B, basis=basis), B


class TestReflectionClasses:
    def test_asymmetric_curve_is_one_class(self):
        # a sine term breaks the symmetry: the one class is the whole stack,
        # bit for bit
        solver = TensionSolver(RadialCurve.trig([1.0, 0.1, 0.05], [0.08]),
                               128, 64, 0.1)
        E = 10.3 ** 2
        ev = solver.evaluate(E)
        full, B = full_stack_tension(solver, E)
        assert solver.builder.classes == (0,)
        assert ev.t_min == full.t_min
        assert np.array_equal(ev.alpha, full.alpha)
        assert ev.t_classical == classical_tension(
            full.alpha, solver.builder.system(E).A_nor, B)

    @pytest.mark.parametrize("domain, M, N, tau, sqrtE", [
        ("wobbly", 700, 350, 0.025, 40.525),
        ("wobbly", 700, 349, 0.025, 40.525),
        ("disc", 128, 64, 0.1, 10.3),
        ("disc", 256, 33, 0.1, 12.3)])
    def test_split_matches_full_stack(self, request, domain, M, N, tau,
                                      sqrtE):
        # measured: within 1.2e-10 relative, t_second within 6e-11
        solver = TensionSolver(request.getfixturevalue(domain), M, N, tau)
        E = sqrtE ** 2
        ev = solver.evaluate(E)
        full, _ = full_stack_tension(solver, E)
        system = solver.builder.system(E)
        assert solver.builder.classes == (1, -1)
        assert ev.t_min == pytest.approx(full.t_min, rel=1e-8)
        assert ev.t_second == pytest.approx(full.t_second, rel=1e-8)
        assert ev.rank_eps == full.rank_eps == N
        assert ev.rank_H == sum(D.shape[1] for _, _, D in system.basis)
        # the minimizer lies in one class: even or odd under n <-> N - n
        mirrored = ev.alpha[(-np.arange(N)) % N]
        assert (np.array_equal(mirrored, ev.alpha)
                or np.array_equal(mirrored, -ev.alpha))

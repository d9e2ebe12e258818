import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import neuspec.assembly
import neuspec.special
from neuspec import (ChargeSet, InteriorGrid, RadialCurve, SystemBuilder,
                     TensionSolver, build_filter_matrix, build_grid,
                     charge_points, interior_grid, interior_norm_matrix,
                     jnprime_zero, point_source_sum, raster_sum, sqrt_factor)
from neuspec.errors import (DegenerateNormError, DomainError,
                            InvalidCurveError, SingularKernelError)
from neuspec.special import bessel_y0, bessel_y1


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    threads = []
    real = threading.Thread.start

    def start(self):
        threads.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return threads


def interior_norm2_oracle(curve, fn, n_theta=2000, n_r=2000):
    """Dense 2-D quadrature of fn(x, y)^2 over the interior in polar form:
    trapezoid in angle, Gauss-Legendre radially."""
    th = 2 * np.pi * np.arange(n_theta) / n_theta
    rb = curve.radius(th)
    xg, wg = np.polynomial.legendre.leggauss(n_r)
    total = 0.0
    for i in range(n_theta):
        rr = 0.5 * rb[i] * (xg + 1.0)
        ww = 0.5 * rb[i] * wg
        vals = fn(rr * np.cos(th[i]), rr * np.sin(th[i]))
        total += float((ww * vals * vals * rr).sum())
    return total * 2 * np.pi / n_theta


class TestBasisMatrices:
    """The basis traces from ``SystemBuilder.traces``."""

    def test_value_column_replay(self, disc):
        b = SystemBuilder(disc, 32, 8, 0.2)
        g, cs = b.grid, b.charges
        E = 4.0
        A, An, At, Ad = b.traces(E)
        k = np.sqrt(E)
        for n in (0, 3, 7):
            col = np.array([
                np.sqrt(g.w[m]) * bessel_y0(k * np.hypot(*(g.x[m] - cs.y[n])))
                for m in range(32)
            ])
            assert np.abs(A[:, n] - col).max() < 1e-14

    def test_normal_derivative_vs_finite_difference(self, wobbly, rng):
        b = SystemBuilder(wobbly, 64, 24, 0.03)
        g, cs = b.grid, b.charges
        E = 9.0
        k = np.sqrt(E)
        _, An, At, _ = b.traces(E)
        step = 1e-6
        for _ in range(20):
            m = int(rng.integers(0, 64))
            n = int(rng.integers(0, 24))
            phi = lambda p: bessel_y0(k * np.hypot(*(p - cs.y[n])))
            fd_n = (phi(g.x[m] + step * g.nrm[m]) - phi(g.x[m] - step * g.nrm[m])) / (2 * step)
            fd_t = (phi(g.x[m] + step * g.tng[m]) - phi(g.x[m] - step * g.tng[m])) / (2 * step)
            sw = np.sqrt(g.w[m])
            assert abs(An[m, n] - sw * fd_n) < 1e-6 * max(abs(An[m, n]), 1e-3)
            assert abs(At[m, n] - sw * fd_t) < 1e-6 * max(abs(At[m, n]), 1e-3)

    def test_rotation_permutes_columns_on_circle(self, disc):
        # M a multiple of N: rotating by one charge spacing shifts rows by M/N
        M, N = 64, 16
        A, _, _, _ = SystemBuilder(disc, M, N, 0.15).traces(9.0)
        shift = M // N
        for n in (1, 5):
            assert np.abs(np.roll(A[:, 0], shift * n) - A[:, n]).max() < 1e-13

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("row_block", [1 << 14, 100],
                             ids=["partial-last-block", "one-row-blocks"])
    def test_tables_and_traces_bit_equal_for_any_thread_count(
            self, wobbly, monkeypatch, started, row_block, threads):
        """The row blocks give the one-thread bits for any thread count and
        block size: at M=700, N=350 a block holds 46 rows and the last one
        10, and blocks of 100 values hold one row each.  One thread fills
        the blocks inline and starts none."""
        E = 40.53 ** 2

        def tables_and_traces():
            b = SystemBuilder(wobbly, 700, 350, 0.025)
            return [b._dist, b._proj_nor, b._proj_tan, b._proj_dil,
                    *b.traces(E)]

        monkeypatch.setattr(neuspec.assembly, "kernel_threads", lambda: 1)
        expected = tables_and_traces()
        monkeypatch.setattr(neuspec.assembly, "ROW_BLOCK", row_block)
        monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                            lambda: threads)
        for got, want in zip(tables_and_traces(), expected, strict=True):
            assert np.array_equal(got, want)
        if threads == 1:
            assert started == []
        else:
            # one pool for the tables, one for the traces
            assert 2 <= len(started) <= 2 * threads
            assert not any(t.is_alive() for t in started)

    def test_traces_are_the_whole_array_expressions(self, wobbly):
        """Block by block, every element goes through the operations of the
        whole-array expressions, in their order."""
        b = SystemBuilder(wobbly, 700, 350, 0.025)
        E = 40.53 ** 2
        k = np.sqrt(E)
        kd = k * b._dist
        sw_y1 = b._sw * (-k * bessel_y1(kd))
        expected = (b._sw * bessel_y0(kd), sw_y1 * b._proj_nor,
                    sw_y1 * b._proj_tan, sw_y1 * b._proj_dil)
        for got, want in zip(b.traces(E), expected, strict=True):
            assert np.array_equal(got, want)

    def test_coincident_charge_rejected(self, disc, monkeypatch):
        """Raised from the block that holds the node, on any thread count,
        before any 1/d is formed: no RuntimeWarning."""
        node = build_grid(disc, 16).x[9:10].copy()
        monkeypatch.setattr(neuspec.assembly, "charge_points",
                            lambda curve, N, tau: ChargeSet(N=1, y=node))
        # blocks of four rows: the node's is the third of four
        monkeypatch.setattr(neuspec.assembly, "ROW_BLOCK", 4)
        for threads in (1, 2, 3):
            monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                                lambda: threads)
            before = threading.active_count()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularKernelError):
                    SystemBuilder(disc, 16, 1, 0.1)
            assert threading.active_count() == before


class TestInteriorNormMatrix:
    @pytest.mark.parametrize("curve_name,sqrtE", [("disc", 10.0), ("wobbly", 10.0)])
    def test_single_column_vs_2d_quadrature(self, curve_name, sqrtE, disc, wobbly):
        curve = {"disc": disc, "wobbly": wobbly}[curve_name]
        b = SystemBuilder(curve, 512, 40, 0.03)
        cs = b.charges
        E = sqrtE ** 2
        H = interior_norm_matrix(b.grid, *b.traces(E), E)
        n = 7
        k = np.sqrt(E)
        oracle = interior_norm2_oracle(
            curve, lambda px, py: bessel_y0(k * np.hypot(px - cs.y[n, 0], py - cs.y[n, 1]))
        )
        assert abs(H[n, n] - oracle) < 1e-8 * abs(oracle)

    def test_symmetry_exact(self, wobbly):
        b = SystemBuilder(wobbly, 64, 16, 0.03)
        H = interior_norm_matrix(b.grid, *b.traces(4.0), 4.0)
        assert np.abs(H - H.T).max() == 0.0

    def test_bilinearity(self, disc, rng):
        b = SystemBuilder(disc, 64, 16, 0.1)
        H = interior_norm_matrix(b.grid, *b.traces(4.0), 4.0)
        a = rng.standard_normal(16)
        assert (2 * a) @ H @ (2 * a) == pytest.approx(4 * (a @ H @ a), rel=1e-14)

    def test_formal_positivity(self, wobbly, rng):
        b = SystemBuilder(wobbly, 128, 32, 0.03)
        E = 25.0
        H = interior_norm_matrix(b.grid, *b.traces(E), E)
        lam1 = np.linalg.eigvalsh(H)[-1]
        for _ in range(50):
            a = rng.standard_normal(32)
            a /= np.linalg.norm(a)
            assert a @ H @ a >= -1e-8 * lam1


    def test_star_shape_required(self, wobbly):
        # negated normals give x.n < 0 at every node: the Rellich form's
        # boundary weight would change sign, so the form is refused
        b = SystemBuilder(wobbly, 64, 16, 0.03)
        inward = replace(b.grid, nrm=-b.grid.nrm)
        with pytest.raises(InvalidCurveError):
            interior_norm_matrix(inward, *b.traces(4.0), 4.0)

class TestSqrtFactor:
    def test_identity(self):
        # B is unique only up to the eigenbasis; for H = I any orthogonal
        # matrix qualifies, so check the defining property instead
        B, r, _ = sqrt_factor(np.eye(5))
        assert r == 5
        assert np.abs(B.T @ B - np.eye(5)).max() < 1e-14

    def test_cutoff_definition(self):
        B, r, _ = sqrt_factor(np.diag([1.0, 1e-20]))
        assert r == 1
        assert B.shape == (1, 2)
        assert np.abs(np.abs(B[0]) - [1.0, 0.0]).max() < 1e-14

    def test_random_psd_reconstruction(self, rng):
        X = rng.standard_normal((30, 30))
        H = X @ X.T
        H = 0.5 * (H + H.T)
        B, r, _ = sqrt_factor(H)
        lam1 = np.linalg.eigvalsh(H)[-1]
        err = np.linalg.norm(B.T @ B - H, 2)
        assert err <= 1e-12 * lam1 * (1 + 1e-10) + 1e-13

    def test_rotation_basis(self, rng):
        # V = [Z Y] orthogonal with B Z = 0 and (B Y)^T (B Y) = D^T D, the
        # rotation min_tension takes
        X = rng.standard_normal((30, 30))
        H = (X * np.logspace(0, -20, 30)) @ X.T
        B, r, [(_, V, D)] = sqrt_factor(0.5 * (H + H.T))
        assert 0 < r < 30 and D.shape == (r, r)
        scale = np.abs(B).max()
        assert np.abs(V.T @ V - np.eye(30)).max() < 1e-14
        assert np.abs(B @ V[:, :30 - r]).max() < 1e-14 * scale
        BY = B @ V[:, 30 - r:]
        assert np.abs(BY.T @ BY - D.T @ D).max() < 1e-13 * scale ** 2

    def test_degenerate(self):
        with pytest.raises(DegenerateNormError):
            sqrt_factor(-np.eye(3))


class TestAssembleSystem:
    """``SystemBuilder.system`` and its parameter checks."""

    def test_smoke_on_disc_eigenvalue(self, disc):
        E = jnprime_zero(30, 1) ** 2
        b = SystemBuilder(disc, 128, 64, 0.1)
        sys_ = b.system(E)
        assert len(sys_.B) >= 1
        assert np.isfinite(sys_.A_w).all()
        assert np.isfinite(interior_norm_matrix(b.grid, *b.traces(E), E)).all()

    def test_weighted_matrix_replay(self, disc):
        # A_w is the filter at h = E^(-1/2) applied to the normal derivative
        b = SystemBuilder(disc, 64, 16, 0.1)
        sys_ = b.system(9.0)
        F = build_filter_matrix(b.grid, 9.0 ** -0.5).dense()
        A_nor = b.traces(9.0)[1]
        assert np.array_equal(sys_.A_nor, A_nor)
        M, N = A_nor.shape
        Aw = np.zeros((M, N))
        for m in range(M):
            for n in range(N):
                Aw[m, n] = sum(F[m, j] * A_nor[j, n] for j in range(M))
        scale = np.abs(sys_.A_w).max()
        assert np.abs(Aw - sys_.A_w).max() < 1e-12 * scale

    def test_h_reconstruction_bound(self, disc):
        b = SystemBuilder(disc, 128, 48, 0.1)
        H = interior_norm_matrix(b.grid, *b.traces(50.0), 50.0)
        B = b.system(50.0).B
        lam1 = np.linalg.eigvalsh(H)[-1]
        err = np.linalg.norm(B.T @ B - H, "fro")
        assert err <= 1e-12 * lam1 * H.shape[0]

    def test_parameter_validation(self, disc):
        with pytest.raises(InvalidCurveError):
            SystemBuilder(disc, 66, 16, 0.1)   # M not divisible by 4
        with pytest.raises(InvalidCurveError):
            SystemBuilder(disc, 64, 128, 0.1)  # N > M

    @pytest.mark.parametrize("E", [np.inf, np.nan, 0.0])
    def test_energy_not_finite_and_positive_rejected(self, disc, E):
        # an infinite energy failed inside the Bessel kernels, nan passed on
        b = SystemBuilder(disc, 64, 16, 0.1)
        for build in (b.traces, b.system):
            with pytest.raises(DomainError, match="E must be finite"):
                build(E)


def point_source_sum_blocks(charges, alpha, E, points):
    """The sum as formed before the Y0 chunks grew: one einsum distance
    array and one Y0 call per block of 65536 // N rows.  The chunked form
    keeps these blocks for its products, so it must agree bit for bit."""
    k = np.sqrt(E)
    out = np.empty(len(points))
    step = max(1, 65536 // charges.N)
    for lo in range(0, len(points), step):
        dx = points[lo:lo + step, None, :] - charges.y[None, :, :]
        dist = np.sqrt(np.einsum("pnd,pnd->pn", dx, dx))
        out[lo:lo + step] = bessel_y0(k * dist) @ alpha
    return out


class TestPointSourceSum:
    def test_matches_direct_loop(self, disc, rng):
        cs = charge_points(disc, 12, 0.2)
        alpha = rng.standard_normal(12)
        pts = rng.uniform(-0.5, 0.5, (7, 2))
        E = 16.0
        vals = point_source_sum(cs, alpha, E, pts)
        for i, p in enumerate(pts):
            direct = sum(alpha[n] * bessel_y0(np.sqrt(E) * np.hypot(*(p - cs.y[n])))
                         for n in range(12))
            assert abs(vals[i] - direct) < 1e-12 * max(1.0, abs(direct))

    def test_several_chunks_match_direct_loop(self, disc, rng):
        # N = 64: blocks of 1024 rows, Y0 chunks of 4096; the last is partial
        cs = charge_points(disc, 64, 0.2)
        alpha = rng.standard_normal(64)
        pts = rng.uniform(-0.6, 0.6, (9000, 2))
        E = 30.0
        vals = point_source_sum(cs, alpha, E, pts)
        direct = sum(alpha[n] * bessel_y0(np.sqrt(E) * np.hypot(*(pts - cs.y[n]).T))
                     for n in range(64))
        assert np.all(np.abs(vals - direct)
                      < 1e-12 * np.maximum(1.0, np.abs(direct)))
        assert np.array_equal(vals, point_source_sum_blocks(cs, alpha, E, pts))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_bit_equal_for_any_thread_count(self, disc, rng, monkeypatch,
                                            started, threads):
        """The row blocks give the same bits on any thread count; one thread
        fills them inline and starts none."""
        monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                            lambda: threads)
        cs = charge_points(disc, 350, 0.025)
        alpha = rng.standard_normal(350)
        pts = rng.uniform(-0.6, 0.6, (2000, 2))
        assert np.array_equal(point_source_sum(cs, alpha, 1600.0, pts),
                              point_source_sum_blocks(cs, alpha, 1600.0, pts))
        if threads == 1:
            assert started == []
        else:
            assert 1 <= len(started) <= threads
            assert not any(t.is_alive() for t in started)

    def test_workers_call_no_traced_name(self, disc, rng, monkeypatch):
        """A tracer that wraps this module's Bessel names assumes one
        thread, so the row-block workers must not reach those names."""
        for name in ("bessel_y0", "bessel_y1"):
            def on_main_thread(*args, real=getattr(neuspec.assembly, name),
                               **kwargs):
                assert threading.current_thread() is threading.main_thread()
                return real(*args, **kwargs)

            monkeypatch.setattr(neuspec.assembly, name, on_main_thread)
        monkeypatch.setattr(neuspec.assembly, "kernel_threads", lambda: 2)
        cs = charge_points(disc, 350, 0.025)
        alpha = rng.standard_normal(350)
        pts = rng.uniform(-0.6, 0.6, (2000, 2))
        assert np.array_equal(point_source_sum(cs, alpha, 1600.0, pts),
                              point_source_sum_blocks(cs, alpha, 1600.0, pts))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_point_on_charge_raises_and_leaves_no_thread(self, disc, rng,
                                                         monkeypatch,
                                                         threads):
        """The Y0 check's error reaches the caller, from the worker that
        filled the block, and every worker is joined."""
        raised_on = []
        real = neuspec.special.bessel_y0

        def recording(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except DomainError:
                raised_on.append(threading.current_thread())
                raise

        monkeypatch.setattr(neuspec.special, "bessel_y0", recording)
        monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                            lambda: threads)
        cs = charge_points(disc, 350, 0.025)
        pts = rng.uniform(-0.6, 0.6, (2000, 2))
        pts[1500] = cs.y[7]   # in block 8 of 11
        before = threading.active_count()
        with pytest.raises(DomainError):
            point_source_sum(cs, rng.standard_normal(350), 1600.0, pts)
        assert threading.active_count() == before
        assert len(raised_on) == 1
        on_main = raised_on[0] is threading.main_thread()
        assert on_main == (threads == 1)

    @pytest.mark.parametrize("shape", [(5,), (40,), (32, 2)],
                             ids=["short", "long", "columns"])
    def test_alpha_of_wrong_shape_rejected(self, disc, shape):
        cs = charge_points(disc, 32, 0.1)
        with pytest.raises(DomainError, match="alpha has shape"):
            point_source_sum(cs, np.ones(shape), 16.0, np.zeros((3, 2)))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_no_points_give_an_empty_sum_and_start_no_thread(
            self, disc, monkeypatch, started, threads):
        monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                            lambda: threads)
        cs = charge_points(disc, 32, 0.1)
        u = point_source_sum(cs, np.ones(32), 16.0, np.zeros((0, 2)))
        assert u.shape == (0,)
        assert started == []

    def test_memory_set_by_block_buffers_not_points(self, disc, rng,
                                                    monkeypatch):
        """Ten times the points, the same peak, and within the workers'
        block buffers (threads x 2 x block x N values), the output and
        512 kB: the buffers, not the points, set the memory."""
        threads = 2
        monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                            lambda: threads)
        cs = charge_points(disc, 350, 0.025)
        alpha = rng.standard_normal(350)
        buffers = threads * 2 * (65536 // 350) * 350 * 8
        peaks = []
        for n in (2000, 20000):
            pts = rng.uniform(-0.6, 0.6, (n, 2))
            tracemalloc.start()
            try:
                point_source_sum(cs, alpha, 1600.0, pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] <= buffers + 8 * n + 512 * 1024
        assert peaks[1] - peaks[0] < 1e6


class TestRasterSum:
    """``raster_sum`` evaluates half of a symmetric raster for coefficients
    in one reflection class and mirrors the rest, and sums far tiles
    through local expansions; it agrees with the whole-raster sum to
    rounding for any coefficients."""

    @staticmethod
    def one_class(rng, N, parity=1):
        """Random coefficients of one class, (a + parity a[-n mod N]) / 2:
        a[-n mod N] = parity a bit for bit."""
        a = rng.standard_normal(N)
        return (a + parity * a[-np.arange(N) % N]) / 2

    def whole(self, builder, alpha, E, grid):
        return point_source_sum(builder.charges, alpha, E, grid.points)

    def assert_close(self, u, expect):
        assert np.max(np.abs(u - expect)) <= 1e-12 * np.max(np.abs(expect))

    def direct(self, builder, alpha, E, grid):
        """The sum over one Y0 matrix of every point and charge, and its
        cancellation scale S = max_p sum_n |alpha_n Y0(k |p - y_n|)|."""
        p, y = grid.points, builder.charges.y
        Y = bessel_y0(np.sqrt(E) * np.hypot(p[:, :1] - y[:, 0],
                                            p[:, 1:] - y[:, 1]))
        return Y @ alpha, np.max(np.abs(Y * alpha).sum(axis=1))

    def assert_within_rounding(self, u, builder, alpha, E, grid):
        expect, S = self.direct(builder, alpha, E, grid)
        assert np.max(np.abs(u - expect)) <= 1e-14 * S

    @pytest.fixture
    def near_points(self, monkeypatch):
        """The number of points each ``point_source_sum`` call evaluates."""
        calls = []
        real = neuspec.assembly.point_source_sum

        def recording(charges, alpha, E, points):
            calls.append(len(points))
            return real(charges, alpha, E, points)

        monkeypatch.setattr(neuspec.assembly, "point_source_sum", recording)
        return calls

    @pytest.fixture
    def evaluated_points(self, monkeypatch):
        """The number of points each ``_tiled_sum`` call evaluates."""
        calls = []
        real = neuspec.assembly._tiled_sum

        def recording(charges, alpha, E, grid, mask):
            calls.append(np.count_nonzero(mask))
            return real(charges, alpha, E, grid, mask)

        monkeypatch.setattr(neuspec.assembly, "_tiled_sum", recording)
        return calls

    @pytest.mark.parametrize("nx", [60, 61])
    @pytest.mark.parametrize("coefficients", ["evaluated", "random"])
    @pytest.mark.parametrize("domain", ["disc", "lobe"])
    def test_matches_whole_raster(self, disc, wobbly, rng, domain,
                                  coefficients, nx):
        curve, M, N, tau, sqrtE = {
            "disc": (disc, 64, 32, 0.1, 3.83),
            "lobe": (wobbly, 256, 128, 0.025, 10.3)}[domain]
        solver = TensionSolver(curve, M, N, tau)
        E = sqrtE ** 2
        alpha = (solver.evaluate(E).alpha if coefficients == "evaluated"
                 else rng.standard_normal(N))
        grid = interior_grid(curve, nx)
        self.assert_close(raster_sum(solver.builder, alpha, E, grid),
                          self.whole(solver.builder, alpha, E, grid))

    @pytest.mark.parametrize("nx", [100, 101])
    @pytest.mark.parametrize("coefficients", ["evaluated", "random"])
    @pytest.mark.parametrize("domain", ["lobe-0.025", "lobe-0.01",
                                        "deep-lobe", "disc"])
    def test_far_tiles_within_rounding(self, disc, wobbly, rng, near_points,
                                       domain, coefficients, nx):
        """Where local expansions take much of the raster, the sum stays
        within 1e-14 S of the direct one.  On the disc at tau=0.1 the
        evaluated |alpha| is 4.7e5: the error there reads 5e-10 max|u|, but
        1.6e-15 S.  The random coefficients are of the even class, so the
        mirror takes half the raster as for evaluated ones."""
        curve, M, N, tau, sqrtE = {
            "lobe-0.025": (wobbly, 256, 128, 0.025, 20.3),
            "lobe-0.01": (wobbly, 256, 128, 0.01, 20.3),
            "deep-lobe": (RadialCurve.radial(1.0, 0.5, 3, 0.2), 256, 128,
                          0.025, 20.4269),
            "disc": (disc, 192, 96, 0.1, 15.0)}[domain]
        solver = TensionSolver(curve, M, N, tau)
        E = sqrtE ** 2
        alpha = (solver.evaluate(E).alpha if coefficients == "evaluated"
                 else self.one_class(rng, N))
        grid = interior_grid(curve, nx)
        u = raster_sum(solver.builder, alpha, E, grid)
        assert sum(near_points) < 0.4 * len(grid.points)
        self.assert_within_rounding(u, solver.builder, alpha, E, grid)

    @pytest.mark.parametrize("curve,N", [
        (RadialCurve.trig([1.0, 0.1, 0.05], [0.08]), 32),
        (RadialCurve.circle(), 2), (RadialCurve.circle(), 1)],
        ids=["trig", "disc-N2", "disc-N1"])
    def test_one_class_is_the_whole_sum(self, rng, evaluated_points, curve,
                                        N):
        """One class evaluates every point, even for coefficients that
        would be of the even class on a symmetric curve."""
        builder = SystemBuilder(curve, 64, N, 0.1)
        assert builder.classes == (0,)
        alpha = self.one_class(rng, N)
        grid = interior_grid(curve, 41)
        u = raster_sum(builder, alpha, 16.0, grid)
        assert evaluated_points == [len(grid.points)]
        self.assert_close(u, self.whole(builder, alpha, 16.0, grid))
        self.assert_within_rounding(u, builder, alpha, 16.0, grid)

    def test_no_far_tile_is_point_source_sum(self, rng, near_points):
        """A raster of a curve without the symmetry and with no far tile
        takes the whole-raster call itself."""
        curve = RadialCurve.trig([1.0, 0.1, 0.05], [0.08])
        builder = SystemBuilder(curve, 64, 32, 0.1)
        alpha = rng.standard_normal(32)
        grid = interior_grid(curve, 41)
        u = raster_sum(builder, alpha, 16.0, grid)
        assert near_points == [len(grid.points)]
        assert np.array_equal(u, self.whole(builder, alpha, 16.0, grid))

    @pytest.mark.parametrize("dropped", ["evaluated-half", "mirrored-half"])
    def test_twin_outside_mask_is_evaluated(self, disc, rng, dropped):
        """With one point dropped from the mask, in either half, its twin
        still gets its own value (odd coefficients: a mirrored value would
        have the wrong sign too)."""
        full = interior_grid(disc, 41)
        inside = full.inside.copy()
        iy = 30 if dropped == "evaluated-half" else 10   # 2 iy >= 40, or not
        inside[iy, 20] = False
        assert inside[40 - iy, 20]
        grid = InteriorGrid(xs=full.xs, ys=full.ys, inside=inside)
        builder = SystemBuilder(disc, 64, 32, 0.1)
        alpha = self.one_class(rng, 32, -1)
        self.assert_close(raster_sum(builder, alpha, 16.0, grid),
                          self.whole(builder, alpha, 16.0, grid))

    @pytest.mark.parametrize("parity", [1, -1], ids=["even", "odd"])
    def test_class_mirrors_bit_for_bit(self, wobbly, rng, evaluated_points,
                                       parity):
        """Coefficients of one class take half the raster; every other
        point is its twin's value times the class's sign, bit for bit, and
        the sum stays within 1e-14 S of the direct one."""
        builder = SystemBuilder(wobbly, 256, 128, 0.025)
        alpha, E = self.one_class(rng, 128, parity), 20.3 ** 2
        grid = interior_grid(wobbly, 101)
        u = raster_sum(builder, alpha, E, grid)
        ix, iy = grid.indices.T
        twin = 100 - iy
        assert evaluated_points == [np.count_nonzero(
            (iy >= twin) | ~grid.inside[twin, ix])]
        assert evaluated_points[0] < 0.51 * len(u)
        raster = np.full(grid.inside.shape, np.nan)
        raster[iy, ix] = u
        # the middle row is its own twin, and odd there only to rounding
        paired = grid.inside[twin, ix] & (iy != twin)
        assert np.array_equal(u[paired], parity * raster[twin, ix][paired])
        self.assert_within_rounding(u, builder, alpha, E, grid)

    def test_mixed_coefficients_evaluate_every_point(self, wobbly, rng,
                                                     evaluated_points):
        """Coefficients in neither class, on a curve with the symmetry, take
        every point of the raster: the mirror does not hold for them."""
        builder = SystemBuilder(wobbly, 256, 128, 0.025)
        assert builder.classes == (1, -1)
        alpha, E = rng.standard_normal(128), 20.3 ** 2
        grid = interior_grid(wobbly, 101)
        u = raster_sum(builder, alpha, E, grid)
        assert evaluated_points == [len(grid.points)]
        self.assert_within_rounding(u, builder, alpha, E, grid)

    @pytest.mark.parametrize("shape", [(5,), (40,), (32, 2)],
                             ids=["short", "long", "columns"])
    def test_alpha_of_wrong_shape_rejected(self, disc, shape):
        builder = SystemBuilder(disc, 64, 32, 0.1)
        with pytest.raises(DomainError, match="alpha has shape"):
            raster_sum(builder, np.ones(shape), 16.0, interior_grid(disc, 41))

    def lobe_raster(self, wobbly, rng):
        # k = 30: far tiles take most of the raster; blocks of 256 points:
        # the near field spans several
        builder = SystemBuilder(wobbly, 512, 256, 0.05)
        return (builder, self.one_class(rng, 256),
                interior_grid(wobbly, 151))

    @pytest.mark.parametrize("threads", [2, 3])
    def test_bit_equal_for_any_thread_count(self, wobbly, rng, monkeypatch,
                                            threads):
        builder, alpha, grid = self.lobe_raster(wobbly, rng)
        monkeypatch.setattr(neuspec.assembly, "kernel_threads", lambda: 1)
        one = raster_sum(builder, alpha, 900.0, grid)
        monkeypatch.setattr(neuspec.assembly, "kernel_threads",
                            lambda: threads)
        assert np.array_equal(raster_sum(builder, alpha, 900.0, grid), one)

    def test_half_the_y0_values(self, wobbly, rng, monkeypatch):
        """The mirror halves the Y0 values of even coefficients, and the
        far tiles leave under a tenth of the direct sum's Bessel values: the
        near field's Y0 on the workers, one Y0 and one Y1 per far tile and
        charge on this thread."""
        builder, alpha, grid = self.lobe_raster(wobbly, rng)
        elems = {}

        def counting(module, name):
            real = getattr(module, name)

            def count(x, *args, **kwargs):
                elems[name] = elems.get(name, 0) + x.size
                return real(x, *args, **kwargs)

            monkeypatch.setattr(module, name, count)

        counting(neuspec.special, "bessel_y0")
        counting(neuspec.assembly, "bessel_y0")
        counting(neuspec.assembly, "bessel_y1")
        monkeypatch.setattr(neuspec.assembly, "kernel_threads", lambda: 1)
        raster_sum(builder, alpha, 900.0, grid)
        direct = len(grid.points) * builder.charges.N
        assert elems["bessel_y0"] <= 0.51 * direct
        assert sum(elems.values()) < 0.1 * direct


class TestSetupGeometry:
    def test_memory_is_outputs_and_block_buffers(self, wobbly, monkeypatch):
        """The constructor allocates its four M x N tables and four block
        buffers per worker, ``traces`` its four outputs and one buffer per
        worker, each buffer at most ROW_BLOCK values; 512 kB, a quarter of
        one table, covers the rest (about 250 kB, most of it the grid's)."""
        monkeypatch.setattr(neuspec.assembly, "kernel_threads", lambda: 2)
        table = 700 * 350 * 8
        buffer = neuspec.assembly.ROW_BLOCK * 8
        tracemalloc.start()
        try:
            b = SystemBuilder(wobbly, 700, 350, 0.025)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            b.traces(40.53 ** 2)
            traced = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert built <= 4 * table + 2 * 4 * buffer + (512 << 10)
        assert traced <= 4 * table + 2 * buffer + (512 << 10)

    def test_distances_and_projections_match_einsum(self, wobbly):
        """The M x N tables from two coordinate differences equal the
        einsum over the M x N x 2 difference array bit for bit."""
        b = SystemBuilder(wobbly, 128, 64, 0.05)
        dx = b.grid.x[:, None, :] - b.charges.y[None, :, :]
        dist = np.sqrt(np.einsum("mnd,mnd->mn", dx, dx))
        assert np.array_equal(b._dist, dist)
        inv = 1.0 / dist
        for proj, v in ((b._proj_nor, b.grid.nrm), (b._proj_tan, b.grid.tng),
                        (b._proj_dil, b.grid.x)):
            assert np.array_equal(proj, np.einsum("mnd,md->mn", dx, v) * inv)

import re

import numpy as np
import pytest
from scipy.integrate import quad

from neuspec import (RadialCurve, SystemBuilder, arclength_spectral, area,
                     build_grid, charge_points, contains, interior_grid)
from neuspec.errors import DomainError, NumericalError
from neuspec.geometry import mirror_fold, mirror_unfold


def charge_index(exc):
    """The index of the first bad charge point, read from the message."""
    return int(re.match(r"charge point (\d+) at ", str(exc)).group(1))


def perimeter_oracle(curve, upper=2 * np.pi):
    """Adaptive Gauss-Kronrod quadrature of the speed, independent of the
    spectral arclength path."""
    speed = lambda t: abs(curve.radius_deriv(t) + 1j * curve.radius(t))
    val, err = quad(speed, 0.0, upper, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


class TestBuildGrid:
    def test_circle_m4_nodes_weights_normals(self, disc):
        g = build_grid(disc, 8)
        # at M=8 the nodes include the four axis points
        assert np.allclose(g.x[0], [1, 0], atol=1e-15)
        assert np.allclose(g.x[2], [0, 1], atol=1e-15)
        assert np.allclose(g.x[4], [-1, 0], atol=1e-15)
        assert np.allclose(g.w, 2 * np.pi / 8)
        assert np.allclose(g.nrm, g.x, atol=1e-15)

    def test_circle_weights_sum_to_perimeter(self, disc):
        g = build_grid(disc, 64)
        assert abs(g.w.sum() - 2 * np.pi) < 1e-14

    def test_wobbly_perimeter_vs_adaptive_oracle(self, wobbly):
        g = build_grid(wobbly, 700)
        L_oracle = perimeter_oracle(wobbly)
        # frozen from the oracle; guards against silent curve changes
        assert abs(L_oracle - 7.4309545156431135) < 1e-12
        assert abs(g.L - L_oracle) < 1e-12

    def test_frames_orthonormal(self, wobbly):
        g = build_grid(wobbly, 512)
        assert np.abs(np.einsum("md,md->m", g.nrm, g.tng)).max() < 1e-14
        assert np.abs(np.hypot(g.nrm[:, 0], g.nrm[:, 1]) - 1).max() < 1e-14
        assert np.abs(np.hypot(g.tng[:, 0], g.tng[:, 1]) - 1).max() < 1e-14

    def test_normals_outward(self, wobbly):
        g = build_grid(wobbly, 512)
        assert np.einsum("md,md->m", g.x, g.nrm).min() > 0

    def test_rejects_bad_sizes(self, disc):
        for M in (7, 4):
            with pytest.raises(DomainError, match="even integer >= 8"):
                build_grid(disc, M)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError, match="radius must be positive"):
            RadialCurve.radial(1.0, 1.5, 3, 0.2)


class TestRadialCurve:
    def test_bad_constructor_arguments(self):
        with pytest.raises(DomainError, match="positive integer"):
            RadialCurve.radial(1.0, 0.3, 0, 0.2)
        with pytest.raises(DomainError, match="constant cosine"):
            RadialCurve.trig([])

    def test_repr_prints_plain_floats(self):
        assert (repr(RadialCurve.trig([1.0, 0.1], [0.05]))
                == "RadialCurve.trig([1.0, 0.1], [0.05])")
        assert repr(RadialCurve.circle()) == "RadialCurve.trig([1.0], [])"
        assert (repr(RadialCurve.radial(1, 0.3, 3, 0.2))
                == "RadialCurve.radial(a0=1.0, eps=0.3, k=3, b=0.2)")


class TestArclength:
    def test_odd_node_count_rejected(self, disc):
        with pytest.raises(DomainError, match="M must be even"):
            arclength_spectral(disc, 63)

    def test_circle_exact(self, disc):
        s, L = arclength_spectral(disc, 64)
        assert abs(L - 2 * np.pi) < 1e-14
        assert np.abs(s - 2 * np.pi * np.arange(64) / 64).max() < 1e-14

    def test_self_convergence(self):
        curve = RadialCurve.trig([1.0, 0.0, 0.15], [0.05])
        s1, L1 = arclength_spectral(curve, 256)
        s2, L2 = arclength_spectral(curve, 512)
        assert abs(L1 - L2) < 1e-13
        assert np.abs(s1 - s2[::2]).max() < 1e-13

    def test_monotone_below_perimeter(self, wobbly):
        s, L = arclength_spectral(wobbly, 512)
        assert np.all(np.diff(s) > 0)
        assert s[-1] < L

    def test_increments_track_weights(self, wobbly):
        g = build_grid(wobbly, 512)
        rel = np.abs(np.diff(g.s) / g.w[1:] - 1.0)
        # increments are midpoint-like vs node weights: O(1/M) agreement
        assert rel.max() < 5.0 / g.M * 4

    def test_matches_direct_mode_sum(self, wobbly):
        # reference: the sum over the kept Fourier modes written out as an
        # M x (M-2) phase matrix; the inverse FFT only reorders the sums
        M = 700
        s, L = arclength_spectral(wobbly, M)
        t = 2 * np.pi * np.arange(M) / M
        c = np.fft.fft(np.abs(wobbly.velocity(t))) / M
        n = np.fft.fftfreq(M, d=1.0 / M)
        keep = (n != 0) & (np.abs(n) != M // 2)
        phase = np.exp(1j * np.outer(t, n[keep])) - 1.0
        ref = c[0].real * t + (phase @ (c[keep] / (1j * n[keep]))).real
        assert L == 2 * np.pi * c[0].real
        assert np.abs(s - ref).max() <= 16 * np.finfo(float).eps * L

    def test_doubling_invariance(self, wobbly):
        s1, L1 = arclength_spectral(wobbly, 512)
        s2, L2 = arclength_spectral(wobbly, 1024)
        assert abs(L1 - L2) < 1e-13
        assert np.abs(s1 - s2[::2]).max() < 1e-13


class TestChargePoints:
    def test_circle_radius_and_angles(self, disc):
        # imaginary shift of the 2pi-periodic parameter by 2*pi*tau
        tau = 0.1
        cs = charge_points(disc, 16, tau)
        rad = np.hypot(cs.y[:, 0], cs.y[:, 1])
        assert np.abs(rad - np.exp(2 * np.pi * tau)).max() < 1e-13
        ang = np.arctan2(cs.y[:, 1], cs.y[:, 0])
        expect = np.angle(np.exp(2j * np.pi * np.arange(16) / 16))
        assert np.abs(np.angle(np.exp(1j * (ang - expect)))).max() < 1e-13

    def test_wobbly_table_parameters_exterior(self, wobbly):
        cs = charge_points(wobbly, 350, 0.025)
        for p in cs.y:
            assert not contains(wobbly, p)

    def test_huge_tau_rejected_or_distant(self, wobbly):
        try:
            cs = charge_points(wobbly, 32, 5.0)
        except NumericalError as exc:
            assert "is not strictly exterior" in str(exc)
            return
        assert np.hypot(cs.y[:, 0], cs.y[:, 1]).max() > 1e6

    def test_tau_to_zero_linear(self, wobbly):
        g = build_grid(wobbly, 64)
        prev = None
        for tau in (0.02, 0.01, 0.005):
            cs = charge_points(wobbly, 64, tau)
            d = np.hypot(*(cs.y - g.x).T).max()
            if prev is not None:
                assert 1.7 < prev / d < 2.3
            prev = d

    def test_invalid_tau(self, disc):
        with pytest.raises(DomainError, match="tau must be positive"):
            charge_points(disc, 8, 0.0)

    def test_no_charges_rejected(self, disc):
        with pytest.raises(DomainError, match="N must be positive"):
            charge_points(disc, 0, 0.1)

    def test_first_interior_charge_reported(self, wobbly):
        # at tau=0.1 the continuation of the three-lobe curve folds back
        # inside it
        with pytest.raises(NumericalError) as info:
            charge_points(wobbly, 64, 0.1)
        assert charge_index(info.value) == 9
        # the point prints as Python floats (plain numbers, not np.float64)
        z = wobbly.position(2 * np.pi * (np.arange(64) / 64 - 0.1j))[9]
        point = (z.real.item(), z.imag.item())
        assert str(info.value) == (f"charge point 9 at {point} is not "
                                   "strictly exterior")

    @pytest.mark.parametrize("N", [16, 64, 350])
    @pytest.mark.parametrize("tau", [0.01, 0.025, 0.05, 0.08, 0.1, 0.3, 5.0])
    def test_matches_per_point_check(self, wobbly, N, tau):
        # reference: each point on its own, in order, must be finite and
        # strictly outside the curve along its own ray
        theta = 2 * np.pi * (np.arange(N) / N - 1j * tau)
        with np.errstate(over="ignore", invalid="ignore"):
            y = wobbly.position(theta)
            expect = next((i for i, p in enumerate(y) if not (
                np.isfinite(p) and abs(p) > wobbly.radius(np.angle(p)))),
                None)
        try:
            charge_points(wobbly, N, tau)
            index = None
        except NumericalError as exc:
            index = charge_index(exc)
        assert index == expect


class TestContainsInteriorArea:
    def test_contains_trivials(self, disc):
        assert contains(disc, (0.0, 0.0))
        assert not contains(disc, (10.0, 0.0))
        g = build_grid(disc, 16)
        for m in range(16):
            assert not contains(disc, g.x[m])  # boundary excluded, strict

    def test_contains_one_point_is_one_bool(self, wobbly):
        assert contains(wobbly, (0.1, 0.2)) is True
        assert contains(wobbly, np.array([5.0, 0.0])) is False

    @pytest.mark.parametrize("name", ["disc", "wobbly"])
    def test_interior_grid_is_contains_on_raster(self, name, request):
        curve = request.getfixturevalue(name)
        ig = interior_grid(curve, 41)
        per_point = [[contains(curve, (x, y)) for x in ig.xs] for y in ig.ys]
        assert np.array_equal(ig.inside, per_point)
        inside = contains(curve, ig.points)
        assert inside.shape == (len(ig.points),) and inside.all()

    def test_interior_grid_center_only(self, disc):
        ig = interior_grid(disc, 3)
        assert ig.inside.sum() == 1
        assert np.allclose(ig.points[0], [0.0, 0.0], atol=1e-14)

    def test_interior_grid_area_fraction(self, disc):
        ig = interior_grid(disc, 201)
        frac = ig.inside.sum() / 201 ** 2
        assert abs(frac - np.pi / 4) < 0.02 * np.pi / 4

    def test_interior_points_inside(self, wobbly):
        ig = interior_grid(wobbly, 41)
        for p in ig.points:
            assert contains(wobbly, p)

    def test_area_circle(self, disc):
        assert abs(area(disc) - np.pi) < 1e-14

    def test_area_radius_two(self):
        big = RadialCurve.circle(2.0)
        assert abs(area(big) - 4 * np.pi) < 1e-13

    def test_area_wobbly_vs_oracle(self, wobbly):
        val, err = quad(lambda t: 0.5 * wobbly.radius(t) ** 2, 0, 2 * np.pi,
                        limit=400, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        assert abs(area(wobbly) - val) < 1e-12


class TestComplexContinuation:
    def test_radius_entire_consistency(self, wobbly):
        # complex evaluation must agree with real evaluation on the real axis
        th = np.linspace(0, 2 * np.pi, 17)
        assert np.abs(wobbly.radius(th + 0j) - wobbly.radius(th)).max() < 1e-15

    def test_velocity_matches_fd(self, wobbly):
        t = np.linspace(0.1, 6.0, 7)
        h = 1e-6
        fd = (wobbly.position(t + h) - wobbly.position(t - h)) / (2 * h)
        assert np.abs(fd - wobbly.velocity(t)).max() < 1e-7


def mirrored(n):
    """The index n - i (mod n) paired with each i."""
    return (-np.arange(n)) % n


def class_basis(n, parity):
    """S of the class, n x n_c, from ``mirror_unfold`` on the identity."""
    return mirror_unfold(np.eye(len(mirror_fold(np.eye(n), parity))), n,
                         parity)


class TestReflection:
    @pytest.mark.parametrize("curve, symmetric", [
        (RadialCurve.radial(1.0, 0.3, 3, 0.2), True),
        (RadialCurve.circle(), True),
        (RadialCurve.trig([1.0, 0.1, 0.05]), True),
        (RadialCurve.trig([1.0, 0.1, 0.05], [0.0, 0.0]), True),
        (RadialCurve.trig([1.0, 0.1], [0.0, 0.05]), False)])
    def test_symmetry_from_curve(self, curve, symmetric):
        assert curve.symmetric is symmetric
        assert SystemBuilder(curve, 16, 16, 0.05).classes == (
            (1, -1) if symmetric else (0,))

    def test_no_odd_class_below_three_charges(self, wobbly):
        # with N <= 2 every charge is its own mirror: one (even) class
        assert SystemBuilder(wobbly, 16, 2, 0.05).classes == (0,)
        assert SystemBuilder(wobbly, 16, 3, 0.05).classes == (1, -1)

    @pytest.mark.parametrize("curve", [RadialCurve.radial(1.0, 0.3, 3, 0.2),
                                       RadialCurve.trig([1.0, 0.1, 0.05])],
                             ids=["radial", "trig"])
    @pytest.mark.parametrize("M, N", [(64, 32), (100, 33), (700, 350)])
    def test_nodes_and_charges_mirror(self, curve, M, N):
        # node m and M - m, charge n and N - n are mirror images under
        # y -> -y to a few ulps of the largest coordinate (measured: 7.1)
        ulp = np.finfo(float).eps
        x = build_grid(curve, M).x
        y = charge_points(curve, N, 0.05).y
        for p, n in ((x, M), (y, N)):
            err = np.abs(p[mirrored(n)] - p * [1.0, -1.0]).max()
            assert err <= 16 * ulp * np.abs(p).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_classes_split_an_orthonormal_basis(self, n):
        S = np.hstack([class_basis(n, 1), class_basis(n, -1)])
        assert S.shape == (n, n)
        assert np.abs(S.T @ S - np.eye(n)).max() < 1e-15
        # even columns are even under the pairing, odd ones odd
        even = class_basis(n, 1)
        assert np.array_equal(even[mirrored(n)], even)
        odd = class_basis(n, -1)
        assert np.array_equal(odd[mirrored(n)], -odd)

    @pytest.mark.parametrize("shape", [(8, 6), (9, 7), (12, 12)])
    @pytest.mark.parametrize("parity", [1, -1])
    def test_fold_and_unfold_are_the_basis(self, rng, shape, parity):
        X = rng.standard_normal(shape)
        S_r, S_c = (class_basis(n, parity) for n in shape)
        assert np.abs(mirror_fold(X, parity) - S_r.T @ X @ S_c).max() < 1e-14
        Y = rng.standard_normal((S_c.shape[1], 3))
        unfolded = mirror_unfold(Y, shape[1], parity)
        assert np.abs(unfolded - S_c @ Y).max() < 1e-15

    def test_parity_zero_is_the_identity(self, rng):
        X = rng.standard_normal((6, 4))
        assert mirror_fold(X, 0) is X
        assert mirror_unfold(X, 6, 0) is X

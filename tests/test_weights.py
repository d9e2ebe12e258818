import tracemalloc

import numpy as np
import pytest

from neuspec import build_filter_matrix, build_grid, f_weight, g_weight
from neuspec.errors import InvalidCurveError
from neuspec.weights import smooth_step


class TestScalarWeights:
    def test_g_pure_sqrt_region(self):
        h = 0.05
        for sig in (2 * h ** (2 / 3.0), 0.5, 1.0):
            assert g_weight(sig, h) == pytest.approx(np.sqrt(sig), abs=0, rel=1e-15)

    def test_g_plateau_region(self):
        h = 0.05
        for sig in (-1.0, 0.0, h ** (2 / 3.0)):
            assert g_weight(sig, h) == h ** (1 / 3.0)

    def test_g_nearly_monotone(self):
        # the C-infinity matching dents the transition band by < 1e-3;
        # outside the band the weight is exactly monotone
        h = 1e-2
        sig = np.linspace(0.0, 1.0, 10001)
        d = np.diff(g_weight(sig, h))
        assert d.min() > -1e-3
        band = (sig[1:] < h ** (2 / 3.0)) | (sig[1:] > 2 * h ** (2 / 3.0))
        assert d[band].min() >= -1e-15

    def test_smooth_step_endpoints(self):
        assert smooth_step(-1.0) == 0.0
        assert smooth_step(0.0) == 0.0
        assert smooth_step(1.0) == 1.0
        assert smooth_step(2.0) == 1.0
        s = smooth_step(np.linspace(0, 1, 101))
        assert np.all(np.diff(s) >= -1e-14)
        assert abs(smooth_step(0.5) - 0.5) < 1e-13  # integrand symmetric

    def test_f_trivials(self):
        h = 0.2
        assert f_weight(1.0, h) == 1.0
        assert f_weight(0.0, h) == pytest.approx(h ** (-1 / 3.0), rel=1e-15)

    def test_f_reciprocal_identity(self, rng):
        h = 0.07
        sig = rng.uniform(-2.0, 1.0, 10000)
        prod = f_weight(sig, h) * np.maximum(np.sqrt(np.maximum(sig, 0.0)), h ** (1 / 3.0))
        assert np.abs(prod - 1.0).max() < 1e-15

    def test_g_times_f_is_one_in_sqrt_region(self):
        h = 0.03
        sig = np.linspace(2 * h ** (2 / 3.0), 1.0, 1000)
        assert np.abs(g_weight(sig, h) * f_weight(sig, h) - 1.0).max() < 1e-15

    def test_h_range_checked(self):
        with pytest.raises(InvalidCurveError):
            g_weight(0.5, 0.0)
        with pytest.raises(InvalidCurveError):
            f_weight(0.5, 1.5)


class TestFilterSpec:
    """The filter's frequency bookkeeping: the symbol on the columns of P
    and the grid-size check."""

    def test_fields(self, disc):
        h = 0.05
        F = build_filter_matrix(build_grid(disc, 64), h)
        # on the unit circle the support 1 - (n h)^2 > h^(2/3) holds
        # |n| <= 18, cut at the grid's |n| <= M/4 = 16
        assert F.P.shape == (64, 33)
        assert F.d.shape == (33,)
        # the cosine and sine column of each n share its symbol value
        assert np.array_equal(F.d[1:17], F.d[17:])
        vals = F.d + F.shift
        assert F.shift == h ** (-1 / 3.0)
        assert np.all(vals >= 1.0 - 1e-15)
        assert np.all(vals <= h ** (-1 / 3.0) + 1e-15)

    def test_requires_divisible_by_four(self, disc):
        g = build_grid(disc, 64)
        object.__setattr__(g, "M", 66)  # simulate a bad size
        with pytest.raises(InvalidCurveError):
            build_filter_matrix(g, 0.05)


class TestFilterMatrix:
    def test_constant_vector_passes_through(self, disc):
        g = build_grid(disc, 256)
        F = build_filter_matrix(g, 0.05)
        one = np.ones(256)
        assert np.abs(F @ one - one).max() < 1e-10

    def test_symmetric(self, wobbly):
        g = build_grid(wobbly, 128)
        F = build_filter_matrix(g, 0.1).dense()
        assert np.abs(F - F.T).max() == 0.0

    def test_circle_diagonalized_by_dft(self, disc):
        # brute force: eigenvalues must be the filter values at |n| <= M/4
        # plus h^{-1/3} with the complementary multiplicity
        M, h = 64, 0.05
        g = build_grid(disc, M)
        F = build_filter_matrix(g, h).dense()
        ev = np.sort(np.linalg.eigvalsh(F))
        n = np.arange(-M // 4, M // 4 + 1)
        xi = 2 * np.pi * n * h / g.L
        expected = np.sort(np.concatenate([
            f_weight(1 - xi ** 2, h),
            np.full(M - len(n), h ** (-1 / 3.0)),
        ]))
        assert np.abs(ev - expected).max() < 1e-10

    def test_wobbly_spectrum_range(self, wobbly):
        # non-equispaced arclength makes the Fourier analysis weights only
        # approximately unitary; the spectrum spills past [1, h^{-1/3}] by a
        # measured ~0.4% at this resolution
        g = build_grid(wobbly, 700)
        h = 1 / 40.5
        F = build_filter_matrix(g, h).dense()
        ev = np.linalg.eigvalsh(F)
        hinv = h ** (-1 / 3.0)
        assert ev.min() > 1.0 - 5e-4
        assert ev.max() < hinv * (1.0 + 6e-3)

    def test_rank_is_the_symbol_support(self, wobbly):
        # only the frequencies with 1 - xi^2 > h^{2/3} differ from h^{-1/3}
        g = build_grid(wobbly, 700)
        h = 1 / 40.5
        F = build_filter_matrix(g, h)
        xi = 2 * np.pi * np.arange(-175, 176) * h / g.L
        assert F.P.shape == (700, 91)
        assert F.d.shape == (91,)
        assert np.count_nonzero(1 - xi ** 2 > h ** (2 / 3.0)) == 91

    def test_product_matches_dense(self, wobbly, rng):
        g = build_grid(wobbly, 700)
        F = build_filter_matrix(g, 1 / 40.5)
        X = rng.standard_normal((700, 40))
        dense = F.dense() @ X
        assert np.abs(F @ X - dense).max() < 1e-13 * np.abs(dense).max()
        x = X[:, 0]
        assert np.abs(F @ x - dense[:, 0]).max() < 1e-13 * np.abs(dense).max()

    def test_dense_matches_complex_exponential_oracle(self, wobbly):
        # the real basis spans the complex exponentials e^{2 pi i n s/L},
        # |n| <= n_k, and the even symbol makes their kernel real
        g = build_grid(wobbly, 700)
        h = 1 / 40.5
        F = build_filter_matrix(g, h)
        n = np.arange(-(len(F.d) // 2), len(F.d) // 2 + 1)
        d = f_weight(1 - (2 * np.pi * n * h / g.L) ** 2, h) - h ** (-1 / 3.0)
        E = np.exp(2j * np.pi / g.L * np.outer(g.s, n))
        K = ((E * d) @ E.conj().T).real
        oracle = K * F.wL[None, :] + F.shift * np.eye(g.M)
        oracle = 0.5 * (oracle + oracle.T)
        dense = F.dense()
        assert np.abs(dense - oracle).max() < 1e-13 * np.abs(oracle).max()

    def test_never_forms_the_dense_matrix(self, wobbly, rng):
        # building and applying at M=1400 stays below a quarter of one
        # M x M complex array; the dense filter alone is twice that
        M = 1400
        g = build_grid(wobbly, M)
        X = rng.standard_normal((M, 16))
        tracemalloc.start()
        try:
            build_filter_matrix(g, 1 / 80.9) @ X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M * M * 16 / 4

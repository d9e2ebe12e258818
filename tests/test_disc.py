import numpy as np
import pytest
from scipy import special as sp

from neuspec import (DiscMode, boundary_ratio, disc_modes_in_window,
                     interior_norm_disc, jnprime_zero, quasi_orth_gram_norm,
                     weighted_ratio)
from neuspec.errors import DomainError, NumericalError


def make_mode(n, l, parity="cos"):
    return DiscMode(n=n, l=l, mu=jnprime_zero(n, l), parity=parity)


def brute_window_count(lo, hi):
    """Independent enumeration: scipy J_n' on a fine grid, counting sign
    changes inside the window, both parities for n >= 1."""
    count = 0
    n = 0
    while n < hi:
        xs = np.arange(max(n, lo * 0.5) + 1e-3, hi + 1e-3, 1e-3)
        vals = sp.jvp(n, xs)
        sgn = np.sign(vals)
        sgn[sgn == 0] = 1
        flips = xs[np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]]
        inside = ((flips >= lo - 2e-3) & (flips <= hi + 2e-3)).sum()
        exact = 0
        for x in flips:
            if lo <= 0.5 * (2 * x + 1e-3) <= hi:
                exact += 1
        count += exact * (1 if n == 0 else 2)
        n += 1
    return count


def radial_quadrature_norm(n, mu, n_r=2000):
    """2000-point Gauss-Legendre of the squared mode over the disc."""
    xg, wg = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    pin = 2 * np.pi if n == 0 else np.pi
    return float(np.sqrt(pin * (w * sp.jv(n, mu * r) ** 2 * r).sum()))


class TestEnumeration:
    def test_window_contains_first_radial_mode(self):
        modes = disc_modes_in_window(3.5, 4.0)
        keys = {(m.n, m.l, m.parity) for m in modes}
        assert (0, 1, "cos") in keys
        mu = next(m.mu for m in modes if (m.n, m.l) == (0, 1))
        assert abs(mu - 3.8317059702075125) < 1e-11

    def test_window_below_first_nonconstant_mode_empty(self):
        assert disc_modes_in_window(0.5, 1.8) == []

    def test_count_matches_brute_scan(self):
        modes = disc_modes_in_window(10.0, 12.0)
        assert len(modes) == brute_window_count(10.0, 12.0)

    def test_parities(self):
        modes = disc_modes_in_window(3.5, 4.5)
        for m in modes:
            if m.n == 0:
                assert m.parity == "cos"
        pairs = {(m.n, m.l) for m in modes if m.n >= 1}
        for n, l in pairs:
            ps = {m.parity for m in modes if (m.n, m.l) == (n, l)}
            assert ps == {"cos", "sin"}

    def test_bad_window(self):
        with pytest.raises(DomainError):
            disc_modes_in_window(2.0, 1.0)

    def test_order_cap_raises(self):
        # orders up to 201 could reach a window ending above 201; the zeros
        # stop at order 200
        with pytest.raises(NumericalError, match="order cap 200 reached"):
            disc_modes_in_window(201.0, 201.5)
        modes = disc_modes_in_window(200.0, 201.0)
        assert modes and max(m.n for m in modes) < 200


class TestInteriorNorm:
    @pytest.mark.parametrize("n,l", [(0, 1), (30, 1), (7, 4)])
    def test_against_radial_quadrature(self, n, l):
        mode = make_mode(n, l)
        oracle = radial_quadrature_norm(n, mode.mu)
        assert interior_norm_disc(mode) == pytest.approx(oracle, rel=1e-12)

    def test_positive(self):
        assert interior_norm_disc(make_mode(3, 2)) > 0


class TestBoundaryRatio:
    def test_zero_order_is_sqrt2(self):
        assert boundary_ratio(make_mode(0, 5)) == pytest.approx(np.sqrt(2), rel=1e-10)

    def test_reference_formula_at_30_1(self):
        mode = make_mode(30, 1)
        exact = np.sqrt(2) / np.sqrt(1 - (30 / mode.mu) ** 2)
        assert boundary_ratio(mode) == pytest.approx(exact, rel=1e-10)

    def test_whispering_growth(self):
        assert boundary_ratio(make_mode(60, 1)) > boundary_ratio(make_mode(30, 1))


class TestWeightedRatio:
    @pytest.mark.parametrize("n,l", [(0, 5), (10, 3)])
    def test_collapses_to_sqrt2(self, n, l):
        assert weighted_ratio(make_mode(n, l)) == pytest.approx(np.sqrt(2), rel=1e-10)

    def test_regime_precondition_enforced(self):
        mode = make_mode(30, 1)
        sigma = 1 - (mode.h * 30) ** 2
        assert sigma < 2 * mode.h ** (2 / 3.0)  # whispering mode: outside regime
        with pytest.raises(DomainError):
            weighted_ratio(mode)


class TestQuasiOrthogonality:
    def test_norm_order_one(self):
        val = quasi_orth_gram_norm(20.0)
        assert 0.5 < val < 5.0

    def test_grid_doubling_invariance(self):
        a = quasi_orth_gram_norm(20.0, M=512)
        b = quasi_orth_gram_norm(20.0, M=1024)
        assert abs(a - b) < 1e-10

    def test_gram_psd(self):
        # rebuild the Gram matrix as in the norm computation and check PSD
        from neuspec.disc import g_weight, interior_norm_disc as inorm
        from neuspec.special import bessel_jn
        modes = disc_modes_in_window(19.0, 21.0)
        h = 1 / 20.0
        M = 512
        th = 2 * np.pi * np.arange(M) / M
        rows = []
        for m in modes:
            amp = bessel_jn(m.n, m.mu) / inorm(m)
            ang = np.cos(m.n * th) if m.parity == "cos" else np.sin(m.n * th)
            rows.append(g_weight(1 - (h * m.n) ** 2, h) * amp * ang)
        T = np.array(rows)
        gram = (T @ T.T) * (2 * np.pi / M)
        assert np.linalg.eigvalsh(gram).min() >= -1e-12

    def test_center_too_low_rejected(self):
        with pytest.raises(DomainError):
            quasi_orth_gram_norm(2.0)


class TestDiscMode:
    def test_invariants(self):
        m = make_mode(5, 2)
        from neuspec.special import bessel_jn, bessel_jn_prime
        assert abs(bessel_jn_prime(5, m.mu)) <= 1e-11 * abs(bessel_jn(5, m.mu))
        assert m.mu > 5
        assert m.h == pytest.approx(1 / m.mu)

    def test_no_sine_for_n0(self):
        with pytest.raises(DomainError):
            DiscMode(n=0, l=1, mu=3.8317, parity="sin")


class TestIdentityChecks:
    @pytest.mark.parametrize("kwargs, message", [
        ({"nmax": -1}, "nmax must be >= 0"),
        ({"nmax": 201}, "nmax must be <= 200"),
        ({"lmax": 0}, r"lmax must be in \[1, 100\]"),
        ({"lmax": 101}, r"lmax must be in \[1, 100\]")])
    def test_bounds_checked_before_any_work(self, monkeypatch, kwargs,
                                            message):
        import neuspec.disc

        def no_work(*args):
            raise AssertionError("the suite started")

        monkeypatch.setattr(neuspec.disc, "jnprime_zeros", no_work)
        with pytest.raises(DomainError, match=f"^{message}$"):
            neuspec.disc.identity_checks(**kwargs)

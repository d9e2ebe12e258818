import os
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from neuspec.errors import DomainError
from neuspec.special import (bessel_jn, bessel_jn_prime, bessel_y0, bessel_y1,
                             jnprime_zero, jnprime_zeros, jnprime_zeros_upto,
                             kernel_threads)

# 50-digit series oracle values (mpmath.bessely at dps=50), frozen
Y0_AT_1 = "0.088256964215676957982926766023515162827817523090675"
Y1_AT_1 = "-0.78121282130028871654715000004796482054990639071644"


def scan_zero_oracle(n, lo, hi, step=1e-3):
    """Exhaustive sign-change scan of J_n' refined by bisection; independent
    of the production bracketing logic.  Zeros of J_n' lie about pi apart,
    so a 1e-3 step separates them and the bisection refines to 1e-15."""
    xs = np.arange(lo, hi, step)
    vals = sp.jvp(n, xs)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(idx) >= 1
    a, b = xs[idx[0]], xs[idx[0] + 1]
    for _ in range(200):
        m = 0.5 * (a + b)
        if sp.jvp(n, a) * sp.jvp(n, m) <= 0:
            b = m
        else:
            a = m
        if b - a < 1e-15 * a:
            break
    return 0.5 * (a + b)


class TestY0Y1:
    def test_log_singularity_sign(self):
        assert bessel_y0(1e-6) < -8
        assert bessel_y1(1e-6) < -1e5

    def test_against_high_precision_oracle(self):
        mp.mp.dps = 50
        assert str(mp.bessely(0, 1))[:40] == Y0_AT_1[:40]
        assert str(mp.bessely(1, 1))[:40] == Y1_AT_1[:40]
        assert abs(bessel_y0(1.0) - float(mp.mpf(Y0_AT_1))) < 1e-13 * abs(float(mp.mpf(Y0_AT_1)))
        assert abs(bessel_y1(1.0) - float(mp.mpf(Y1_AT_1))) < 1e-13 * abs(float(mp.mpf(Y1_AT_1)))

    @pytest.mark.parametrize("x", [2.0, 10.0, 100.0])
    def test_y1_is_minus_y0_derivative(self, x):
        h = 1e-6 * max(1.0, x)
        fd = (bessel_y0(x + h) - bessel_y0(x - h)) / (2 * h)
        assert abs(fd + bessel_y1(x)) < 1e-8 * abs(bessel_y1(x))

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0, 200.0])
    def test_wronskian(self, x):
        w = bessel_jn(1, x) * bessel_y0(x) - bessel_jn(0, x) * bessel_y1(x)
        assert abs(w - 2 / (np.pi * x)) < 1e-12 * abs(2 / (np.pi * x))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_y0(0.0)
        with pytest.raises(DomainError):
            bessel_y1(-1.0)

    @pytest.mark.parametrize("fn", [bessel_y0, bessel_y1])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, [1.0, np.nan],
                                   [2.0, np.inf]],
                             ids=["nan", "inf", "-inf", "array-nan",
                                  "array-inf"])
    def test_non_finite_rejected(self, fn, x):
        with pytest.raises(DomainError):
            fn(x)

    def test_y0_bit_equal_to_scipy(self):
        """Any shape or stride, with or without ``out``; a scalar stays a
        scalar."""
        rng = np.random.default_rng(7)
        kd = rng.uniform(1e-3, 200.0, (300, 400))
        for x in (rng.uniform(1e-3, 200.0, 1 << 15), kd, kd[:, ::3]):
            got = bessel_y0(x)
            assert got.shape == x.shape
            assert np.array_equal(got, sp.y0(x))
            buf = x.copy()
            assert bessel_y0(buf, out=buf) is buf
            assert np.array_equal(buf, sp.y0(x))
        y = bessel_y0(2.5)
        assert isinstance(y, float) and np.ndim(y) == 0
        assert np.array_equal(y, sp.y0(2.5))

    def test_y1_out_bit_equal_to_scipy(self):
        """``out`` is written in place with scipy's bits, a row block of a
        larger array included, and the domain check still runs."""
        rng = np.random.default_rng(7)
        kd = rng.uniform(1e-3, 200.0, (300, 400))
        for x in (rng.uniform(1e-3, 200.0, 1 << 15), kd, kd[:, ::3]):
            out = np.empty(x.shape)
            assert bessel_y1(x, out=out) is out
            assert np.array_equal(out, sp.y1(x))
            buf = x.copy()
            assert bessel_y1(buf, out=buf) is buf
            assert np.array_equal(buf, sp.y1(x))
        table = np.zeros(kd.shape)
        bessel_y1(kd[46:92], out=table[46:92])
        assert np.array_equal(table[46:92], sp.y1(kd[46:92]))
        assert not table[:46].any() and not table[92:].any()
        for bad in (np.nan, np.inf, 0.0, -1.0):
            x = np.full(4, 2.0)
            x[2] = bad
            with pytest.raises(DomainError):
                bessel_y1(x, out=np.empty(4))


class TestThreadSplit:
    """The ``mode`` raster's pipeline splits its Y0 blocks across
    :func:`kernel_threads` workers, each writing its own rows of a shared
    buffer through ``out=``; the kernel itself starts no thread."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Every thread started while the test runs."""
        threads = []
        real = threading.Thread.start

        def start(self):
            threads.append(self)
            real(self)

        monkeypatch.setattr(threading.Thread, "start", start)
        return threads

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_bit_equal_to_scipy(self, started, threads):
        """Rows of one buffer filled concurrently by ``threads`` workers give
        the bits of one scipy call on the whole array."""
        rng = np.random.default_rng(7)
        kd = rng.uniform(1e-3, 200.0, (300, 400))
        cases = [rng.uniform(1e-3, 200.0, ((1 << 15) - 1, 1)),
                 rng.uniform(1e-3, 200.0, ((1 << 15) + 1, 1)), kd, kd[:, ::3]]
        with ThreadPoolExecutor(threads) as pool:
            for x in cases:
                out = np.empty(x.shape)
                rows = np.array_split(np.arange(x.shape[0]), threads)
                done = [pool.submit(bessel_y0, x[r[0]:r[-1] + 1],
                                    out=out[r[0]:r[-1] + 1]) for r in rows]
                for f in done:
                    f.result()
                assert np.array_equal(out, sp.y0(x))
        assert 1 <= len(started) <= threads
        assert not any(t.is_alive() for t in started)
        y = bessel_y0(2.5)
        assert isinstance(y, float) and np.ndim(y) == 0
        assert np.array_equal(y, sp.y0(2.5))

    def test_one_thread_by_default(self, started):
        x = np.full(4 << 15, 3.0)
        assert np.array_equal(bessel_y0(x), sp.y0(x))
        assert np.array_equal(bessel_y1(x), sp.y1(x))
        assert started == []

    def test_kernel_threads_rule(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert kernel_threads() == 3
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert kernel_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert kernel_threads() == 1
        # never more than the cores; an unusable value is passed over
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert kernel_threads() == 3
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
        assert kernel_threads() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")
        assert kernel_threads() == 2

    def test_kernel_threads_without_affinity(self, monkeypatch):
        """Where the platform has no affinity call, every core counts."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert kernel_threads() == 4
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        assert kernel_threads() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert kernel_threads() == 1


class TestJn:
    def test_at_zero(self):
        assert bessel_jn(0, 0.0) == 1.0
        for n in (1, 2, 7, 50):
            assert bessel_jn(n, 0.0) == 0.0

    def test_sum_rule(self):
        # J_0(x)^2 + 2 sum_{n>=1} J_n(x)^2 = 1; terms beyond n=60 are < 1e-40
        x = 7.3
        total = bessel_jn(0, x) ** 2 + 2 * sum(bessel_jn(n, x) ** 2 for n in range(1, 61))
        assert abs(total - 1.0) < 1e-12

    def test_prime_identity_low_order(self):
        assert abs(bessel_jn_prime(0, 3.1) + bessel_jn(1, 3.1)) < 1e-13

    def test_prime_at_zero(self):
        for n in (0, 2, 3, 9):
            assert bessel_jn_prime(n, 0.0) == 0.0
        assert abs(bessel_jn_prime(1, 0.0) - 0.5) < 1e-15

    def test_prime_vs_finite_difference(self):
        n, x, h = 5, 12.0, 1e-6
        fd = (bessel_jn(n, x + h) - bessel_jn(n, x - h)) / (2 * h)
        assert abs(fd - bessel_jn_prime(n, x)) < 1e-7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_jn(201, 1.0)
        with pytest.raises(DomainError):
            bessel_jn(3, 2e4)
        with pytest.raises(DomainError):
            bessel_jn(-1, 1.0)


class TestJnPrimeZeros:
    def test_reference_value_30_1(self):
        # 12-digit reference for the first zero of J_30'
        assert abs(jnprime_zero(30, 1) - 32.534223556790) < 5e-12

    def test_first_zero_of_j1prime_vs_scan_oracle(self):
        oracle = scan_zero_oracle(1, 0.5, 5.0)
        assert abs(jnprime_zero(1, 1) - oracle) < 1e-11 * oracle

    def test_residuals_small(self):
        for n in range(0, 41, 5):
            zs = jnprime_zeros(n, 10)
            for mu in zs:
                assert abs(bessel_jn_prime(n, mu)) <= 1e-11 * max(abs(bessel_jn(n, mu)), 1e-3)

    def test_interlacing_and_order_bound(self):
        for n in (1, 7, 33, 200):
            zs = jnprime_zeros(n, 6)
            assert np.all(np.diff(zs) > 0)
            assert zs[0] > n

    def test_indexed_zero_matches_first_zeros(self):
        for n in [*range(61), 100, 150, 200]:
            zs = jnprime_zeros(n, 100)
            for l in (1, 2, 3, 5, 8, 13, 21, 40, 100):
                assert jnprime_zero(n, l) == zs[l - 1], (n, l)

    @pytest.mark.parametrize("n", [0, 1, 3, 9, 20, 60, 120, 200])
    def test_within_2_ulp_of_mpmath(self, n):
        with mp.workdps(30):
            for l, mu in enumerate(jnprime_zeros(n, 4), start=1):
                # mpmath counts x = 0 as the first zero of J_0'
                ref = mp.besseljzero(n, l + (n == 0), derivative=1)
                ulps = abs(mp.mpf(float(mu)) - ref) / np.spacing(float(ref))
                assert ulps <= 2, (n, l, float(ulps))

    def test_zeros_upto_counts_every_zero(self):
        for n in (0, 1, 17, 200):
            zs = jnprime_zeros(n, 100)
            assert len(jnprime_zeros_upto(n, n)) == 0
            for k in (1, 2, 50, 100):
                np.testing.assert_array_equal(
                    jnprime_zeros_upto(n, zs[k - 1]), zs[:k])
                np.testing.assert_array_equal(
                    jnprime_zeros_upto(n, np.nextafter(zs[k - 1], 0)),
                    zs[:k - 1])

    def test_zeros_upto_matches_indexed(self):
        zs = jnprime_zeros_upto(4, 25.0)
        for l, mu in enumerate(zs, start=1):
            assert abs(jnprime_zero(4, l) - mu) < 1e-12 * mu

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jnprime_zero(10, 200)
        with pytest.raises(DomainError):
            jnprime_zero(300, 1)

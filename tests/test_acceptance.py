"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 carries a reference eigenfrequency for the three-lobe domain that
this implementation does not reproduce (the solver converges, with certified
error ~2e-15 relative, to 40.5301154942189 instead); see README, section
"Known discrepancies".  The assertion is kept as stated, so that test fails
honestly rather than being weakened.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy import linalg

from neuspec import (RadialCurve, classical_tension, cli, jnprime_zero,
                     min_tension, quasi_orth_gram_norm, weighted_ratio,
                     weyl_index)
from neuspec.disc import DiscMode, boundary_ratio
from neuspec.geometry import arclength_spectral
from neuspec.special import jnprime_zeros

DISC = "radial:a0=1,eps=0,k=1,b=0"
WOBBLY = "radial:a0=1,eps=0.3,k=3,b=0.2"


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def run_solve(tmpdir, name, argv):
    out = os.path.join(str(tmpdir), name)
    t0 = time.perf_counter()
    rc = cli.main(argv + ["--out", out])
    wall = time.perf_counter() - t0
    with open(out) as fh:
        doc = json.load(fh)
    return rc, doc, wall


@pytest.fixture(scope="module")
def disc_solve(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acc")
    return run_solve(tmp, "disc.json",
                     ["solve", "--curve", DISC, "--f0", "32.4", "--f1", "32.6",
                      "--M", "256", "--N", "128", "--tau", "0.1"])


@pytest.fixture(scope="module")
def wobbly_solve(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acc")
    return run_solve(tmp, "wobbly.json",
                     ["solve", "--curve", WOBBLY, "--f0", "40.50", "--f1", "40.55",
                      "--M", "700", "--N", "350", "--tau", "0.025"])


def test_criterion_1_disc_weighted_identity():
    t0 = time.perf_counter()
    errs = []
    for n, l in [(0, 5), (5, 4), (10, 3), (20, 2)]:
        mode = DiscMode(n=n, l=l, mu=jnprime_zero(n, l), parity="cos")
        errs.append(abs(weighted_ratio(mode) - np.sqrt(2.0)))
    wall = time.perf_counter() - t0
    ok = max(errs) <= 1e-10 * np.sqrt(2.0) and wall < 1.0
    report(1, ok, f"weighted ratio = sqrt(2): max err {max(errs):.2e}, {wall:.2f}s")
    assert max(errs) <= 1e-10 * np.sqrt(2.0)
    assert wall < 1.0


def test_criterion_2_disc_ratio_law():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(61):
        for l, mu in enumerate(jnprime_zeros(n, 5), start=1):
            mode = DiscMode(n=n, l=l, mu=float(mu), parity="cos")
            exact = np.sqrt(2.0) / np.sqrt(1.0 - (mode.h * n) ** 2)
            worst = max(worst, abs(boundary_ratio(mode) - exact) / exact)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and wall < 10.0
    report(2, ok, f"boundary ratio law n<=60 l<=5: worst rel err {worst:.2e}, {wall:.1f}s")
    assert worst <= 1e-10
    assert wall < 10.0


def test_criterion_3_disc_eigenvalue_recovery(disc_solve):
    rc, doc, wall = disc_solve
    mu = jnprime_zero(30, 1)
    err = abs(doc["sqrtE"] - mu)
    certified = abs(doc["E"] - mu ** 2) <= doc["eps_new"]
    ok = rc == 0 and err <= 1e-9 and certified and wall < 30.0
    report(3, ok, f"disc solve: |sqrtE - mu_30_1| = {err:.2e}, "
                  f"certified interval contains mu^2: {certified}, {wall:.1f}s")
    assert rc == 0
    assert err <= 1e-9
    assert certified
    assert wall < 30.0


def test_criterion_4_reference_row_reproduction(wobbly_solve):
    rc, doc, wall = wobbly_solve
    ref = 40.5128219950085  # reference value for this domain/bracket
    err = abs(doc["sqrtE"] - ref)
    ok = (rc == 0 and err <= 1e-9 and doc["eps_new_rel"] <= 1e-12
          and doc["eps_clas_rel"] <= 1e-10 and doc["n_evals"] <= 25
          and wall < 120.0)
    report(4, ok, f"three-lobe solve: sqrtE = {doc['sqrtE']:.13f} "
                  f"(ref {ref}, err {err:.2e}), eps_new/E = {doc['eps_new_rel']:.2e}, "
                  f"eps_clas/E = {doc['eps_clas_rel']:.2e}, "
                  f"evals = {doc['n_evals']}, {wall:.0f}s")
    assert rc == 0
    assert doc["eps_new_rel"] <= 1e-12
    assert doc["eps_clas_rel"] <= 1e-10
    assert doc["n_evals"] <= 25
    assert wall < 120.0
    assert err <= 1e-9, (
        "reference eigenfrequency not reproduced: the solver's certified "
        f"minimum sits at {doc['sqrtE']!r}; see README, Known discrepancies"
    )


def test_criterion_5_slope_uniformity(disc_solve, wobbly_solve):
    slopes = [abs(disc_solve[1]["slope"]), abs(wobbly_solve[1]["slope"])]
    ok = all(0.5 <= s <= 0.8 for s in slopes)
    report(5, ok, f"tension slopes at the two minima: {slopes[0]:.4f}, {slopes[1]:.4f}")
    for s in slopes:
        assert 0.5 <= s <= 0.8


def test_criterion_6_minimizer_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_val, worst_att = 0.0, 0.0
    for _ in range(50):
        A = rng.standard_normal((20, 8))
        B = rng.standard_normal((20, 8)) + 3.0 * np.eye(20, 8)
        res = min_tension(A, B)
        lam = linalg.eigh(A.T @ A, B.T @ B, eigvals_only=True)
        brute = np.sqrt(max(lam[0], 0.0))
        worst_val = max(worst_val, abs(res.t_min - brute) / brute)
        worst_att = max(worst_att, abs(classical_tension(res.alpha, A, B)
                                       - res.t_min) / res.t_min)
    wall = time.perf_counter() - t0
    ok = worst_val <= 1e-10 and worst_att <= 1e-10 and wall < 5.0
    report(6, ok, f"50 random instances vs dense brute force: value err {worst_val:.2e}, "
                  f"attainment err {worst_att:.2e}, {wall:.2f}s")
    assert worst_val <= 1e-10
    assert worst_att <= 1e-10
    assert wall < 5.0


def test_criterion_7_quasi_orthogonality_witness():
    t0 = time.perf_counter()
    norms = {c: quasi_orth_gram_norm(c) for c in (20.0, 40.0, 80.0)}
    wall = time.perf_counter() - t0
    inside = all(0.3 <= v <= 6.0 for v in norms.values())
    spread = max(norms.values()) / min(norms.values())
    ok = inside and spread < 2.0 and wall < 60.0
    report(7, ok, f"gram norms {[round(v, 4) for v in norms.values()]}, "
                  f"spread x{spread:.3f}, {wall:.1f}s")
    assert inside
    assert spread < 2.0
    assert wall < 60.0


def test_criterion_8_weyl_index():
    t0 = time.perf_counter()
    curve = RadialCurve.radial(1.0, 0.3, 3, 0.2)
    est = weyl_index(curve, 405.003269518228 ** 2)
    wall = time.perf_counter() - t0
    rel = abs(est - 42612) / 42612
    ok = rel < 0.015 and wall < 1.0
    report(8, ok, f"two-term count estimate {est:.0f} vs 42612 ({rel * 100:.2f}%), {wall:.2f}s")
    assert rel < 0.015
    assert wall < 1.0


def test_criterion_9_spectral_accuracy():
    t0 = time.perf_counter()
    curve = RadialCurve.radial(1.0, 0.3, 3, 0.2)
    s1, L1 = arclength_spectral(curve, 512)
    s2, L2 = arclength_spectral(curve, 1024)
    wall = time.perf_counter() - t0
    dL = abs(L1 - L2)
    ds = float(np.abs(s1 - s2[::2]).max())
    ok = dL <= 1e-12 and ds <= 1e-12 and wall < 1.0
    report(9, ok, f"perimeter diff {dL:.2e}, arclength diff {ds:.2e}, {wall:.2f}s")
    assert dL <= 1e-12
    assert ds <= 1e-12
    assert wall < 1.0


@pytest.mark.skipif(not os.environ.get("NEUSPEC_EXTENDED"),
                    reason="extended high-frequency run (tens of minutes); "
                           "set NEUSPEC_EXTENDED=1 to enable")
def test_criterion_10_extended_high_frequency(tmp_path):
    rc, doc, wall = run_solve(tmp_path, "high.json",
                              ["solve", "--curve", WOBBLY,
                               "--f0", "405.0", "--f1", "405.005",
                               "--M", "5000", "--N", "2500", "--tau", "0.004"])
    ref = 405.003269518228
    err = abs(doc["sqrtE"] - ref)
    ok = rc == 0 and err <= 1e-9 and doc["eps_new_rel"] <= 1e-11
    report(10, ok, f"high-frequency solve: sqrtE = {doc['sqrtE']:.12f} "
                   f"(ref {ref}), eps_new/E = {doc['eps_new_rel']:.2e}, {wall:.0f}s")
    assert rc == 0
    assert doc["eps_new_rel"] <= 1e-11
    assert err <= 1e-9, (
        "reference eigenfrequency not reproduced; see README, Known discrepancies"
    )

"""The three benchmark workloads: how each draws its inputs from the seed,
the command line it hands to ``neuspec.cli.main``, and the check its output
must pass.  Why each workload exists is written in README.md.

Every operation draws fresh inputs from the run's random stream, so the same
seed gives the same sequence of inputs and no two operations of a run need
be identical.  The program sees only the resulting command line.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

LOBE = "radial:a0=1,eps=0.3,k=3,b=0.2"

# The three-lobe eigenfrequency the parent code converges to (a regression
# reference, not acceptance criterion 4's value).
LOBE_SQRTE = 40.53011549421898

# The sweep's windows sit on a lattice: window k starts at
# SCAN_START + k * SCAN_OFFSET and holds SCAN_STEPS samples SCAN_SPACING
# apart.  reference.json holds t_min for every window, recorded from the
# parent code by record_reference.py.
SCAN_START = 80.9
SCAN_OFFSET = 1e-4
SCAN_SPACING = 0.01
SCAN_STEPS = 3
SCAN_WINDOWS = 10

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def fmt(x):
    return format(float(x), ".17g")


@dataclass
class Op:
    """One user operation: the command line and what the check needs."""

    argv: list
    out: str
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    certified_digits: float = float("nan")
    gain_digits: float = float("nan")


def certificate_digits(E, eps_new, eps_clas):
    """(-log10(eps_new/E), log10(eps_clas/eps_new))."""
    return -math.log10(eps_new / E), math.log10(eps_clas / eps_new)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    curve: str
    M: int
    N: int
    tau: float
    warm_sqrtE: float

    def common(self):
        return ["--curve", self.curve, "--M", str(self.M), "--N", str(self.N),
                "--tau", fmt(self.tau)]


class LobeSolve(Workload):
    def make_op(self, rng, out):
        # jittered inward only: [40.50, 40.55] holds one tension dip
        f0 = 40.50 + rng.uniform(0.0, 0.005)
        f1 = 40.55 - rng.uniform(0.0, 0.005)
        return Op(["solve", *self.common(), "--f0", fmt(f0), "--f1", fmt(f1),
                   "--out", out], out)

    def check(self, op):
        doc = _read_json(op.out)
        cd, gd = certificate_digits(doc["E"], doc["eps_new"], doc["eps_clas"])
        rel = abs(doc["sqrtE"] - LOBE_SQRTE) / LOBE_SQRTE
        if rel > 1e-12:
            return Outcome(False, f"sqrtE {doc['sqrtE']!r} is {rel:.2e} from "
                                  f"the reference {LOBE_SQRTE!r}", cd, gd)
        if not doc["eps_new_rel"] <= 1e-12:
            return Outcome(False, f"eps_new/E = {doc['eps_new_rel']:.3e} "
                                  f"> 1e-12", cd, gd)
        if not 0.5 <= doc["slope"] <= 0.8:
            return Outcome(False, f"slope {doc['slope']!r} outside "
                                  f"[0.5, 0.8]", cd, gd)
        return Outcome(True, "", cd, gd)


class LobeScan(Workload):
    def window(self, k):
        lo = SCAN_START + k * SCAN_OFFSET
        return lo, lo + (SCAN_STEPS - 1) * SCAN_SPACING

    def make_op(self, rng, out):
        return self.window_op(rng.randrange(SCAN_WINDOWS), out)

    def window_op(self, k, out):
        lo, hi = self.window(k)
        return Op(["sweep", *self.common(), "--fmin", fmt(lo), "--fmax",
                   fmt(hi), "--steps", str(SCAN_STEPS), "--out", out], out,
                  {"window": k})

    def check(self, op):
        ref = load_reference()[self.name][str(op.expect["window"])]
        rows = np.loadtxt(op.out, delimiter=",", skiprows=1, ndmin=2)
        if len(rows) != SCAN_STEPS:
            return Outcome(False, f"{len(rows)} of {SCAN_STEPS} samples "
                                  f"succeeded")
        lo, hi = self.window(op.expect["window"])
        if not np.allclose(rows[:, 0], np.linspace(lo, hi, SCAN_STEPS),
                           rtol=1e-15, atol=0.0):
            return Outcome(False, f"sample frequencies {rows[:, 0]}")
        rel = np.abs(rows[:, 1] - ref) / np.abs(ref)
        if not np.all(rel <= 1e-8):
            return Outcome(False, f"t_min {rows[:, 1]} vs recorded {ref}: "
                                  f"worst relative gap {rel.max():.2e}")
        return Outcome(True)


class LobeMode(Workload):
    nx = 301

    def make_op(self, rng, out):
        return Op(["mode", *self.common(), "--freq", fmt(self.warm_sqrtE),
                   "--nx", str(self.nx), "--out", out], out)

    def check(self, op):
        ix, iy, x, y, u = np.loadtxt(op.out, delimiter=",", skiprows=1,
                                     unpack=True)
        # raster spacing from the printed points themselves
        dx = (x.max() - x.min()) / (ix.max() - ix.min())
        dy = (y.max() - y.min()) / (iy.max() - iy.min())
        norm = float(np.sum(u * u) * dx * dy)
        if not abs(norm - 1.0) <= 0.01:
            return Outcome(False, f"raster quadrature of u^2 is {norm!r}, "
                                  f"not within 1% of 1")
        return Outcome(True)


WORKLOADS = {w.name: w for w in (
    LobeSolve("lobe-solve", "solve", LOBE, 700, 350, 0.025, 40.525),
    LobeScan("lobe-scan-81", "sweep", LOBE, 1400, 700, 0.0125, SCAN_START),
    LobeMode("lobe-mode", "mode", LOBE, 700, 350, 0.025, LOBE_SQRTE),
)}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)

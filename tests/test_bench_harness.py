"""The benchmark's tracer (bench/instrument.py) wraps package names by
attribute lookup.  These tests fail when a change to the package drops or
renames one of them, which would otherwise show only when
``bench/run.py --trace 1`` runs."""

import json
import sys
from pathlib import Path

import neuspec.assembly
import neuspec.cli
import neuspec.geometry
import neuspec.search
from neuspec import RadialCurve, SystemBuilder, TensionSolver

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from instrument import SAMPLE_NAMES, NeuspecTrace  # noqa: E402
from spans import Tracer, nesting_errors  # noqa: E402

OWNERS = (neuspec.assembly, neuspec.cli, neuspec.geometry, neuspec.search,
          SystemBuilder, TensionSolver)


def test_install_trace_solve_restore(tmp_path, monkeypatch):
    # the evaluations, recorded under the tracer's own wrapper
    evals = []
    evaluate = TensionSolver.evaluate

    def recorded(self, E):
        evals.append(evaluate(self, E))
        return evals[-1]

    monkeypatch.setattr(TensionSolver, "evaluate", recorded)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    trace = NeuspecTrace(tracer)
    trace.install()
    try:
        trace.begin_op(0, "solve")
        rc = neuspec.cli.main(["solve", "--curve", "radial:a0=1,eps=0,k=1,b=0",
                               "--f0", "3.81", "--f1", "3.84", "--M", "64",
                               "--N", "32", "--tau", "0.1", "--coarse", "5",
                               "--out", str(tmp_path / "solve.json")])
    finally:
        tracer.restore()
    assert rc == 0
    assert [dict(vars(owner)) for owner in OWNERS] == before
    assert not nesting_errors(tracer.spans)
    names = [s.name for s in tracer.spans]
    assert names.count("assembly.system") == names.count("search.evaluate")
    assert names.count("tension.classical_tension") == names.count("search.evaluate")
    assert tracer.counts["search.evals.total"] == names.count("search.evaluate")
    assert tracer.counts["search.evals.reassembly"] == 0
    # every evaluation of a solve is a presolve or a refinement sample: the
    # slope reuses a refinement sample, and a lost ``parabolic_min`` span
    # would move the refinement samples into the presolve count
    doc = json.loads((tmp_path / "solve.json").read_text())
    assert tracer.counts["search.evals.slope"] == 0
    assert tracer.counts["search.evals.presolve"] == doc["n_presolve"]
    # the search takes its two bracket ends and the grid minimum between
    # them from the presolve
    assert tracer.counts["search.evals.refine"] == doc["n_evals"] - 3
    assert (tracer.counts["search.evals.presolve"]
            + tracer.counts["search.evals.refine"]
            == tracer.counts["search.evals.total"] == doc["n_evals_total"])
    # bench/run.py takes the median of every sample list and fails on an
    # empty one; the filter's byte samples come from its wrapped name
    assert all(tracer.samples[name] for name in SAMPLE_NAMES)
    # the rank samples read result[1] of ``sqrt_factor`` and ``rank_eps`` of
    # ``min_tension``'s result: one int per evaluation, its own rank
    for name, field in (("assembly.rank_H", "rank_H"),
                        ("tension.rank_eps", "rank_eps")):
        assert all(type(x) is int for x in tracer.samples[name])
        assert tracer.samples[name] == [getattr(ev, field) for ev in evals]
    assert (names.count("weights.build_filter_matrix")
            == names.count("assembly.system"))
    # the presolve's bracketing samples are reused, not re-assembled
    assert tracer.counts["search.evals.repeat"] == 0


def test_classical_matches_evaluation():
    solver = TensionSolver(RadialCurve.circle(), 64, 32, 0.1)
    E = 3.82 ** 2
    ev = solver.evaluate(E)
    assert solver.classical(E, ev.alpha) == ev.t_classical

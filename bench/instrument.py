"""Spans and counters around the calls into each neuspec module.

Each wrapper replaces the attribute that the caller looks up at call time
(``neuspec.assembly.build_filter_matrix`` for ``SystemBuilder.system``,
``neuspec.search.min_tension`` for ``TensionSolver.evaluate``, and so on), so
the program's own files stay untouched.  Spans are named
``<module>.<function>`` after the module that defines the function.

Counters, per operation:

- ``search.evals.presolve`` / ``.refine`` / ``.slope``: ``evaluate`` calls of
  a ``solve`` before ``parabolic_min`` starts, inside it, and after it ends.
- ``search.evals.total``: every ``evaluate`` call (a sweep's samples and a
  mode's single evaluation included).
- ``search.evals.reassembly``: ``SystemBuilder.system`` calls made outside
  ``evaluate`` (the re-assembly for the classical tension).
- ``search.evals.repeat``: ``system`` calls at an energy already assembled in
  the same operation, evaluations and re-assemblies alike.
- ``special.bessel.elems``: array elements passed to ``bessel_y0``/``y1``.

Samples, per call: ``assembly.rank_H``, ``tension.rank_eps`` and
``weights.build_filter_matrix.bytes``, the peak of the memory allocated
during the call as ``tracemalloc`` sees it (numpy reports its array buffers
to it), the returned matrix included.

``cli.mode_rows`` stands in for ``zip`` in ``neuspec.cli``, whose one use is
the loop in ``cmd_mode`` that formats the CSV rows: its span runs from that
loop's first row to its end.
"""

import functools
import tracemalloc

import numpy as np

import neuspec.assembly
import neuspec.cli
import neuspec.geometry
import neuspec.search


class NeuspecTrace:
    """Installs the wrappers on a :class:`spans.Tracer` and keeps the
    per-operation state needed to attribute evaluations to phases."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.solve = False
        self.refine_done = False
        self.energies = set()

    def begin_op(self, op_id, command):
        self.tracer.op = op_id
        self.solve = command == "solve"
        self.refine_done = False
        self.energies = set()

    def _count(self, name, n=1):
        self.tracer.counts[name] += n

    def _on_evaluate(self, args, kwargs):
        self._count("search.evals.total")
        if not self.solve:
            return
        if "search.parabolic_min" in self.tracer.open_names():
            self._count("search.evals.refine")
        elif self.refine_done:
            self._count("search.evals.slope")
        else:
            self._count("search.evals.presolve")

    def _on_system(self, args, kwargs):
        E = float(args[1] if len(args) > 1 else kwargs["E"])
        # the innermost open span is this call's own; look at its parent
        if "search.evaluate" not in self.tracer.open_names()[:-1]:
            self._count("search.evals.reassembly")
        if E in self.energies:
            self._count("search.evals.repeat")
        self.energies.add(E)

    def _after_parabolic(self, result, args, kwargs):
        self.refine_done = True

    def _on_bessel(self, args, kwargs):
        self._count("special.bessel.elems", np.size(args[0]))

    def _peak_bytes(self, fn, name):
        """``fn`` with the peak memory allocated during each call appended
        to the sample ``name``."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tracer.samples[name].append(
                    tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _after_sqrt_factor(self, result, args, kwargs):
        self.tracer.samples["assembly.rank_H"].append(result[1])

    def _after_min_tension(self, ev, args, kwargs):
        self.tracer.samples["tension.rank_eps"].append(ev.rank_eps)

    def install(self):
        t = self.tracer
        asm, geo, srch = neuspec.assembly, neuspec.geometry, neuspec.search
        t.patch(neuspec.cli, "main", "cli.main")
        t.patch(neuspec.cli, "parse_curve", "cli.parse_curve")
        t.replace(neuspec.cli, "zip", t.wrap_iter(zip, "cli.mode_rows"))
        t.patch(srch.TensionSolver, "__init__", "search.TensionSolver")
        t.patch(srch.TensionSolver, "evaluate", "search.evaluate",
                before=self._on_evaluate)
        t.patch(srch, "parabolic_min", "search.parabolic_min",
                after=self._after_parabolic)
        t.patch(srch, "weyl_index", "search.weyl_index")
        t.patch(srch, "min_tension", "tension.min_tension",
                after=self._after_min_tension)
        t.patch(srch, "classical_tension", "tension.classical_tension")
        t.patch(srch, "arclength_spectral", "geometry.arclength_spectral")
        t.patch(asm.SystemBuilder, "system", "assembly.system",
                before=self._on_system)
        t.patch(asm, "interior_norm_matrix", "assembly.interior_norm_matrix")
        t.patch(asm, "sqrt_factor", "assembly.sqrt_factor",
                after=self._after_sqrt_factor)
        # looked up by cmd_mode's function-level import at call time
        t.patch(asm, "point_source_sum", "assembly.point_source_sum")
        t.replace(asm, "build_filter_matrix", t.wrap(
            self._peak_bytes(asm.build_filter_matrix,
                             "weights.build_filter_matrix.bytes"),
            "weights.build_filter_matrix"))
        t.patch(asm, "bessel_y0", "special.bessel_y0", before=self._on_bessel)
        t.patch(asm, "bessel_y1", "special.bessel_y1", before=self._on_bessel)
        t.patch(asm, "build_grid", "geometry.build_grid")
        t.patch(asm, "charge_points", "geometry.charge_points")
        t.patch(geo, "arclength_spectral", "geometry.arclength_spectral")
        t.patch(geo, "interior_grid", "geometry.interior_grid")


SPAN_NAMES = (
    "cli.main", "cli.parse_curve", "cli.mode_rows",
    "search.TensionSolver", "search.evaluate", "search.parabolic_min",
    "search.weyl_index",
    "tension.min_tension", "tension.classical_tension",
    "assembly.system", "assembly.interior_norm_matrix",
    "assembly.sqrt_factor", "assembly.point_source_sum",
    "weights.build_filter_matrix",
    "special.bessel_y0", "special.bessel_y1",
    "geometry.build_grid", "geometry.charge_points",
    "geometry.arclength_spectral", "geometry.interior_grid",
)

COUNT_NAMES = (
    "special.bessel.elems",
    "search.evals.presolve", "search.evals.refine", "search.evals.slope",
    "search.evals.total", "search.evals.reassembly", "search.evals.repeat",
)

SAMPLE_NAMES = ("assembly.rank_H", "tension.rank_eps",
                "weights.build_filter_matrix.bytes")

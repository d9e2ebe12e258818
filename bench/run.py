"""neuspec benchmark: solve, sweep and mode latency, set-up time, memory and
certificate quality, with per-module spans in a separate traced mode.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout; it imports ``neuspec`` from that
checkout's ``src/`` and exits with code 2, printing no result, when there is
none.  Workloads are defined in ``workloads.py``; README.md says why each
was chosen and which layer metric should move which end-to-end metric.

A run sets up (constructs ``TensionSolver``) a few times, warms up, then
runs user operations one after another in this process (a closed loop with
one client) through ``neuspec.cli.main``, checking every output and taking
more set-up samples between operations.  It keeps starting operations until
the next one would end after ``--seconds``, but runs at least three.  With
``--trace 1`` each operation runs twice on the same inputs, untraced and
traced, and the per-layer figures come from the traced copies.

The last line of standard output is the result object; the line before it
records the environment.  Both also go to ``bench/out/``, with the spans of
a traced run.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 3
SETUP_REPS = 5
# share of each operation's wall time spent on set-up samples after it
SETUP_SHARE = 0.03
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root):
    """HEAD's commit, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_info(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_info(numpy),
        "scipy_blas": blas_info(scipy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def call(op):
    """Run one operation through the CLI entry point: (exit code or the
    exception's traceback, wall seconds)."""
    import neuspec.cli

    t0 = time.perf_counter()
    try:
        rc = neuspec.cli.main(op.argv)
    except Exception:
        rc = traceback.format_exc()
    return rc, time.perf_counter() - t0


def judge(wl, op, rc):
    from workloads import Outcome

    if isinstance(rc, str):
        return Outcome(False, "raised: " + rc.strip().splitlines()[-1])
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        return wl.check(op)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")


def make_solver(wl, curve, times):
    """Construct the workload's TensionSolver once, appending the time."""
    from neuspec.search import TensionSolver

    t0 = time.perf_counter()
    solver = TensionSolver(curve, wl.M, wl.N, wl.tau)
    times.append(time.perf_counter() - t0)
    return solver


def measure_setup(wl, curve, times, reps, budget_s):
    """Set up at least ``reps`` times and for at least ``budget_s``; returns
    the last solver."""
    t_end = time.perf_counter() + budget_s
    solver = None
    for _ in range(reps):
        solver = None
        solver = make_solver(wl, curve, times)
    while time.perf_counter() < t_end:
        solver = None
        solver = make_solver(wl, curve, times)
    return solver


def warm_up(wl, solver):
    """One untimed evaluation at the workload's reference energy.  ``sweep``
    and ``mode`` print no bounds, so for them this also returns the
    library's certificate digits at that energy (evaluation, classical
    tension, ``inclusion_bounds``); for ``solve`` it returns None."""
    from neuspec.search import inclusion_bounds
    from workloads import certificate_digits

    E = wl.warm_sqrtE ** 2
    ev = solver.evaluate(E)
    if wl.command == "solve":
        return None
    t_clas = solver.classical(E, ev.alpha)
    return certificate_digits(E, *inclusion_bounds(E, ev.t_min, t_clas))


def more(t_start, seconds, walls, minimum):
    """Whether to start another operation: until ``minimum`` have run, and
    then while one of median length would still end within ``seconds``."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - t_start + statistics.median(walls) <= seconds


def run_plain(wl, rng, seconds, out, cert, curve, setup_times):
    """Timed operations with tracing off, each followed by set-up samples
    for a small share of its time, so that set-up is sampled across the
    whole run as operations are; returns (records, metrics).  ``cert`` is
    the certificate digits of a workload whose operations print none."""
    records, walls = [], []
    t_start = time.perf_counter()
    while more(t_start, seconds, walls, MIN_OPS):
        op = wl.make_op(rng, out)
        rc, wall = call(op)
        walls.append(wall)
        records.append((op, wall, judge(wl, op, rc)))
        measure_setup(wl, curve, setup_times, 1, SETUP_SHARE * wall)
    if wl.command == "solve":
        digits = [(o.certified_digits, o.gain_digits) for _, _, o in records
                  if o.certified_digits == o.certified_digits]
        if digits:
            # digits are logarithms, so their mean is the log of the
            # geometric mean; with three to five operations a run, it is
            # steadier than their median
            cert = tuple(statistics.fmean(d) for d in zip(*digits))
    metrics = {"op_s": (statistics.median(walls), "s")}
    if cert is not None:
        metrics["certified_digits"] = (cert[0], "digits")
        metrics["gain_digits"] = (cert[1], "digits")
    return records, metrics


def run_traced(wl, rng, seconds, out):
    """Pairs of untraced and traced operations on the same inputs; returns
    (records, metrics, tracer)."""
    from instrument import COUNT_NAMES, SAMPLE_NAMES, SPAN_NAMES, NeuspecTrace
    from spans import Tracer, nesting_errors, summarize

    tracer = Tracer()
    trace = NeuspecTrace(tracer)
    records, pair_walls, overheads = [], [], []
    t_start = time.perf_counter()
    while more(t_start, seconds, pair_walls, 1):
        op = wl.make_op(rng, out)
        walls = {}
        # alternate which copy runs first, so order effects cancel
        order = (False, True) if len(overheads) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                trace.install()
                try:
                    trace.begin_op(len(overheads), wl.command)
                    rc, walls[traced] = call(op)
                finally:
                    tracer.restore()
            else:
                rc, walls[traced] = call(op)
            records.append((op, walls[traced], judge(wl, op, rc)))
        pair_walls.append(walls[False] + walls[True])
        overheads.append(walls[True] - walls[False])
    errors = nesting_errors(tracer.spans)
    if errors:
        raise RuntimeError("unsound span record: " + "; ".join(errors[:5]))

    n = len(overheads)
    rows = summarize(tracer.spans)
    metrics = {}
    for name in SPAN_NAMES:
        row = rows.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"] / n, "count")
        metrics[f"{name}.total_s"] = (row["total_s"] / n, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s")
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name] / n, "count")
    for name in SAMPLE_NAMES:
        metrics[name] = (statistics.median(tracer.samples[name]), "bytes" if
                         name.endswith(".bytes") else "count")
    total = tracer.counts["search.evals.total"]
    metrics["search.refine_share"] = (
        tracer.counts["search.evals.refine"] / total if total else 0.0,
        "ratio")
    # the share of the root's time that its direct child spans account for
    root = rows["cli.main"]
    metrics["trace.coverage"] = (1.0 - root["self_s"] / root["total_s"],
                                 "ratio")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return records, metrics, tracer


def run(args):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out = str(OUT / f"op-{tag}-{os.getpid()}.out")
    rng = random.Random(args.seed)
    env = environment()

    from neuspec.cli import parse_curve

    curve = parse_curve(wl.curve)
    setup_times = []
    solver = measure_setup(wl, curve, setup_times, SETUP_REPS, 0.0)
    cert = warm_up(wl, solver)
    # released before the timed operations, so peak_rss_mb is theirs
    solver = None
    tracer = None
    if args.trace:
        records, metrics, tracer = run_traced(wl, rng, args.seconds, out)
    else:
        records, metrics = run_plain(wl, rng, args.seconds, out, cert,
                                     curve, setup_times)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    if os.path.exists(out):
        os.remove(out)

    failed = [(op, o) for op, _, o in records if not o.ok]
    for op, o in failed:
        print(f"FAILED {' '.join(op.argv)}: {o.reason}", file=sys.stderr)
    walls = [w for _, w, _ in records]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "failed_frac": len(failed) / len(records),
        "op_samples": len(walls), "op_s_max": max(walls),
        "setup_samples": len(setup_times),
    }
    detail = dict(info, result=result, ops=[
        {"argv": op.argv, "wall_s": w, "ok": o.ok, "reason": o.reason,
         "certified_digits": o.certified_digits, "gain_digits": o.gain_digits}
        for op, w, o in records])
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def prepare():
    """Pin the BLAS thread count and import neuspec from this checkout;
    returns an error message, or None when ready."""
    src = ROOT / "src"
    if not (src / "neuspec" / "__init__.py").is_file():
        return f"no neuspec sources under {src}"
    # BLAS reads its thread count when numpy loads: pin it to the cores this
    # process may use, before anything imports numpy
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    import neuspec

    if Path(neuspec.__file__).resolve().parent != (src / "neuspec").resolve():
        return f"imported neuspec from {neuspec.__file__}, not from {src}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = prepare()
    if error is None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            error = (f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if error is not None:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

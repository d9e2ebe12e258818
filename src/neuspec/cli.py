"""Command-line interface.

Subcommands: ``sweep`` (tension samples over a frequency window, CSV),
``solve`` (localize one eigenvalue in a bracket with certified bounds, JSON),
``mode`` (rasterize the located eigenfunction, CSV), ``disc-check`` (run the
exact unit-disc identity suite, CSV report).

Exit codes: 0 success, 1 validation failure (disc-check), 2 usage error,
3 numerical failure.  ``main`` maps every error to one of the last two by
its type: a ``DomainError`` or an ``OSError`` on a path exits 2, a
``NumericalError`` (the computation degenerated) exits 3; both print one
line ``<command>: <message>``.  All numeric output carries 17 significant
digits so a reparse reproduces the binary values exactly.

Heavy imports are deferred until after ``--threads`` has been applied to the
BLAS environment variables, so thread pinning works when the CLI owns the
process.
"""

import argparse
import os
import sys
import time

from .errors import DomainError, NeuspecError, NumericalError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x):
    """17-significant-digit decimal, round-trip safe for binary64."""
    return format(float(x), ".17g")


def _lines(path, what):
    """The stripped lines of the file at ``path``, blank lines and ``#``
    comments left out; a file that cannot be read is a usage error."""
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {what}: {exc}") from exc
    return [line for line in lines if line and not line.startswith("#")]


def _key_values(items, malformed):
    """The ``key=value`` ``items`` as a dict of stripped strings; an item
    without ``=`` (message: ``malformed`` and the item) or a repeated key is
    a usage error."""
    out = {}
    for item in items:
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq:
            raise DomainError(f"{malformed} {item!r}")
        if key in out:
            raise DomainError(f"repeated key {key!r} in {item!r}")
        out[key] = val
    return out


def parse_curve(spec):
    """Parse a curve specification string.

    ``radial:a0=<f>,eps=<f>,k=<int>,b=<f>`` or ``trig:<path>`` where the file
    holds whitespace-separated lines ``j c_j d_j``, one per harmonic j.
    """
    from .geometry import RadialCurve

    if spec.startswith("radial:"):
        fields = _key_values(spec[len("radial:"):].split(","),
                             "malformed curve field")
        try:
            a0 = float(fields.pop("a0"))
            eps = float(fields.pop("eps"))
            k = int(fields.pop("k"))
            b = float(fields.pop("b"))
        except (KeyError, ValueError) as exc:
            raise DomainError(f"bad radial curve spec: {exc}") from exc
        if fields:
            raise DomainError(f"unknown curve fields {sorted(fields)}")
        return RadialCurve.radial(a0, eps, k, b)
    if spec.startswith("trig:"):
        coef = {}
        for line in _lines(spec[len("trig:"):], "trig file"):
            parts = line.split()
            if len(parts) != 3:
                raise DomainError(f"trig file line needs 'j c_j d_j': {line!r}")
            try:
                j, cd = int(parts[0]), (float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise DomainError(f"bad trig coefficient line {line!r}: {exc}")
            if j < 0:
                raise DomainError(f"negative harmonic index in {line!r}")
            if j in coef:
                raise DomainError(f"repeated harmonic index in {line!r}")
            coef[j] = cd
        if not coef:
            raise DomainError("trig file holds no coefficients")
        c, d = zip(*(coef.get(j, (0.0, 0.0)) for j in range(max(coef) + 1)))
        return RadialCurve.trig(list(c), list(d[1:]))
    raise DomainError(f"curve spec must start with 'radial:' or 'trig:', got {spec!r}")


def _parse(ap, argv):
    """Parse ``argv``; with ``--config``, parse again with the file's
    ``key=value`` lines as flags of the command placed before the given
    ones, so the parser converts them and a given flag, parsed later, wins.
    A key that names no option of the command is a usage error.  Options
    set by neither keep the parser's default, None except for ``--coarse``,
    and an option left None takes the library's default."""
    args = ap.parse_args(argv)
    if not args.config:
        return args
    cfg = _key_values(_lines(args.config, "config file"),
                      "config line needs key=value:")
    unknown = sorted(cfg.keys() - (vars(args).keys() - {"command", "config"}))
    if unknown:
        raise DomainError(f"config keys name no option of {args.command}: "
                          f"{', '.join(unknown)}")
    pre = [f"--{key}={val}" for key, val in cfg.items()]
    return ap.parse_args([argv[0], *pre, *argv[1:]])


def _require(args, *names):
    """Usage error for the first of ``names`` that no flag or config line
    set."""
    for name in names:
        if getattr(args, name) is None:
            raise DomainError(f"missing required option --{name}")


def _require_energy(args, *names):
    """Usage error for the first of ``names`` <= 0 or whose square is 0 or
    inf; returns the squares, the energies, in the order of ``names``."""
    energies = []
    for name in names:
        f = getattr(args, name)
        try:
            E = f ** 2
        except OverflowError:
            E = float("inf")
        if not (f > 0 and 0 < E < float("inf")):
            bound = "finite" if f > 0 and E > 0 else "> 0"
            raise DomainError(f"--{name}: need {name} > 0 and E = {name}^2 "
                              f"{bound}, got {name} = {f!r}")
        energies.append(E)
    return energies


def _given(args, **options):
    """Keyword arguments for the library from the options that are set,
    ``options`` naming the option behind each parameter; the library's own
    default applies to the others."""
    return {param: getattr(args, opt) for param, opt in options.items()
            if getattr(args, opt) is not None}


def _add_system(p):
    """The discretization flags, read by :func:`_solver`."""
    p.add_argument("--curve")
    p.add_argument("--M", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--tau", type=float)


def _solver(args):
    """The ``TensionSolver`` of the discretization flags: the one place the
    CLI builds one."""
    _require(args, "curve", "M", "N", "tau")
    curve = parse_curve(args.curve)
    from .search import TensionSolver

    return TensionSolver(curve, args.M, args.N, args.tau)


def _add_common(p):
    p.add_argument("--config", help="key=value file pre-populating flags (flags win)")
    p.add_argument("--threads", type=int, help="pin BLAS thread count (>= 1)")
    p.add_argument("--out", help="output path")


def build_parser():
    ap = argparse.ArgumentParser(prog="neuspec",
                                 description="Neumann eigenvalues of smooth "
                                             "star-shaped planar domains with "
                                             "certified inclusion bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="tension samples over a frequency window")
    p.add_argument("--fmin", type=float)
    p.add_argument("--fmax", type=float)
    p.add_argument("--steps", type=int)
    _add_system(p)
    _add_common(p)

    p = sub.add_parser("solve", help="localize one eigenvalue in a bracket")
    p.add_argument("--f0", type=float)
    p.add_argument("--f1", type=float)
    p.add_argument("--cest", type=float)
    p.add_argument("--coarse", type=int, default=21,
                   help="presolve scan samples across the bracket")
    _add_system(p)
    _add_common(p)

    p = sub.add_parser("mode", help="rasterize an eigenfunction on an interior grid")
    p.add_argument("--freq", type=float)
    p.add_argument("--nx", type=int)
    _add_system(p)
    _add_common(p)

    p = sub.add_parser("disc-check", help="run the unit-disc identity suite")
    p.add_argument("--nmax", type=int)
    p.add_argument("--lmax", type=int)
    _add_common(p)
    return ap


def cmd_sweep(args):
    _require(args, "fmin", "fmax", "steps", "out")
    _require_energy(args, "fmin", "fmax")
    solver = _solver(args)
    from .search import sweep

    lines = ["sqrtE,tension_min,rank_eps,c_min,rank_H"]
    for f, ev in sweep(solver, args.fmin, args.fmax, args.steps):
        if isinstance(ev, str):
            print(f"sweep: evaluation failed at sqrtE={_fmt(f)}: {ev}",
                  file=sys.stderr)
        else:
            lines.append(f"{_fmt(f)},{_fmt(ev.t_min)},{ev.rank_eps},"
                         f"{_fmt(ev.c_min)},{ev.rank_H}")
    if len(lines) == 1:  # the header alone
        raise NumericalError("every sample failed")
    with open(args.out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_solve(args):
    _require(args, "f0", "f1", "out")
    _require_energy(args, "f0", "f1")
    if not (args.coarse == 0 or args.coarse >= 3):
        raise DomainError("--coarse must be 0 (no presolve) or at least 3")
    from .search import localize_minimum
    from .special import kernel_threads

    t_start = time.perf_counter()
    res = localize_minimum(_solver(args), (args.f0, args.f1),
                           coarse=args.coarse, **_given(args, c_est="cest"))
    # every message in the log is a failed presolve sample
    for f, msg in sorted(p for p in res.evaluations if isinstance(p[1], str)):
        print(f"solve: presolve failed at sqrtE={_fmt(f)}: {msg}", file=sys.stderr)
    wall = time.perf_counter() - t_start
    status = EXIT_OK
    if not res.certified:
        status = EXIT_NUMERICAL
        print(f"solve: not certified: {'; '.join(res.reasons)}; best iterate "
              f"at sqrtE={_fmt(res.sqrtE)}", file=sys.stderr)
    doc = [
        ("sqrtE", _fmt(res.sqrtE)),
        ("E", _fmt(res.E)),
        ("t_min", _fmt(res.t_min)),
        ("t_classical", _fmt(res.best.t_classical)),
        ("eps_new", _fmt(res.eps_new)),
        ("eps_clas", _fmt(res.eps_clas)),
        ("eps_new_rel", _fmt(res.eps_new / res.E)),
        ("eps_clas_rel", _fmt(res.eps_clas / res.E)),
        ("n_evals", str(res.n_evals)),
        ("n_presolve", str(res.n_presolve)),
        ("n_evals_total", str(len(res.evaluations))),
        ("slope", _fmt(res.slope)),
        # inf (no second direction with interior mass) has no JSON number
        ("t_second", _fmt(res.best.t_second)
         if res.best.t_second < float("inf") else "null"),
        ("weyl_index", _fmt(res.weyl_index)),
        ("M", str(args.M)),
        ("N", str(args.N)),
        ("tau", _fmt(args.tau)),
        ("threads", str(kernel_threads())),
        ("wall_seconds", _fmt(wall)),
        ("converged", "true" if res.converged else "false"),
        ("certified", "true" if res.certified else "false"),
        ("reasons", "[" + ", ".join(f'"{r}"' for r in res.reasons) + "]"),
    ]
    body = ",\n".join(f'  "{k}": {v}' for k, v in doc)
    with open(args.out, "w") as fh:
        fh.write("{\n" + body + "\n}\n")
    return status


_MODE_CSV_ROWS = 4096


def cmd_mode(args):
    _require(args, "freq", "nx", "out")
    # the library would take |freq| without complaint
    E, = _require_energy(args, "freq")
    solver = _solver(args)
    import numpy as np

    from .assembly import raster_sum
    from .geometry import interior_grid

    # built first, so a bad --nx is reported before any evaluation runs
    grid = interior_grid(solver.curve, args.nx)
    vals = raster_sum(solver.builder, solver.evaluate(E).alpha, E, grid)
    # every index and coordinate is formatted once, not once per row;
    # ``:.17g`` on a Python float gives the bytes of :func:`_fmt`
    s_ix = [str(i) for i in range(len(grid.xs))]
    s_iy = [str(i) for i in range(len(grid.ys))]
    s_x = [f"{x:.17g}" for x in grid.xs.tolist()]
    s_y = [f"{y:.17g}" for y in grid.ys.tolist()]

    def line(ix, iy, u):
        return f"{s_ix[ix]},{s_iy[iy]},{s_x[ix]},{s_y[iy]},{u:.17g}\n"

    # a few thousand rows at a time: .tolist() gives Python numbers, which
    # format faster than numpy scalars, without the whole raster as objects
    cuts = range(_MODE_CSV_ROWS, len(vals), _MODE_CSV_ROWS)
    chunks = (np.split(a, cuts) for a in (*grid.indices.T, vals))
    with open(args.out, "w", newline="") as fh:
        fh.write("ix,iy,x,y,u\n")
        for ix, iy, u in zip(*chunks):
            fh.write("".join(map(line, ix.tolist(), iy.tolist(), u.tolist())))
    return EXIT_OK


def cmd_disc_check(args):
    from .disc import identity_checks

    rows = identity_checks(**_given(args, nmax="nmax", lmax="lmax"))
    failures = sum(not row[-1] for row in rows)
    if args.out:
        lines = ["check,n,l,parity,value,expected,rel_err,pass"]
        for kind, n, l, parity, val, exp, err, ok in rows:
            lines.append(f"{kind},{n},{l},{parity},{_fmt(val)},{_fmt(exp)},"
                         f"{_fmt(err)},{int(ok)}")
        with open(args.out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    n_checks = len(rows)
    if failures:
        print(f"disc-check: FAIL ({failures} of {n_checks} checks)")
        return EXIT_VALIDATION
    print(f"disc-check: PASS ({n_checks} checks)")
    return EXIT_OK


_COMMANDS = {
    "sweep": cmd_sweep,
    "solve": cmd_solve,
    "mode": cmd_mode,
    "disc-check": cmd_disc_check,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(build_parser(), argv)
        if args.threads is not None:
            if args.threads < 1:
                raise DomainError("--threads must be >= 1")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except (OSError, NeuspecError) as exc:
        print(f"{argv[0]}: {exc}", file=sys.stderr)
        bad_input = isinstance(exc, (OSError, DomainError))
        return EXIT_USAGE if bad_input else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

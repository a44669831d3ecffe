"""Command-line interface: solve, solve-ab, oracle, verify, homology.

Exit codes: 0 success; 2 usage error; 3 resource budget exceeded;
4 internal invariant violation; 5 conjecture-level discrepancy (the
machinery worked, but a cross-check between the conjectured series and
the constructed algebra failed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from .homology import compute_homology
from .jordan import (
    DEFAULT_BUDGET,
    GradedJordanAlgebra,
    ResourceBudgetExceeded,
    build_free_jordan,
    cache_key,
)
from .solver import SolverStepError, residual_series, solve_dims, solve_dims_pair, vanishing_order
from .tag import build_tag, inner_rank_diagnostic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_DISCREPANCY = 5

CACHE_ENV = "FREEJORDAN_CACHE_DIR"

# Least value of each numeric argument, checked before any work starts so
# that a ValueError raised later is an internal fault, not a usage error.
_MINIMUM = {"order": 1, "max_degree": 1, "r_max": 0, "d_max": 1}


def _cache_dir(args) -> Path | None:
    if args.cache_dir:
        return Path(args.cache_dir)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_or_build(d1: int, d2: int, n: int, budget, cache: Path | None) -> GradedJordanAlgebra:
    path = cache / f"oracle-{cache_key(d1, d2, n)}.json" if cache else None
    if path:
        try:
            alg = GradedJordanAlgebra.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            pass  # absent, unreadable or altered cache: a miss, rebuilt and rewritten below
        else:
            if (alg.d1, alg.d2, alg.max_degree) == (d1, d2, n):
                return alg  # a file of another shape is a miss too
    alg = build_free_jordan(d1, d2, n, budget=budget)
    if path:
        try:
            _atomic_write(path, alg.to_json())
        except OSError as exc:
            print(f"cache not written: {exc}", file=sys.stderr)  # the answer stands
    return alg


def _emit(args, payload: dict, pretty_lines: list[str], csv_rows: list[list] | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows or []:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    else:
        for line in pretty_lines:
            print(line)


def _config_echo(args, **extra) -> dict:
    cfg = {"command": args.command, "d1": args.d1, "d2": args.d2, "format_version": 1}
    cfg.update(extra)
    return cfg


def cmd_solve(args) -> int:
    rep = solve_dims(args.d1, args.d2, args.order)
    payload = {
        "config": _config_echo(args, order=args.order),
        "a": [c.json_form() for c in rep.a],
        "residual_ok_through": rep.residual_order,
    }
    lines = [f"graded dimensions for ({args.d1}|{args.d2}), degrees 1..{args.order}:"]
    lines += [f"  n={n}: {c}" for n, c in enumerate(rep.a, start=1)]
    lines.append(f"residual vanishes through z^{rep.residual_order - 1}")
    rows = [["n", "even", "odd"]] + [[n, c.even, c.odd] for n, c in enumerate(rep.a, 1)]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def cmd_solve_ab(args) -> int:
    rep = solve_dims_pair(args.d1, args.d2, args.order)
    payload = {
        "config": _config_echo(args, order=args.order),
        "a": [c.json_form() for c in rep.a],
        "b": [c.json_form() for c in rep.b],
        "residual_ok_through": rep.residual_order,
    }
    lines = [f"paired series for ({args.d1}|{args.d2}), degrees 1..{args.order}:"]
    lines += [
        f"  n={n}: a={ca} b={cb}"
        for n, (ca, cb) in enumerate(zip(rep.a, rep.b), start=1)
    ]
    lines.append(f"residuals vanish through z^{rep.residual_order - 1}")
    rows = [["n", "a_even", "a_odd", "b_even", "b_odd"]] + [
        [n, ca.even, ca.odd, cb.even, cb.odd]
        for n, (ca, cb) in enumerate(zip(rep.a, rep.b), 1)
    ]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def cmd_oracle(args) -> int:
    alg = _load_or_build(args.d1, args.d2, args.max_degree, args.budget, _cache_dir(args))
    tag = build_tag(alg, args.max_degree)
    tag.check_jacobi()
    res = residual_series(alg.graded_dims(), args.d1, args.d2)
    bs_dims = {n: tag.bs[n].dim for n in sorted(tag.bs)}
    inn = {n: inner_rank_diagnostic(tag, n) for n in range(2, args.max_degree)}
    payload = {
        "config": _config_echo(args, max_degree=args.max_degree),
        "dims": [alg.dims[n].json_form() for n in range(1, args.max_degree + 1)],
        "bs_dims": {str(n): d.json_form() for n, d in bs_dims.items()},
        "inner_rank_lower_bounds": {str(n): d.json_form() for n, d in inn.items()},
        "residual_ok_through": vanishing_order(res),
    }
    lines = [f"free Jordan superalgebra on ({args.d1}|{args.d2}) through degree {args.max_degree}:"]
    lines += [f"  dim J_{n} = {alg.dims[n]}" for n in range(1, args.max_degree + 1)]
    lines += [f"  dim Bs_{n} = {d}" for n, d in bs_dims.items()]
    lines += [f"  rank Inn_{n} >= {d} (horizon {args.max_degree})" for n, d in inn.items()]
    lines.append(f"residue vanishes through z^{vanishing_order(res) - 1}")
    rows = [["n", "even", "odd"]] + [
        [n, alg.dims[n].even, alg.dims[n].odd] for n in range(1, args.max_degree + 1)
    ]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    alg = _load_or_build(args.d1, args.d2, args.max_degree, args.budget, _cache_dir(args))
    rep = solve_dims(args.d1, args.d2, args.max_degree)
    res = residual_series(alg.graded_dims(), args.d1, args.d2)
    agree = []
    mismatch = []
    for n in range(1, args.max_degree + 1):
        if rep.a[n - 1] == alg.dims[n]:
            agree.append(n)
        else:
            mismatch.append((n, rep.a[n - 1], alg.dims[n]))
    payload = {
        "config": _config_echo(args, max_degree=args.max_degree),
        "a": [c.json_form() for c in rep.a],
        "dims": [alg.dims[n].json_form() for n in range(1, args.max_degree + 1)],
        "agree_degrees": agree,
        "mismatches": [
            {"degree": n, "solver": s.json_form(), "oracle": o.json_form()} for n, s, o in mismatch
        ],
        "residual_ok_through": vanishing_order(res),
    }
    lines = [f"solver vs constructed algebra for ({args.d1}|{args.d2}):"]
    for n in range(1, args.max_degree + 1):
        s, o = rep.a[n - 1], alg.dims[n]
        if s == o:
            lines.append(f"  n={n}: {s} agree")
        else:
            lines.append(f"  n={n}: MISMATCH solver={s} constructed={o}")
    lines.append(f"residue with constructed dims vanishes through z^{vanishing_order(res) - 1}")
    rows = [["n", "solver_even", "solver_odd", "oracle_even", "oracle_odd"]] + [
        [n, rep.a[n - 1].even, rep.a[n - 1].odd, alg.dims[n].even, alg.dims[n].odd]
        for n in range(1, args.max_degree + 1)
    ]
    _emit(args, payload, lines, rows)
    if mismatch:
        print(
            f"conjecture-level discrepancy at degrees {[n for n, _, _ in mismatch]}",
            file=sys.stderr,
        )
        return EXIT_DISCREPANCY
    return EXIT_OK


def cmd_homology(args) -> int:
    alg = _load_or_build(args.d1, args.d2, args.d_max, args.budget, _cache_dir(args))
    tag = build_tag(alg, args.d_max)
    report = compute_homology(tag, args.r_max, args.d_max)
    payload = {
        "config": _config_echo(args, r_max=args.r_max, d_max=args.d_max),
        "homology": report.to_json_dict(),
    }
    lines = [
        f"homology of the TAG algebra for ({args.d1}|{args.d2}), "
        f"r <= {args.r_max}, z-degree <= {args.d_max}:"
    ]
    for (r, d), ws in sorted(report.weights.items()):
        mult = report.multiplicities[(r, d)]
        lines.append(
            f"  H_{r} at z^{d}: "
            + ", ".join(f"weight {w}: {g}" for w, g in sorted(ws.items()))
            + " | highest-weight multiplicities: "
            + ", ".join(f"L({w}): {g}" for w, g in sorted(mult.items()))
        )
    if report.incomplete:
        lines.append(f"incomplete blocks (not reported): {sorted(report.incomplete)}")
    lines.append(
        f"Euler characteristic verified through z^{report.euler_checked_through - 1}"
    )
    rows = [["r", "d", "weight", "even", "odd"]]
    for (r, d), ws in sorted(report.weights.items()):
        for w, g in sorted(ws.items()):
            rows.append([r, d, w, g.even, g.odd])
    _emit(args, payload, lines, rows)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one.

    Reuse is safe: ``parse_args`` returns a fresh ``Namespace`` and leaves
    the parser as it was, and each ``cmd_*`` looks up the functions it calls
    in the module globals when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="freejordan",
        description="Exact graded dimensions of free Jordan superalgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, order=False, max_degree=False, homology=False):
        p.add_argument("--d1", type=int, required=True, help="number of even generators")
        p.add_argument("--d2", type=int, required=True, help="number of odd generators")
        if order:
            p.add_argument("--order", type=int, required=True, help="series truncation order")
        if max_degree:
            p.add_argument("--max-degree", type=int, required=True, help="construction depth")
        if homology:
            p.add_argument("--rmax", dest="r_max", type=int, required=True,
                           help="top homological degree")
            p.add_argument("--dmax", dest="d_max", type=int, required=True, help="top z-degree")
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
        if max_degree or homology:  # the subcommands that construct the algebra
            p.add_argument("--cache-dir", default=None, help=f"cache directory (or ${CACHE_ENV})")
            p.add_argument(
                "--budget",
                type=int,
                default=DEFAULT_BUDGET,
                help="max relation-matrix entries per construction degree, counted as "
                "(relation rows so far + identity instances about to be expanded) x dim W_n",
            )

    p = sub.add_parser("solve", help="solve the residue equation for the dimension series")
    common(p, order=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-ab", help="solve the two-equation system for both series")
    common(p, order=True)
    p.set_defaults(func=cmd_solve_ab)

    p = sub.add_parser("oracle", help="construct the algebra and report its dimensions")
    common(p, max_degree=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="cross-check solver output against the construction")
    common(p, max_degree=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("homology", help="graded Chevalley-Eilenberg homology of the TAG algebra")
    common(p, homology=True)
    p.set_defaults(func=cmd_homology)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.d1 < 0 or args.d2 < 0 or args.d1 + args.d2 < 1:
            parser.error("need d1, d2 >= 0 with d1 + d2 >= 1")
        if getattr(args, "budget", 1) < 1:
            parser.error("--budget must be >= 1")
        for name, least in _MINIMUM.items():
            if getattr(args, name, least) < least:
                print(f"usage error: {name} must be >= {least}", file=sys.stderr)
                return EXIT_USAGE
        return args.func(args)
    except ResourceBudgetExceeded as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SolverStepError as exc:
        print(f"solver step failed (conjectured solvability violated): {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except (AssertionError, ValueError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

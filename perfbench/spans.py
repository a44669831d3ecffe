"""Spans around freejordan's layer boundaries, recorded from outside.

``install`` wraps each public function of a layer at the name its caller
looks up: ``solver`` calls ``phi_series`` through its own import, the CLI
calls ``build_free_jordan`` through ``cli``'s namespace, and every rank
reaches ``linalg.rref`` through the module global, so each of those names
is replaced.  A span records its name, start, end, parent and an optional
note (rows of a matrix, brackets stored, ...).  Spans stay in memory until
``layer_metrics`` turns them into the per-layer metrics; ``restore`` puts
every original back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from statistics import median

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("rings.tzseries_mul_calls", "count"),
    ("rings.tzseries_mul_s", "s"),
    ("lambda_ops.phi_series_s", "s"),
    ("lambda_ops.lambda_adjoint_series_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.steps", "count"),
    ("jordan.build_s", "s"),
    ("jordan.rowgen_s", "s"),
    ("jordan.relation_rows", "count"),
    ("jordan.row_yield", "ratio"),
    ("linalg.rref_calls", "count"),
    ("linalg.rref_s", "s"),
    ("linalg.rref_cells", "count"),
    ("linalg.rref_repeat_ratio", "ratio"),
    ("tag.bs_s", "s"),
    ("tag.bracket_table_s", "s"),
    ("tag.brackets_nnz", "count"),
    ("tag.anticomm_s", "s"),
    ("tag.jacobi_s", "s"),
    ("tag.jacobi_triples", "count"),
    ("tag.inner_rank_s", "s"),
    ("homology.chain_complex_s", "s"),
    ("homology.chain_monomials", "count"),
    ("homology.boundary_nnz", "count"),
    ("homology.rank_s", "s"),
    ("homology.euler_s", "s"),
    ("cli.cache_read_s", "s"),
    ("cli.cache_hits", "count"),
    ("cli.cache_misses", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.dominant_share", "ratio"),
    ("process.rss_growth_mb", "MB"),
]

# The layer each workload exists to stress; its share of the traced job
# time is reported as trace.dominant_share.
DOMINANT = {
    "series": ["rings.tzseries_mul_s"],
    "construct": ["jordan.rowgen_s", "linalg.rref_s"],
    "homology": ["linalg.rref_s"],
    "oracle": ["tag.bs_s", "tag.bracket_table_s", "tag.anticomm_s", "tag.jacobi_s", "tag.inner_rank_s"],
}

NOTE = "trace.note"  # time spent computing notes; a child, so parents exclude it


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self.missing: list[str] = []  # targets absent from this version
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                t0 = clock()
                rec[4] = note(args, result)
                spans.append([NOTE, t0, clock(), parent, None])
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(original, classmethod):
            new = classmethod(self._wrap(name, original.__func__, note))
        else:
            new = self._wrap(name, original, note)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftover(self) -> list[str]:
        """Patched names that do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]


def _rref_note(args, result):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    return len(rows), ncols, len(result[1]), hash(tuple(map(tuple, rows)))


def install(tracer: Tracer) -> None:
    from freejordan import cli, homology, jordan, linalg, rings, solver, tag

    p = tracer.patch
    p(rings.TZSeries, "__mul__", "rings.TZSeries.__mul__")
    p(solver, "phi_series", "lambda_ops.phi_series")
    p(solver, "lambda_adjoint_series", "lambda_ops.lambda_adjoint_series")
    steps = lambda args, rep: rep.order
    for mod in (solver, cli):
        p(mod, "solve_dims", "solver.solve_dims", steps)
        p(mod, "solve_dims_pair", "solver.solve_dims_pair", steps)
    for mod in (jordan, cli):
        p(mod, "build_free_jordan", "jordan.build_free_jordan")
    p(linalg, "rref", "linalg.rref", _rref_note)
    p(tag, "build_Bs", "tag.build_Bs")
    p(tag.TagAlgebra, "__init__", "tag.TagAlgebra",
      lambda args, _: sum(len(t) for t in args[0].brackets.values()))
    p(tag.TagAlgebra, "check_anticommutativity", "tag.check_anticommutativity")
    p(tag.TagAlgebra, "check_jacobi", "tag.check_jacobi", lambda args, count: count)
    for mod in (tag, cli):
        p(mod, "build_tag", "tag.build_tag")
        p(mod, "inner_rank_diagnostic", "tag.inner_rank_diagnostic")
    p(homology.ChainComplex, "__init__", "homology.ChainComplex",
      lambda args, _: (sum(map(len, args[0].blocks.values())),
                       sum(len(c) for cols in args[0].boundaries.values() for c in cols)))
    p(homology.ChainComplex, "euler_check", "homology.euler_check")
    for mod in (homology, cli):
        p(mod, "compute_homology", "homology.compute_homology")
    p(jordan.GradedJordanAlgebra, "from_json", "jordan.GradedJordanAlgebra.from_json")
    p(cli, "_load_or_build", "cli._load_or_build")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], workload: str, job_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    trace.overhead_s and process.rss_growth_mb come from the untraced
    repetitions, so the caller adds them.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    children = defaultdict(list)
    for k, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[k]
            children[s[3]].append(k)
    calls, total, self_t = defaultdict(int), defaultdict(float), defaultdict(float)
    notes = defaultdict(list)
    for k, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[k]
        self_t[s[0]] += dur[k] - covered[k]
        if s[4] is not None:
            notes[s[0]].append((k, s[4]))

    def under(k: int, name: str) -> bool:
        k = spans[k][3]
        while k >= 0:
            if spans[k][0] == name:
                return True
            k = spans[k][3]
        return False

    rref = notes["linalg.rref"]
    build_rref = [nt for k, nt in rref
                  if spans[k][3] >= 0 and spans[spans[k][3]][0] == "jordan.build_free_jordan"]
    seen: set[int] = set()
    repeats = 0
    for _, (_, _, _, key) in rref:
        repeats += key in seen
        seen.add(key)
    loads = [k for k, s in enumerate(spans) if s[0] == "cli._load_or_build"]
    chain = [nt for _, nt in notes["homology.ChainComplex"]]
    m = {
        "rings.tzseries_mul_calls": calls["rings.TZSeries.__mul__"],
        "rings.tzseries_mul_s": total["rings.TZSeries.__mul__"],
        "lambda_ops.phi_series_s": total["lambda_ops.phi_series"],
        "lambda_ops.lambda_adjoint_series_s": total["lambda_ops.lambda_adjoint_series"],
        "solver.solve_s": total["solver.solve_dims"] + total["solver.solve_dims_pair"],
        "solver.steps": sum(nt for name in ("solver.solve_dims", "solver.solve_dims_pair")
                            for _, nt in notes[name]),
        "jordan.build_s": total["jordan.build_free_jordan"],
        "jordan.rowgen_s": self_t["jordan.build_free_jordan"],
        "jordan.relation_rows": sum(nt[0] for nt in build_rref),
        "jordan.row_yield": _ratio(sum(nt[2] for nt in build_rref), sum(nt[0] for nt in build_rref)),
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_s": total["linalg.rref"],
        "linalg.rref_cells": sum(nt[0] * nt[1] for _, nt in rref),
        "linalg.rref_repeat_ratio": _ratio(repeats, len(rref)),
        "tag.bs_s": total["tag.build_Bs"],
        "tag.bracket_table_s": self_t["tag.TagAlgebra"],
        "tag.brackets_nnz": sum(nt for _, nt in notes["tag.TagAlgebra"]),
        "tag.anticomm_s": total["tag.check_anticommutativity"],
        "tag.jacobi_s": total["tag.check_jacobi"],
        "tag.jacobi_triples": sum(nt for _, nt in notes["tag.check_jacobi"]),
        "tag.inner_rank_s": total["tag.inner_rank_diagnostic"],
        "homology.chain_complex_s": total["homology.ChainComplex"],
        "homology.chain_monomials": sum(nt[0] for nt in chain),
        "homology.boundary_nnz": sum(nt[1] for nt in chain),
        "homology.rank_s": sum(dur[k] for k, _ in rref if under(k, "homology.compute_homology")),
        "homology.euler_s": total["homology.euler_check"],
        "cli.cache_read_s": total["jordan.GradedJordanAlgebra.from_json"],
        "cli.cache_hits": sum(
            any(spans[c][0] == "jordan.GradedJordanAlgebra.from_json" for c in children[k])
            for k in loads),
        "cli.cache_misses": sum(
            any(spans[c][0] == "jordan.build_free_jordan" for c in children[k]) for k in loads),
        "trace.wall_s": job_wall_s,
    }
    m["trace.dominant_share"] = _ratio(sum(m[name] for name in DOMINANT[workload]), job_wall_s)
    return m


def span_totals(spans: list[list]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[0]] += s[2] - s[1]
    return dict(out)


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(r[name] for r in runs) for name in runs[0]}

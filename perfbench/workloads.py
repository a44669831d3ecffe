"""Workload job lists, job execution, answer digests and answer checks.

A job is a plain dict ``{"id", "kind", "args"}`` so that it can cross a
process boundary as JSON.  ``run_job`` executes one job through the same
entry point a user would call (the library function, or ``cli.main`` for
the CLI subcommands) and returns its exact answer as JSON-able data.
``check_job`` holds the independent checks; ``digest`` fingerprints an
answer so that any bit-level change to it is caught against the answers
recorded in ``references.json``.

Imports of ``freejordan`` happen inside the functions: the caller decides
where the package comes from (the checkout's ``src``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json


def _job(kind: str, **args) -> dict:
    key = ",".join(f"{k}={v}" for k, v in args.items())
    return {"id": f"{kind}({key})", "kind": kind, "args": args}


# Each workload stresses a different layer; README.md gives the reasons.
WORKLOADS: dict[str, list[dict]] = {
    "series": [
        _job("solve", d1=2, d2=0, order=16),
        _job("solve", d1=1, d2=1, order=16),
        _job("solve", d1=0, d2=2, order=16),
        _job("solve_pair", d1=1, d2=1, order=12),
    ],
    "construct": [
        _job("verify", d1=2, d2=0, max_degree=6),
        _job("verify", d1=1, d2=1, max_degree=6),
    ],
    "homology": [
        _job("homology", d1=1, d2=1, rmax=4, dmax=4),
        _job("homology", d1=0, d2=2, rmax=4, dmax=5),
    ],
    "oracle": [
        _job("oracle", d1=2, d2=0, max_degree=5),
        _job("oracle", d1=0, d2=2, max_degree=6),
        _job("oracle", d1=1, d2=1, max_degree=5),
    ],
}

# Workloads whose jobs read a warm on-disk cache filled during set-up.
CACHED = {"oracle"}

# The ROADMAP re-anchor table: rows timed as whole jobs, and rows read off
# spans of a traced job (label, job, span name).
ROADMAP_JOBS = [
    ("solve_dims(2,0,25)", _job("solve", d1=2, d2=0, order=25)),
    ("solve_dims_pair(1,1,16)", _job("solve_pair", d1=1, d2=1, order=16)),
    ("build_free_jordan(2,0,6)", _job("build", d1=2, d2=0, max_degree=6)),
    ("build_free_jordan(2,0,7)", _job("build", d1=2, d2=0, max_degree=7)),
    ("build_free_jordan(3,0,5)", _job("build", d1=3, d2=0, max_degree=5)),
]
ROADMAP_TRACED = (
    _job("homology", d1=1, d2=1, rmax=6, dmax=6),
    [
        ("TagAlgebra(1,1,6)", "tag.TagAlgebra"),
        ("Jacobi gate (1,1,6)", "tag.check_jacobi"),
        ("ChainComplex(1,1,6,6)", "homology.ChainComplex"),
        ("compute_homology(1,1,6,6)", "homology.compute_homology"),
    ],
)

# Dimension prefixes computed by hand (tests/test_acceptance.py).
GOLDEN_DIMS = {
    (0, 2): [[0, 2], [1, 0], [0, 2], [5, 0]],
    (1, 1): [[1, 1], [1, 1], [2, 2], [3, 3]],
}


def gdim_pairs(gdims) -> list[list[int]]:
    return [[g.even, g.odd] for g in gdims]


def _ints(pair) -> list[int]:
    """A CLI JSON pair of decimal strings, as ints."""
    return [int(pair[0]), int(pair[1])]


def _cli(argv: list[str]) -> dict:
    from freejordan import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--format", "json"])
    if code != 0:
        raise RuntimeError(f"freejordan {argv[0]} exited with code {code}")
    return json.loads(buf.getvalue())


def _cli_args(a: dict) -> list[str]:
    return ["--d1", str(a["d1"]), "--d2", str(a["d2"]), "--max-degree", str(a["max_degree"])]


def run_job(job: dict, cache_dir: str | None = None) -> dict:
    """Run one job and return its exact answer (JSON-able)."""
    from freejordan import homology, jordan, solver, tag

    a = job["args"]
    kind = job["kind"]
    if kind == "solve":
        rep = solver.solve_dims(a["d1"], a["d2"], a["order"])
        return {"a": gdim_pairs(rep.a), "residual_order": rep.residual_order}
    if kind == "solve_pair":
        rep = solver.solve_dims_pair(a["d1"], a["d2"], a["order"])
        return {"a": gdim_pairs(rep.a), "b": gdim_pairs(rep.b), "residual_order": rep.residual_order}
    if kind == "build":
        alg = jordan.build_free_jordan(a["d1"], a["d2"], a["max_degree"])
        return {"dims": gdim_pairs(alg.dims[n] for n in range(1, a["max_degree"] + 1))}
    if kind == "homology":
        alg = jordan.build_free_jordan(a["d1"], a["d2"], a["dmax"])
        t = tag.build_tag(alg, a["dmax"])
        rep = homology.compute_homology(t, a["rmax"], a["dmax"]).to_json_dict()
        return {
            "dims": gdim_pairs(alg.dims[n] for n in range(1, a["dmax"] + 1)),
            "bs_dims": {str(n): [c.dim.even, c.dim.odd] for n, c in sorted(t.bs.items())},
            "weights": rep["weights"],
            "multiplicities": rep["multiplicities"],
            "incomplete": rep["incomplete"],
            "euler_checked_through": rep["euler_checked_through"],
        }
    if kind in ("verify", "oracle"):
        argv = [kind] + _cli_args(a)
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        out = _cli(argv)
        answer = {
            "dims": [_ints(p) for p in out["dims"]],
            "residual_ok_through": out["residual_ok_through"],
        }
        if kind == "verify":
            answer.update(
                a=[_ints(p) for p in out["a"]],
                agree_degrees=out["agree_degrees"],
                mismatches=out["mismatches"],
            )
        else:
            for key in ("bs_dims", "inner_rank_lower_bounds"):
                answer[key] = {n: _ints(p) for n, p in out[key].items()}
        return answer
    raise ValueError(f"unknown job kind {kind!r}")


def fill_cache(job: dict, cache_dir: str) -> None:
    """Warm the CLI cache for a cached job, through the public CLI."""
    _cli(["verify"] + _cli_args(job["args"]) + ["--cache-dir", cache_dir])


def digest(answer: dict) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _golden(d1: int, d2: int, dims: list) -> list[str]:
    gold = GOLDEN_DIMS.get((d1, d2))
    if gold and dims[: len(gold)] != gold[: len(dims)]:
        return [f"dims prefix {dims[:len(gold)]} != hand-computed {gold}"]
    return []


def check_job(job: dict, answer: dict, solver_dims=None) -> list[str]:
    """Independent checks on one answer; returns the problems found.

    ``solver_dims(d1, d2, n)`` gives the series solver's dimensions, used
    to check constructed dimensions against the other engine.
    """
    a = job["args"]
    d1, d2 = a["d1"], a["d2"]
    kind = job["kind"]
    problems: list[str] = []
    if kind in ("solve", "solve_pair"):
        if answer["residual_order"] != a["order"] + 1:
            problems.append(f"residual vanishes only below z^{answer['residual_order']}")
        problems += _golden(d1, d2, answer["a"])
    elif kind in ("verify", "oracle", "build"):
        n = a["max_degree"]
        dims = answer["dims"]
        problems += _golden(d1, d2, dims)
        if kind != "build" and answer["residual_ok_through"] != n + 1:
            problems.append("residue with constructed dims does not vanish")
        if kind == "verify":
            if answer["mismatches"] or answer["agree_degrees"] != list(range(1, n + 1)):
                problems.append("solver and construction disagree")
            if answer["a"] != dims:
                problems.append("reported solver series differs from constructed dims")
        if kind == "oracle":
            if solver_dims is not None and solver_dims(d1, d2, n) != dims:
                problems.append("constructed dims differ from the series solver")
            if sorted(map(int, answer["bs_dims"])) != list(range(2, n + 1)):
                problems.append("Bs dimensions missing")
    elif kind == "homology":
        problems += _golden(d1, d2, answer["dims"])
        if solver_dims is not None and solver_dims(d1, d2, a["dmax"]) != answer["dims"]:
            problems.append("constructed dims differ from the series solver")
        if answer["weights"].get("0,0") != {"0": ["1", "0"]}:
            problems.append("H_0 is not the ground field")
        if answer["multiplicities"].get("1,1") != {"2": [str(d1), str(d2)]}:
            problems.append("H_1 at z^1 is not the adjoint tensor the generators")
        if any(k.startswith("1,") and k != "1,1" for k in answer["weights"]):
            problems.append("H_1 outside z-degree 1")
        if any(set(m) - {"4"} for k, m in answer["multiplicities"].items() if k.startswith("2,")):
            problems.append("H_2 is not purely of highest weight 4")
        if answer["euler_checked_through"] != min(a["rmax"], a["dmax"]) + 1:
            problems.append("Euler gate did not cover every complete column")
    return problems


def check_run(done: list[tuple[dict, dict]]) -> list[str]:
    """Cross-job check: the pair system's a(z) equals the single equation's."""
    problems = []
    for job, ans in done:
        if job["kind"] != "solve_pair":
            continue
        for other, oans in done:
            same = (other["args"]["d1"], other["args"]["d2"]) == (job["args"]["d1"], job["args"]["d2"])
            if other["kind"] == "solve" and same:
                n = min(len(ans["a"]), len(oans["a"]))
                if ans["a"][:n] != oans["a"][:n]:
                    problems.append(f"{job['id']}: a(z) differs from {other['id']}")
    return problems

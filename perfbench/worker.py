"""One timed repetition of a job list, in a fresh interpreter.

    python3 perfbench/worker.py --jobs JSON --out FILE [--cache-dir DIR]
        [--trace --workload NAME] [--setup]

With ``--setup`` it only imports freejordan and, given ``--cache-dir``,
fills the CLI cache for the jobs; the caller times the whole process.
Otherwise it runs the jobs back to back, timing wall and CPU time around
each and the host-speed probe (perfbench/probe.py) between them, checks
every answer, and writes a JSON result to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import freejordan.cli  # noqa: E402,F401  (import cost belongs to set-up)
from freejordan import solver  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCES = HERE / "references.json"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers work moved to subprocesses.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def run_jobs(jobs: list[dict], cache_dir: str | None, tracer: spans.Tracer | None) -> dict:
    """Run the jobs back to back, with the host-speed probe before each and after the last.

    A job's ``probe_wall_s``/``probe_cpu_s`` are the mean of the probes on
    either side of it; the totals cover the jobs, not the probes.
    """
    if tracer is not None:
        spans.install(tracer)
    done = []
    rss0 = _peak_rss_mb()  # the interpreter and its imports, before any job
    try:
        before = probe.timed()
        for job in jobs:
            jc, j0 = probe.cpu_s(), time.perf_counter()
            try:
                answer, error = workloads.run_job(job, cache_dir), None
            except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - j0, probe.cpu_s() - jc
            after = probe.timed()
            done.append((job, answer, error, {
                "wall_s": wall, "cpu_s": cpu,
                "probe_wall_s": (before[0] + after[0]) / 2,
                "probe_cpu_s": (before[1] + after[1]) / 2,
            }))
            before = after
    finally:
        if tracer is not None:
            tracer.restore()
    peak = _peak_rss_mb()
    return {"done": done,
            "wall_s": sum(t["wall_s"] for *_, t in done),
            "cpu_s": sum(t["cpu_s"] for *_, t in done),
            "peak_rss_mb": peak, "rss_growth_mb": peak - rss0}


def check(done: list, references: dict[str, str]) -> list[dict]:
    """Per-job verdicts: the independent checks plus the recorded digest."""
    cache: dict = {}

    def solver_dims(d1, d2, n):
        if (d1, d2, n) not in cache:
            cache[(d1, d2, n)] = workloads.gdim_pairs(solver.solve_dims(d1, d2, n).a)
        return cache[(d1, d2, n)]

    ok = [(job, ans) for job, ans, err, *_ in done if err is None]
    cross = workloads.check_run(ok)
    out = []
    for job, answer, error, timing in done:
        rec = {"id": job["id"], **timing, "digest": None, "problems": []}
        if error is not None:
            rec["problems"].append(error)
        else:
            rec["digest"] = workloads.digest(answer)
            rec["problems"] += workloads.check_job(job, answer, solver_dims)
            rec["problems"] += [p for p in cross if p.startswith(job["id"] + ":")]
            ref = references.get(job["id"])
            if ref is not None and ref != rec["digest"]:
                rec["problems"].append("answer digest differs from the recorded reference")
        out.append(rec)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--cache-dir")
    ap.add_argument("--workload")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup", action="store_true")
    args = ap.parse_args(argv)
    jobs = json.loads(args.jobs)
    if args.setup:
        if args.cache_dir:
            for job in jobs:
                workloads.fill_cache(job, args.cache_dir)
        return 0
    tracer = spans.Tracer() if args.trace else None
    res = run_jobs(jobs, args.cache_dir, tracer)
    result = {
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "rss_growth_mb": res["rss_growth_mb"],
        "jobs": check(res["done"], json.loads(REFERENCES.read_text())),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, args.workload, res["wall_s"])
        result["spans"] = spans.span_totals(tracer.spans)
        # A per-layer metric must not silently read 0 or keep a wrapper in
        # place, so every job of the repetition fails instead.
        broken = ([f"wrapper not restored: {name}" for name in tracer.leftover()]
                  + [f"trace target missing: {name}" for name in tracer.missing])
        for rec in result["jobs"]:
            rec["problems"] += broken
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The freejordan benchmark: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that has ``src/freejordan``.  Every repetition runs
the workload's jobs back to back in a fresh interpreter (perfbench/worker.py),
so nothing memoized in one repetition reaches the next; the seed only
permutes the job order.  Set-up (interpreter start, package import and,
for cached workloads, filling the CLI cache) is timed several times.
Every timing is taken between two runs of the host-speed probe
(perfbench/probe.py) and reported at the host's fast speed.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (jobs) and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it carries diagnostics, among them the host-speed probe.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 7
MIN_REPS = {False: 3, True: 2}  # per kind when not tracing / when tracing
DEADLINE_S = 160  # the whole run, set-up included, ends within this
WORK_DIR = ROOT / ".perfbench_work"


def at_ref_speed(seconds: float, probe_s: float) -> float:
    """A time measured beside a probe that took ``probe_s``, at the probe's reference speed."""
    return seconds / probe_s * probe.REF_S


def _worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run worker.py; subprocess.run kills and reaps it if the deadline passes.

    The CLI falls back to $FREEJORDAN_CACHE_DIR without --cache-dir, so the
    worker does not inherit it: only set-up may warm a cache.
    """
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    env = {k: v for k, v in os.environ.items() if k != "FREEJORDAN_CACHE_DIR"}
    timeout = max(deadline - time.perf_counter(), 0.01)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


def set_up(name: str, jobs: list[dict], tmp: Path, deadline: float):
    """Time SETUP_RUNS set-ups after one untimed warm-up (bytecode compile).

    Returns each set-up's wall time and the same at the probe's reference
    speed, and the last cache directory filled.
    """
    cached = name in workloads.CACHED
    times, scaled, cache_dir = [], [], None
    before = probe.timed()[0]
    for k in range(SETUP_RUNS + 1):
        cache_dir = str(tmp / f"cache{k}") if cached and k else None
        args = ["--setup", "--jobs", json.dumps(jobs)]
        if cache_dir:
            args += ["--cache-dir", cache_dir]
        t0 = time.perf_counter()
        try:
            proc = _worker(args, deadline)
        except subprocess.TimeoutExpired:
            raise RuntimeError("set-up ran past the deadline") from None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        after = probe.timed()[0]
        if k:
            times.append(elapsed)
            scaled.append(at_ref_speed(elapsed, (before + after) / 2))
        before = after
    return times, scaled, cache_dir


def repetition(name: str, jobs: list[dict], cache_dir, traced: bool, out: Path,
               deadline: float) -> dict | None:
    out.unlink(missing_ok=True)
    args = ["--jobs", json.dumps(jobs), "--out", str(out)]
    if cache_dir:
        args += ["--cache-dir", cache_dir]
    if traced:
        args += ["--trace", "--workload", name]
    try:
        proc = _worker(args, deadline)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(out.read_text())


def measure(name: str, seed: int, seconds: float, tracing: bool, tmp: Path, cache_dir,
            deadline: float) -> dict:
    jobs = workloads.WORKLOADS[name]
    rng = random.Random(seed)
    kinds = [False, True] if tracing else [False]
    reps = {False: [], True: []}
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    durations = []
    while True:
        for traced in kinds:
            order = rng.sample(jobs, len(jobs))
            t0 = time.perf_counter()
            res = repetition(name, order, cache_dir, traced, tmp / "rep.json", deadline)
            durations.append(time.perf_counter() - t0)
            attempted += len(jobs)
            if res is None:
                failed += len(jobs)
                problems.append("repetition did not finish")
                continue
            bad = [j for j in res["jobs"] if j["problems"]]
            failed += len(bad)
            problems += [f"{j['id']}: {p}" for j in bad for p in j["problems"]]
            reps[traced].append(res)
        elapsed = time.perf_counter() - start
        enough = all(len(reps[t]) >= MIN_REPS[tracing] for t in kinds)
        if enough and elapsed + median(durations) * len(kinds) > seconds:
            break
        if time.perf_counter() + median(durations) * len(kinds) > deadline:
            break
    return {"reps": reps, "attempted": attempted, "failed": failed, "problems": problems}


def job_total(reps: list[dict], key: str) -> float:
    """Each job's median time over the repetitions at the probe's reference speed, summed."""
    scaled: dict[str, list[float]] = {}
    for rep in reps:
        for job in rep["jobs"]:
            scaled.setdefault(job["id"], []).append(at_ref_speed(job[key], job["probe_" + key]))
    return sum(median(v) for v in scaled.values())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "freejordan" / "__init__.py").is_file():
        print(f"no freejordan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload]
    refs = json.loads((HERE / "references.json").read_text())
    unreferenced = [j["id"] for j in jobs if j["id"] not in refs]
    if unreferenced:
        print(f"no reference answers for {unreferenced}", file=sys.stderr)
        return 2

    # The run and its workers share one core, so that a probe and the work
    # timed beside it see the same core's speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.perf_counter() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        probe_s = median(probe.timed()[0] for _ in range(5))
        setup_times, setup_scaled, cache_dir = set_up(args.workload, jobs, tmp, deadline)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp, cache_dir,
                      deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain, traced = run["reps"][False], run["reps"][True]
    if not plain or (args.trace and not traced):
        print("no repetition finished:\n" + "\n".join(run["problems"][:20]), file=sys.stderr)
        return 1
    wall_median = median(r["wall_s"] for r in plain)
    if args.trace:
        layers = spans.median_metrics([r["layers"] for r in traced])
        layers["trace.overhead_s"] = job_total(traced, "wall_s") - job_total(plain, "wall_s")
        layers["process.rss_growth_mb"] = median(r["rss_growth_mb"] for r in plain)
        units = dict(spans.METRICS)
        metrics = {k: {"value": layers[k], "unit": units[k]} for k, _ in spans.METRICS}
    else:
        metrics = {
            "wall_s": {"value": job_total(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": job_total(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
            "setup_s": {"value": median(setup_scaled), "unit": "s"},
        }
    diag = {
        "workload": args.workload,
        "seed": args.seed,
        "probe_s": probe_s,
        "error_rate": run["failed"] / run["attempted"],
        "repetitions": len(plain) + len(traced),
        "rss_growth_mb": median(r["rss_growth_mb"] for r in plain),
        "measured_wall_s": wall_median,
        "measured_cpu_s": median(r["cpu_s"] for r in plain),
        "measured_setup_s": median(setup_times),
        "wall_s_each": [r["wall_s"] for r in plain],
        "setup_s_each": setup_times,
        "problems": run["problems"][:20],
    }
    if args.trace:
        diag["span_totals_s"] = spans.median_metrics([r["spans"] for r in traced])
    print(json.dumps(diag))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One command for the whole benchmark: every workload, both runs, one table.

    python3 perfbench/report.py [--json FILE]
    python3 perfbench/report.py --roadmap
    python3 perfbench/report.py --record-references

The default runs every workload for BENCHMARK.json's ``run_seconds`` with
seed 0.  It prints, per workload, the end-to-end metrics (wall_s, cpu_s,
peak_rss_mb, setup_s, error_rate) with the measured job time and the
host-speed probe, then the per-layer metrics of the traced run with the
tracing overhead and the dominant layer's share.  ``--json`` also writes every result to a file
(this is how baseline.json was made).  ``--roadmap`` times the rows of the
ROADMAP re-anchor table.  ``--record-references`` re-records the answer
digests in references.json; run it only on a commit whose answers are
trusted, since every later answer is compared against them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402

SEED = 0


def bench(workload: str, seconds: int, traced: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def full_report(out: str | None) -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {}
    for name in workloads.WORKLOADS:
        results[name] = {"untraced": bench(name, seconds, 0), "traced": bench(name, seconds, 1)}
    print("| workload | wall_s (s) | cpu_s (s) | peak_rss_mb (MB) | setup_s (s) | error_rate "
          "| measured wall_s (s) | probe_s (s) |")
    print("|---|---|---|---|---|---|---|---|")
    for name, r in results.items():
        diag, res = r["untraced"]
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"| {name} | {m['wall_s']:.3f} | {m['cpu_s']:.3f} | {m['peak_rss_mb']:.1f} | "
              f"{m['setup_s']:.3f} | {res['failed']}/{res['attempted']} = {diag['error_rate']:.3g} | "
              f"{diag['measured_wall_s']:.3f} | {diag['probe_s']:.4f} |")
    names = list(results)
    print("\n| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, unit in spans.METRICS:
        vals = [results[n]["traced"][1]["metrics"][metric]["value"] for n in names]
        print(f"| {metric} | {unit} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")
    print("\ndominant layer share of traced job time: " + ", ".join(
        f"{n}: {'+'.join(spans.DOMINANT[n])} = "
        f"{results[n]['traced'][1]['metrics']['trace.dominant_share']['value']:.0%}" for n in names))
    if out:
        Path(out).write_text(json.dumps({
            "seed": SEED, "seconds": seconds, "python": sys.version.split()[0],
            "cpus": os.cpu_count(), "results": results}, indent=1, sort_keys=True) + "\n")


def _once(jobs: list[dict], traced: bool) -> dict:
    """One repetition of ``jobs`` in a fresh interpreter, as run.py starts it."""
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        res = run.repetition("homology", jobs, None, traced, Path(tmp) / "out.json",
                             time.perf_counter() + 3600)
    if res is None:
        raise SystemExit(f"{[job['id'] for job in jobs]} did not finish")
    return res


def roadmap() -> None:
    """The ROADMAP re-anchor table; each job in its own fresh interpreter."""
    rows = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    summary = (suite.stdout.strip().splitlines() or ["?"])[-1]
    rows.append((f"tier-1 suite ({summary})", time.perf_counter() - t0))
    for label, job in workloads.ROADMAP_JOBS:
        rows.append((label, _once([job], False)["jobs"][0]["wall_s"]))
    job, spans = workloads.ROADMAP_TRACED
    totals = _once([job], True)["spans"]
    rows += [(f"{label} (traced)", totals.get(span, 0.0)) for label, span in spans]
    print("| workload | time |\n|---|---|")
    for label, secs in rows:
        print(f"| {label} | {secs:.2f} s |")


def record_references() -> None:
    import worker  # imports freejordan from the checkout's src

    os.environ.pop("FREEJORDAN_CACHE_DIR", None)  # only the oracle jobs get a cache
    refs = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as cache:
        for name, jobs in workloads.WORKLOADS.items():
            done = worker.run_jobs(jobs, cache if name in workloads.CACHED else None, None)["done"]
            for verdict in worker.check(done, {}):
                if verdict["problems"]:
                    raise SystemExit(f"{verdict['id']} fails its checks: {verdict['problems']}")
                refs[verdict["id"]] = verdict["digest"]
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--json")
    ap.add_argument("--roadmap", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    if args.record_references:
        record_references()
    elif args.roadmap:
        roadmap()
    else:
        full_report(args.json)


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself: references, tracing, contract shape.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts src on sys.path)
import workloads  # noqa: E402

from freejordan import cli, homology, jordan, linalg, rings, solver, tag  # noqa: E402

REFS = json.loads((BENCH / "references.json").read_text())

SMALL = [
    workloads._job("solve", d1=1, d2=1, order=8),
    workloads._job("solve_pair", d1=1, d2=1, order=6),
    workloads._job("verify", d1=1, d2=1, max_degree=4),
    workloads._job("homology", d1=0, d2=2, rmax=3, dmax=3),
    workloads._job("oracle", d1=1, d2=1, max_degree=4),
]


def _verdicts(jobs, cache_dir=None, tracer=None):
    res = worker.run_jobs(jobs, cache_dir, tracer)
    return res, worker.check(res["done"], REFS)


def test_every_workload_job_has_a_reference():
    ids = [job["id"] for jobs in workloads.WORKLOADS.values() for job in jobs]
    assert sorted(ids) == sorted(REFS)


@pytest.mark.parametrize("field", ["dims", "a"])
def test_corrupted_answer_is_a_failure(field):
    job = workloads.WORKLOADS["construct"][1]  # verify (1|1) to degree 6
    answer = workloads.run_job(job)
    answer[field][5][0] += 1
    done = [(job, answer, None, {})]
    problems = worker.check(done, REFS)[0]["problems"]
    assert "answer digest differs from the recorded reference" in problems
    # the independent check catches it without the digest too
    assert workloads.check_job(job, answer)


def test_corrupted_homology_is_caught_without_digest():
    job = SMALL[3]
    answer = workloads.run_job(job)
    answer["weights"]["0,0"] = {"0": ["2", "0"]}
    assert "H_0 is not the ground field" in workloads.check_job(job, answer)


def test_pair_and_single_solver_disagreement_is_caught():
    single, pair = SMALL[0], SMALL[1]
    a_single, a_pair = workloads.run_job(single), workloads.run_job(pair)
    assert workloads.check_run([(single, a_single), (pair, a_pair)]) == []
    a_pair["a"][2][1] += 1
    assert workloads.check_run([(single, a_single), (pair, a_pair)])


def test_raising_job_is_a_failure():
    bad = workloads._job("verify", d1=0, d2=0, max_degree=3)  # CLI usage error
    _, verdicts = _verdicts([bad])
    assert verdicts[0]["problems"] and verdicts[0]["digest"] is None


def _originals():
    return {
        "mul": vars(rings.TZSeries)["__mul__"],
        "rref": linalg.rref,
        "phi": solver.phi_series,
        "cli_build": cli.build_free_jordan,
        "build": jordan.build_free_jordan,
        "tag_init": vars(tag.TagAlgebra)["__init__"],
        "cc_init": vars(homology.ChainComplex)["__init__"],
        "from_json": vars(jordan.GradedJordanAlgebra)["from_json"],
        "load": cli._load_or_build,
    }


def test_traced_and_untraced_digests_match_and_wrappers_are_restored(tmp_path):
    before = _originals()
    plain, v_plain = _verdicts(SMALL, str(tmp_path / "a"))
    tracer = spans.Tracer()
    traced, v_traced = _verdicts(SMALL, str(tmp_path / "b"), tracer)
    assert [v["digest"] for v in v_plain] == [v["digest"] for v in v_traced]
    assert all(v["digest"] for v in v_plain)
    assert tracer.leftover() == [] and tracer.missing == []
    after = _originals()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans, "tracing recorded nothing"


def test_wrappers_are_restored_when_a_job_raises(monkeypatch):
    before = _originals()
    tracer = spans.Tracer()

    def boom(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(workloads, "run_job", boom)
    with pytest.raises(KeyboardInterrupt):
        worker.run_jobs(SMALL[:1], None, tracer)
    assert tracer.leftover() == []
    assert all(_originals()[k] is before[k] for k in before)


def test_missing_trace_target_fails_every_job(tmp_path, monkeypatch):
    install = spans.install

    def install_with_a_gone_target(tracer):
        install(tracer)
        tracer.patch(linalg, "no_such_function", "linalg.gone")

    monkeypatch.setattr(spans, "install", install_with_a_gone_target)
    out = tmp_path / "out.json"
    worker.main(["--jobs", json.dumps(SMALL[:2]), "--out", str(out),
                 "--trace", "--workload", "series"])
    jobs = json.loads(out.read_text())["jobs"]
    gone = "trace target missing: freejordan.linalg.no_such_function"
    assert all(gone in j["problems"] for j in jobs)


def test_workers_ignore_the_callers_cache_dir(tmp_path, monkeypatch):
    stray = tmp_path / "stray"
    monkeypatch.setenv(cli.CACHE_ENV, str(stray))
    res = run.repetition("construct", SMALL[2:3], None, False, tmp_path / "out.json",
                         time.perf_counter() + 120)
    assert res is not None and res["jobs"][0]["problems"] == []
    assert not stray.exists()


def test_job_total_does_not_move_with_host_speed():
    def rep(slowdown):
        return {"jobs": [{"id": "a", "wall_s": 0.5 * slowdown, "probe_wall_s": 0.01 * slowdown},
                         {"id": "b", "wall_s": 0.2 * slowdown, "probe_wall_s": 0.01 * slowdown}]}

    fast = run.job_total([rep(1.0)] * 3, "wall_s")
    mixed = run.job_total([rep(1.0), rep(2.0), rep(1.9), rep(1.0), rep(1.0)], "wall_s")
    assert fast == pytest.approx(70 * probe.REF_S) and mixed == pytest.approx(fast)
    # a job that got 2x slower on its own shows in full
    slower = {"jobs": [{"id": "a", "wall_s": 1.0, "probe_wall_s": 0.01}, rep(1.0)["jobs"][1]]}
    assert run.job_total([slower] * 3, "wall_s") == pytest.approx(120 * probe.REF_S)


def test_self_time_excludes_children():
    sp = [
        ["jordan.build_free_jordan", 0.0, 10.0, -1, None],
        ["linalg.rref", 2.0, 5.0, 0, (4, 3, 2, 7)],
        ["trace.note", 5.0, 6.0, 0, None],
        ["linalg.rref", 7.0, 8.0, -1, (4, 3, 2, 7)],
    ]
    m = spans.layer_metrics(sp, "construct", 12.0)
    assert m["jordan.build_s"] == 10.0 and m["jordan.rowgen_s"] == 6.0
    assert m["linalg.rref_s"] == 4.0 and m["linalg.rref_cells"] == 24
    assert m["jordan.relation_rows"] == 4 and m["jordan.row_yield"] == 0.5
    assert m["linalg.rref_repeat_ratio"] == 0.5
    assert m["trace.dominant_share"] == 10.0 / 12.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_dominant_layer_is_nonzero_on_its_workload(name, tmp_path):
    jobs = workloads.WORKLOADS[name]
    cache = None
    if name in workloads.CACHED:
        cache = str(tmp_path)
        for job in jobs:
            workloads.fill_cache(job, cache)
    tracer = spans.Tracer()
    res, verdicts = _verdicts(jobs, cache, tracer)
    assert all(v["problems"] == [] for v in verdicts)
    m = spans.layer_metrics(tracer.spans, name, res["wall_s"])
    assert all(m[k] > 0 for k in spans.DOMINANT[name])
    assert m["trace.dominant_share"] > 0.5
    if name in workloads.CACHED:
        assert m["cli.cache_hits"] == len(jobs) and m["cli.cache_misses"] == 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in spans.METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(spans.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

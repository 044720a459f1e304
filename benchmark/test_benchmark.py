"""The benchmark's own test: every workload at a small size, the traced
run's coverage gate, and the failure paths of the output checks.

Run from the repository root: python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# spans must cover at least this share of a workload's traced wall time
COVERAGE_GATE = 0.95


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_line(done):
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    metrics = last_line(bench(workload, 0))
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_covered_and_its_counts_repeat(workload):
    first, second = (last_line(bench(workload, 1)) for _ in range(2))
    assert {k: v["unit"] for k, v in first.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    covered = 1 - first["trace.unaccounted_frac"]["value"]
    assert covered >= COVERAGE_GATE, f"spans cover {covered:.3f} of {workload}"
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"}
              for m in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["builders.load_structure.calls"] > 0


def test_unaccounted_time_is_measured():
    tracer = tracing.Tracer()
    layer = tracer.wrap("layer", time.sleep, True)
    start = time.perf_counter()
    layer(0.05)
    time.sleep(0.05)
    wall = time.perf_counter() - start
    frac = tracer.layer_metrics(wall, wall)["trace.unaccounted_frac"]["value"]
    assert 0.4 < frac < 0.6
    assert tracer.spans[0][0] == "layer"


def test_times_are_put_on_the_reference_speed():
    ref = speed.REFERENCE_PROBE_S
    timed = [{"pass": 0, "traced": False, "job": "slow", "s": 2.0,
              "probe_s": [2 * ref] * run.JOB_SAMPLES},
             {"pass": 0, "traced": False, "job": "fast", "s": 1.0,
              "probe_s": [ref] * run.JOB_SAMPLES}]
    assert run.pass_times(timed, ["slow", "fast"]) == [[1.0, 1.0]]


def test_a_short_job_is_judged_by_its_neighbours():
    recs = [{"probe_s": [1.0] * 4}, {"probe_s": [2.0]},
            {"probe_s": [3.0] * 30}]
    assert run.local_samples(recs, 1) == [2.0, 1.0, 1.0, 1.0, 1.0] + \
        [3.0] * 30
    assert run.local_samples(recs, 2) == [3.0] * 30


def test_the_slowest_tenth_of_speed_samples_is_dropped():
    assert speed.typical([1.0] * 9 + [100.0]) == 1.0
    assert speed.typical([3.0]) == 3.0


def test_speed_probe_samples_while_work_runs():
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3
    assert 0 < probe.spent < 0.5
    assert all(s > 0 for _, s in probe.samples)


def job(pass_number, name, digest="d", ok=True):
    return {"pass": pass_number, "traced": False, "job": name, "s": 1.0,
            "ok": ok, "digest": digest, "seed_free": None, "counters": {}}


def test_unfinished_jobs_count_as_failed():
    records = [{"plan": ["a", "b", "c"]}, job(0, "a"), job(0, "b"),
               job(0, "c"), job(1, "a")]
    checked = run.evaluate(records, True, {}, {})
    assert checked["unfinished"] == 2 and checked["done"] is None


def test_wrong_reports_fail():
    records = [{"plan": ["a", "b"]}, job(0, "a"), job(0, "b", ok=False),
               job(1, "a", digest="other"), job(1, "b"), {"done": True}]
    checked = run.evaluate(records, False, {"b": "recorded"}, {})
    assert [(f["pass"], f["job"]) for f in checked["failures"]] == \
        [(0, "b"), (1, "a"), (1, "b")]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("certify", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout

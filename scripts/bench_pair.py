"""Benchmark a change against its parent checkout and write BENCH_<pr>.json.

    python3 scripts/bench_pair.py PARENT_CHECKOUT PARENT_COMMIT PR_NUMBER

For each workload of BENCHMARK.json, runs ``benchmark/run.py --trace 0``
in PAIRS pairs, one run of the parent checkout and one of this checkout
per pair, both at the pair's seed, and alternates which side runs first.
Then TRACED_RUNS ``--trace 1`` runs per side and workload, the sides
alternating, give the per-layer values: one traced run cannot carry a
comparison, since traced seconds spread widely from run to run.  Run
length is the benchmark's own default.

Each side runs in a fresh copy of its checkout, made without ``.git``,
``__pycache__`` or ``.bench_out``, as a benchmark run on a new checkout
would.  A checkout's own ``__pycache__`` may hold a ``.pyc`` written before
its source was last edited; under PYTHONDONTWRITEBYTECODE Python recompiles
that module in every run, and charges one side compile time the other does
not pay.  PYTHONPYCACHEPREFIX would hide such files too, but it also hides
the standard library's bytecode, so every process would compile the
library modules it imports, about doubling setup_s on both sides.

PARENT_COMMIT is the parent's commit id, recorded as given: a checkout
made with ``git archive`` has no ``.git`` to ask.  This checkout's commit
is read from git (``git describe --always --dirty``).

BENCH_<pr>.json, written to the root of this checkout, holds the machine,
both commits, every raw run, each side's median and quartiles per
end-to-end metric, the pairs each side won (ties count for neither), and
each side's median and quartiles per per-layer metric, with the difference
of the medians.  Under "jobs" it also holds, per workload, each side's
median and quartiles of every job's seconds (one value per untraced run:
the job's median over that run's passes, at the reference speed that
job_max_s uses, read from the run's .bench_out/*.result.json), and the
job with the largest median on each side, the one behind job_max_s.
Standard library only.
"""

import json
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmark"))

import run as benchmark_run  # noqa: E402
import speed  # noqa: E402

PAIRS = 10
TRACED_RUNS = 3
FIRST_SEED = 1


def machine():
    model = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count(), "cpu_model": model}


def commit():
    """This checkout's commit, marked -dirty when its tree differs."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def job_seconds(checkout, workload, seed):
    """{job: its median seconds over the untraced passes} of the last
    untraced run of the workload at the seed, at the reference speed, each
    job time scaled by the speed samples around it as benchmark/run.py
    scales them for job_max_s; {} when the run left no result file."""
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.result.json"
    try:
        jobs = json.loads(path.read_text())["jobs"]
    except (OSError, ValueError, KeyError):
        return {}
    recs = [r for r in jobs if not r["traced"] and "s" in r]
    times = {}
    for i, rec in enumerate(recs):
        probe_s = speed.typical(benchmark_run.local_samples(recs, i))
        times.setdefault(rec["job"], []).append(speed.scale(rec["s"], probe_s))
    return {job: statistics.median(t) for job, t in times.items()}


def run(checkout, workload, seed, trace):
    """One benchmark run; its result line plus how it went, and for an
    untraced run each job's median seconds."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {"started": started, "elapsed_s": time.time() - started,
            "returncode": done.returncode, "stderr": done.stderr[-2000:],
            "correct": result.get("correct"), "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
            "job_s": {} if trace else job_seconds(checkout, workload, seed)}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs, spec):
    """Per workload and end-to-end metric: each side's spread and wins."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        pairs = {}
        for r in runs:
            if r["workload"] == name and r["trace"] == 0:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        rows = {}
        for m in spec["end_to_end"]:
            key = m["name"]
            sign = 1 if m["better"] == "lower" else -1
            both = [(p["parent"][key], p["change"][key]) for p in pairs.values()
                    if key in p.get("parent", {}) and key in p.get("change", {})]
            if not both:
                continue
            rows[key] = {
                "better": m["better"], "bound": m["bound"], "pairs": len(both),
                "parent": spread([a for a, _ in both]),
                "change": spread([b for _, b in both]),
                "change_wins": sum(1 for a, b in both if sign * (a - b) > 0),
                "parent_wins": sum(1 for a, b in both if sign * (b - a) > 0),
            }
        out[name] = rows
    return out


def layer_spreads(runs, spec):
    """Per workload and per-layer metric: each side's spread over its
    traced runs (None below two values) and the difference of the medians."""
    out = {}
    for w in spec["workloads"]:
        traced = {"parent": [], "change": []}
        for r in runs:
            if r["workload"] == w["name"] and r["trace"] == 1:
                traced[r["side"]].append(r["metrics"])
        rows = {}
        for m in spec["per_layer"]:
            row = {}
            for side, metrics in traced.items():
                values = [t[m["name"]] for t in metrics if m["name"] in t]
                row[side] = spread(values) if len(values) > 1 else None
            row["delta"] = (row["change"]["median"] - row["parent"]["median"]
                            if row["parent"] and row["change"] else None)
            rows[m["name"]] = row
        out[w["name"]] = rows
    return out


def job_spreads(runs, spec):
    """Per workload: each job's spread per side over the untraced runs,
    and the job with the largest median per side."""
    out = {}
    for w in spec["workloads"]:
        times = {"parent": {}, "change": {}}
        for r in runs:
            if r["workload"] == w["name"] and r["trace"] == 0:
                for job, s in r.get("job_s", {}).items():
                    times[r["side"]].setdefault(job, []).append(s)
        jobs = {job: {side: spread(times[side][job]) if len(times[side].get(job, ())) > 1
                      else None for side in times}
                for job in sorted(set(times["parent"]) | set(times["change"]))}
        slowest = {side: max((j for j in jobs if jobs[j][side]),
                             key=lambda j: jobs[j][side]["median"], default=None)
                   for side in times}
        out[w["name"]] = {"slowest": slowest, "jobs": jobs}
    return out


def run_pairs(sides, spec):
    """Every run of every workload: PAIRS alternating untraced pairs, then
    TRACED_RUNS traced runs per side, alternating."""
    runs = []
    for w in spec["workloads"]:
        for pair in range(PAIRS):
            seed = FIRST_SEED + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                r = run(sides[side], w["name"], seed, 0)
                runs.append({"workload": w["name"], "pair": pair, "seed": seed,
                             "side": side, "position": position, "trace": 0, **r})
                print(f"{w['name']} pair {pair} {side}: "
                      f"{r['metrics'].get('wall_s')} correct={r['correct']}", flush=True)
        for i in range(TRACED_RUNS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                r = run(sides[side], w["name"], FIRST_SEED, 1)
                runs.append({"workload": w["name"], "pair": None, "seed": FIRST_SEED,
                             "side": side, "position": position, "trace": 1, **r})
    return runs


def main(argv):
    if (len(argv) != 3 or not re.fullmatch(r"[0-9a-f]{7,40}", argv[1])
            or not argv[2].isdigit()):
        print("usage: python3 scripts/bench_pair.py PARENT_CHECKOUT PARENT_COMMIT PR_NUMBER",
              file=sys.stderr)
        return 2
    parent = pathlib.Path(argv[0]).resolve()
    if not (parent / "benchmark" / "run.py").is_file():
        print(f"error: {parent} has no benchmark/run.py", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as scratch:
        sides = {side: pathlib.Path(scratch, side)
                 for side in ("parent", "change")}
        for side, checkout in (("parent", parent), ("change", ROOT)):
            shutil.copytree(checkout, sides[side], ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".bench_out"))
        runs = run_pairs(sides, spec)
    doc = {
        "pr": int(argv[2]),
        "machine": machine(),
        "parent": {"commit": argv[1]},
        "change": {"commit": commit()},
        "pairs_per_workload": PAIRS,
        "traced_runs_per_side": TRACED_RUNS,
        "summary": summarise(runs, spec),
        "layers": layer_spreads(runs, spec),
        "jobs": job_spreads(runs, spec),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{argv[2]}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

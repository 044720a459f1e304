"""The hhglab benchmark: one measured run of one workload.

Usage, from the repository root:

    python3 benchmark/run.py --workload {certify,scan,geometry} --seed N \
        --seconds S --trace {0,1}

The workload runs in its own fresh single-threaded process
(benchmark/worker.py) under a wall-clock cap of CAP_SECONDS; a run that hits
the cap is killed and its unfinished jobs count as failed.  Every job's
output is checked: verdicts (benchmark/workloads.py), report bytes equal
across passes, and equal to the digests recorded in
benchmark/baseline.json.

--trace 0 measures passes for about S seconds and reports the end-to-end
metrics of BENCHMARK.json (medians over passes; setup_s is the median of
SETUP_PROBES fresh processes; peak_rss_mb is ru_maxrss after the first
pass).  Times are put on one reference machine speed by the speed probe
of benchmark/speed.py, which samples the machine while the work runs:
the speed of this benchmark's shared host drifts by more than the
regression bounds, and raw times with it.  Raw times and the speed
samples are kept in the result file.  --trace 1 runs one untraced and one
traced pass and reports the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Per-pass times, per-job digests and counters and the spans go to
.bench_out/.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmark"
OUT = ROOT / ".bench_out"
CAP_SECONDS = 150
SETUP_PROBES = 10
# speed samples that judge one job's speed (see local_samples)
JOB_SAMPLES = 20

sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def setup_probes(workload, small, count):
    """(set-up seconds, typical speed sample) of `count` fresh processes."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"),
            *workloads.named_structures(workload, small)]
    probes = []
    for _ in range(count):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=60)
        probes.append(tuple(map(float, done.stdout.split())))
    return probes


def run_worker(args, stem):
    """Run the workload process under the cap; (records, capped)."""
    progress = OUT / f"{stem}.progress"
    argv = [sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--progress", str(progress), "--spans", str(OUT / f"{stem}.spans")]
    if args.small:
        argv.append("--small")
    progress.unlink(missing_ok=True)
    capped = False
    with open(OUT / f"{stem}.stderr", "w") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err,
                                env={**os.environ, "PYTHONHASHSEED": "0"})
        try:
            proc.wait(timeout=CAP_SECONDS)
        except subprocess.TimeoutExpired:
            capped = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    records = []
    if progress.exists():
        with open(progress) as fh:
            for line in fh:
                if line.endswith("\n"):
                    records.append(json.loads(line))
    return records, capped, proc.returncode


def evaluate(records, capped, expected_digests, seed_free_digests):
    """Check the job records of one run.

    Returns None when the worker never got as far as its job plan,
    otherwise a dict with the plan, the job records, the failures (each
    job record that raised, gave a wrong verdict, or whose report or
    counters differ from its first pass or from the recorded digests) and
    the number of jobs left unfinished by a cap or a crash.
    """
    plan = next((r["plan"] for r in records if "plan" in r), None)
    if plan is None:
        return None
    done = next((r for r in records if "done" in r), None)
    layers = next((r["layers"] for r in records if "layers" in r), None)
    jobs = [r for r in records if "job" in r]
    first = {}
    failures = []
    for rec in jobs:
        if not rec["ok"]:
            reason = rec.get("error", "wrong verdict")
        else:
            ref = first.setdefault(rec["job"], rec)
            if rec["digest"] != ref["digest"]:
                reason = "report bytes differ from the first pass"
            elif rec["counters"] != ref["counters"]:
                reason = "counters differ from the first pass"
            elif rec["job"] in expected_digests and \
                    rec["digest"] != expected_digests[rec["job"]]:
                reason = "report bytes differ from the recorded digest"
            elif rec["job"] in seed_free_digests and \
                    rec["seed_free"] != seed_free_digests[rec["job"]]:
                reason = "report differs from the recorded seed-free digest"
            else:
                continue
        failures.append({"pass": rec["pass"], "job": rec["job"],
                         "reason": reason})
    unfinished = 0
    if done is None:
        last = max((r["pass"] for r in jobs), default=None)
        in_last = sum(1 for r in jobs if r["pass"] == last)
        unfinished = len(plan) - in_last if in_last else len(plan)
    return {"plan": plan, "jobs": jobs, "failures": failures,
            "unfinished": unfinished, "done": done, "layers": layers,
            "capped": capped}


def local_samples(recs, i):
    """Speed samples of job record i, and of its neighbours in run order,
    nearest first, until there are JOB_SAMPLES of them: the machine's
    speed drifts within seconds, so a short job is judged by the samples
    around it."""
    samples = list(recs[i]["probe_s"])
    lo = hi = i
    while len(samples) < JOB_SAMPLES and (lo > 0 or hi < len(recs) - 1):
        if lo > 0:
            lo -= 1
            samples += recs[lo]["probe_s"]
        if hi < len(recs) - 1:
            hi += 1
            samples += recs[hi]["probe_s"]
    return samples


def pass_times(jobs, plan):
    """Job seconds of each untraced pass at the reference speed
    (benchmark/speed.py); complete passes when there are any, else
    whatever finished."""
    recs = [r for r in jobs if not r["traced"] and "s" in r]
    by_pass = {}
    for i, rec in enumerate(recs):
        probe_s = speed.typical(local_samples(recs, i))
        by_pass.setdefault(rec["pass"], []).append(
            speed.scale(rec["s"], probe_s))
    complete = [t for t in by_pass.values() if len(t) == len(plan)]
    return complete or list(by_pass.values())


def end_to_end(checked, setup):
    passes = pass_times(checked["jobs"], checked["plan"]) or [[0.0]]
    median = statistics.median
    rss_kb = checked["done"]["peak_rss_kb"] if checked["done"] else 0
    return {
        "wall_s": (median(sum(t) for t in passes), "s"),
        "job_p50_s": (median(median(t) for t in passes), "s"),
        "job_max_s": (median(max(t) for t in passes), "s"),
        "setup_s": (median(speed.scale(*probe) for probe in setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="a few cheap jobs per workload, for the "
                             "benchmark's own test; skips recorded digests")
    args = parser.parse_args(argv)
    # a terminated run still kills its workload process (see run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("src/hhglab/cli.py", "structures/f2xz.json",
                 "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            return fail(f"{need} not found: run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    baseline = json.loads((BENCH / "baseline.json").read_text())
    expected, seed_free = {}, {}
    if not args.small:
        seed_free = baseline["seed_free_digests"]
        if args.seed == baseline["digest_seed"]:
            expected = baseline["digests"].get(args.workload, {})

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.small:
        stem += "-small"
    started = time.time()
    # Machine speed drifts over tens of seconds, so half the set-up probes
    # run before the workload and half after it; the first one only warms
    # the file cache and is dropped.
    setup = []
    if not args.trace:
        setup = setup_probes(args.workload, args.small, SETUP_PROBES // 2 + 1)
        setup.pop(0)
    records, capped, returncode = run_worker(args, stem)
    if not args.trace:
        setup += setup_probes(args.workload, args.small, SETUP_PROBES // 2)
    checked = evaluate(records, capped, expected, seed_free)
    if checked is None:
        return fail(f"workload process exited with {returncode} before "
                    f"planning its jobs; see .bench_out/{stem}.stderr")

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        layers = checked["layers"] or {}
        metrics = {name: layers.get(name, {"value": 0, "unit": unit})
                   for name, unit in names}
    else:
        values = end_to_end(checked, setup)
        metrics = {m["name"]: {"value": values[m["name"]][0],
                               "unit": values[m["name"]][1]}
                   for m in spec["end_to_end"]}
    failed = len(checked["failures"]) + checked["unfinished"]
    attempted = len(checked["jobs"]) + checked["unfinished"]
    correct = (checked["done"] is not None and not capped and failed == 0
               and returncode == 0)
    with open(OUT / f"{stem}.result.json", "w") as fh:
        json.dump({"args": vars(args), "started": started,
                   "returncode": returncode, "setup_probes_s": setup,
                   "metrics": metrics, **checked}, fh, indent=1)
    for f in checked["failures"][:10]:
        print(f"failed: pass {f['pass']} {f['job']}: {f['reason']}",
              file=sys.stderr)
    if checked["unfinished"]:
        print(f"failed: {checked['unfinished']} jobs unfinished"
              + (f" at the {CAP_SECONDS} s cap" if capped else ""),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Summarise benchmark runs and record the baseline.

Reads the result files that benchmark/run.py leaves in .bench_out/ (full
size only) and prints, per workload and end-to-end metric, the median,
the quartiles and the spread (interquartile range over median) across
runs, and the same for the machine's speed (the typical speed sample of
each run, benchmark/speed.py).  With --write it stores that summary in
benchmark/baseline.json, together with the machine description, the
report digests of the runs at the digest seed, the seed-free digests of
certify and scan, the seed-deterministic counters and the per-layer
metrics of the traced runs.  With --second-set it stores the summary of
other runs of the same code, and how far each median moved from the
recorded one.

Usage, from the repository root:

    python3 benchmark/record.py [--seeds 0-9] [--write | --second-set]
"""

import argparse
import json
import os
import pathlib
import platform
import statistics

import speed

ROOT = pathlib.Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmark" / "baseline.json"


def load_results(seeds):
    out = []
    for path in sorted((ROOT / ".bench_out").glob("*.result.json")):
        result = json.loads(path.read_text())
        if not result["args"]["small"] and result["args"]["seed"] in seeds:
            out.append(result)
    return out


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "runs": len(values)}


def raw_wall_s(result):
    """Median over complete untraced passes of their summed job seconds."""
    by_pass = {}
    for job in result["jobs"]:
        if not job["traced"] and "s" in job:
            by_pass.setdefault(job["pass"], []).append(job["s"])
    return statistics.median(sum(t) for t in by_pass.values()
                             if len(t) == len(result["plan"]))


def summarise(results):
    by_workload = {}
    for r in results:
        if r["args"]["trace"] == 0:
            by_workload.setdefault(r["args"]["workload"], []).append(r)
    summary = {}
    for workload, runs in sorted(by_workload.items()):
        seeds = sorted(r["args"]["seed"] for r in runs)
        metrics = {name: spread([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]} if len(runs) > 1 else {}
        # the machine's speed in each run: its typical speed sample
        probe = spread([speed.typical([x for j in r["jobs"]
                                       for x in j.get("probe_s", ())])
                        for r in runs]) if len(runs) > 1 else {}
        # wall_s as measured, before run.py puts it on the reference speed
        raw = spread([raw_wall_s(r) for r in runs]) if len(runs) > 1 else {}
        summary[workload] = {"seeds": seeds, "metrics": metrics,
                             "probe_s": probe, "raw_wall_s": raw,
                             "all_correct": all(not r["failures"]
                                                and not r["unfinished"]
                                                for r in runs)}
    return summary


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default="0-9",
                        help="the runs to read, by seed: FIRST-LAST")
    parser.add_argument("--write", action="store_true",
                        help="record these runs as the baseline")
    parser.add_argument("--second-set", action="store_true",
                        help="record these runs as a second set of the "
                             "same code, with each median's shift from "
                             "the recorded one")
    args = parser.parse_args()
    results = load_results(args.seeds)
    summary = summarise(results)
    for workload, s in summary.items():
        print(f"{workload}: {len(s['seeds'])} runs, all correct: "
              f"{s['all_correct']}")
        for name, m in [("probe_s", s["probe_s"]),
                        ("raw_wall_s", s["raw_wall_s"]),
                        *s["metrics"].items()]:
            if not m:
                continue
            print(f"  {name:12s} median {m['median']:.6g}  q1 {m['q1']:.6g}"
                  f"  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
    baseline = json.loads(BASELINE.read_text())
    if args.second_set:
        recorded = baseline["end_to_end"]
        baseline["second_set"] = {
            "seeds": [args.seeds.start, args.seeds.stop - 1],
            "metrics": {w: {name: {"median": m["median"],
                                   "spread": m["spread"],
                                   "vs_end_to_end": m["median"] / recorded[
                                       w]["metrics"][name]["median"] - 1}
                            for name, m in s["metrics"].items()}
                        for w, s in summary.items()}}
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True)
                            + "\n")
    if not args.write:
        return
    seed = baseline["digest_seed"]
    digests, seed_free, counters, layers = {}, {}, {}, {}
    for r in results:
        workload = r["args"]["workload"]
        for job in r["jobs"]:
            if job.get("seed_free"):
                if seed_free.setdefault(job["job"], job["seed_free"]) != \
                        job["seed_free"]:
                    raise SystemExit(f"{job['job']}: seed-free digest "
                                     f"differs between runs")
            if r["args"]["seed"] == seed and "digest" in job:
                digests.setdefault(workload, {})[job["job"]] = job["digest"]
                counters.setdefault(workload, {})[job["job"]] = job["counters"]
        if r["args"]["trace"] == 1 and r["args"]["seed"] == seed:
            layers[workload] = {k: v["value"] for k, v in r["metrics"].items()}
    baseline.update({
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "cpu": cpu_model(),
                    "reference_probe_s": speed.REFERENCE_PROBE_S},
        "end_to_end": summary,
        "digests": digests,
        "seed_free_digests": seed_free,
        "counters": counters,
        "per_layer": layers,
    })
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

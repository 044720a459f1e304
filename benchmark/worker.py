"""One workload in one fresh single-threaded process.

Runs passes over the workload's job list, one job at a time (a closed loop
with one client), and appends one JSON line per finished job to the
progress file, so a run killed at its wall-clock cap still shows which
jobs finished.  Timed passes run under the speed probe of
benchmark/speed.py: each job's seconds leave out the probe's own time,
and its record carries the speed samples taken while it ran (at least
one).  With --trace 1 it runs one untraced pass and then one traced pass,
and writes the per-layer metrics and the spans.

Run through benchmark/run.py, which sets the cap and reads the progress.
"""

import argparse
import gc
import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402


class Runner:
    """Executes jobs; library-job inputs are prepared before timing."""

    def __init__(self, jobs, out_path, small):
        import hhglab.cli
        from hhglab.balls import symmetrize
        from hhglab.builders import load_structure

        self.cli = hhglab.cli
        self.out_path = out_path
        self.small = small
        self.probe = None  # a running speed.SpeedProbe, in timed passes
        if any(job["kind"] != "cli" for job in jobs):
            self.f2xz = load_structure(workloads.structure_path("f2xz"))
            consts = self.f2xz.constants
            self.theta = consts.theta_of(consts.kappa1)
        self.tau0_inputs = {}
        for job in jobs:
            if job["kind"] == "tau0":
                st = load_structure(workloads.structure_path(job["name"]))
                gens = symmetrize(st.group, st.group.generators())
                self.tau0_inputs[job["name"]] = (st, gens)

    def _timed(self, call, arg):
        """(call(arg), its seconds less the speed probe's share)."""
        spent = self.probe.spent if self.probe else 0.0
        start = time.perf_counter()
        result = call(arg)
        seconds = time.perf_counter() - start
        if self.probe:
            seconds -= self.probe.spent - spent
        return result, seconds

    def run(self, job, tracer=None):
        """(seconds, ok, digest, seed-free digest, counters)."""
        kind = job["kind"]
        if kind == "cli":
            argv = job["argv"] + ["--out", self.out_path]
            # a job that writes no report must not be judged on the last one
            pathlib.Path(self.out_path).unlink(missing_ok=True)
            rc, seconds = self._timed(self.cli.main, argv)
            with open(self.out_path, "rb") as fh:
                data = fh.read()
            ok, counters = workloads.check_cli(job, rc, data, self.small)
            if tracer is not None:
                tracer.counts["cli.report_bytes"] += len(data)
                for key, value in counters.items():
                    if key.startswith("axioms."):
                        tracer.counts[key] += value
            seed_free = (workloads.seed_free_digest(job["argv"], data)
                         if job["argv"][0] in workloads.SEED_FREE_COMMANDS
                         else None)
            return seconds, ok, workloads.sha256(data), seed_free, counters
        (ok, payload), seconds = self._timed(getattr(self, "_" + kind), job)
        data = json.dumps(payload, sort_keys=True).encode()
        return seconds, ok, workloads.sha256(data), None, {}

    def _realize(self, job):
        from hhglab.coords import project_tuple, realize

        g = tuple(job["g"])
        res = realize(self.f2xz, project_tuple(self.f2xz, g), search_radius=6)
        ok = g in res.elements and res.diameter <= self.theta
        return ok, res.to_json(self.f2xz.group)

    def _big_set(self, job):
        from hhglab.classify import big_set

        st, model = self.f2xz, self.f2xz.group
        g, h = tuple(job["g"]), tuple(job["h"])
        base = big_set(st, g)
        conj = big_set(st, model.conjugate(h, g))
        powers = [big_set(st, model.power(g, n)).domains for n in (2, 3, 4)]
        ok = (conj.domains == sorted(st.act_on_domain(h, u)
                                     for u in base.domains)
              and all(p == base.domains for p in powers))
        return ok, {"big": base.to_json(model), "conjugate": conj.domains,
                    "powers": powers}

    def _tau0(self, job):
        from hhglab.classify import tau0_floor_check

        floor = tau0_floor_check(*self.tau0_inputs[job["name"]])
        return floor == 1.0, floor


def run_pass(runner, jobs, number, progress, tracer=None):
    gc.collect()
    total = 0.0
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        record = {"pass": number, "traced": tracer is not None,
                  "job": job["id"]}
        probe = runner.probe
        first_sample = len(probe.samples) if probe else 0
        try:
            seconds, ok, digest, seed_free, counters = runner.run(job, tracer)
            record.update(s=seconds, ok=ok, digest=digest,
                          seed_free=seed_free, counters=counters)
            total += seconds
        except Exception as err:  # a job that raises is a failed job
            record.update(ok=False, error=f"{type(err).__name__}: {err}")
        if probe:
            if len(probe.samples) == first_sample:
                probe.tick()  # every timed job carries a speed sample
            record["probe_s"] = [s for _, s in probe.samples[first_sample:]]
        progress.write(json.dumps(record) + "\n")
        progress.flush()
    return total


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--progress", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    import hhglab
    if pathlib.Path(hhglab.__file__).resolve().parent != ROOT / "src" / "hhglab":
        raise SystemExit(f"hhglab imported from {hhglab.__file__}, "
                         f"not from {ROOT / 'src'}")
    jobs = workloads.build_jobs(args.workload, args.seed, args.small)
    out_path = str(pathlib.Path(args.progress).with_suffix(".report"))
    runner = Runner(jobs, out_path, args.small)
    with open(args.progress, "w") as progress:
        progress.write(json.dumps({"plan": [j["id"] for j in jobs]}) + "\n")
        progress.flush()
        if args.trace:
            from tracing import Tracer

            untraced = run_pass(runner, jobs, 0, progress)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(runner, jobs, 1, progress, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(args.spans)
            layers = tracer.layer_metrics(traced, untraced)
            progress.write(json.dumps({"layers": layers}) + "\n")
        else:
            start = time.perf_counter()
            longest = 0.0
            number = 0
            with speed.SpeedProbe() as runner.probe:
                while True:
                    pass_start = time.perf_counter()
                    run_pass(runner, jobs, number, progress)
                    if number == 0:
                        # later passes only add allocator fragmentation
                        rss_kb = resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss
                    number += 1
                    now = time.perf_counter()
                    longest = max(longest, now - pass_start)
                    # start a pass only when it should end within the budget
                    if now - start + longest > args.seconds:
                        break
            runner.probe = None
        if args.trace:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        progress.write(json.dumps({"done": True, "peak_rss_kb": rss_kb}) + "\n")
    pathlib.Path(out_path).unlink(missing_ok=True)


if __name__ == "__main__":
    main()

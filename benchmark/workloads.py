"""Job lists and output checks for the three benchmark workloads.

A job is one call of ``hhglab.cli.main`` with ``--out`` to a report file,
or one call of a named library function.  Job lists are built from the
workload seed before any timing starts; catalog jobs with no sampled part
are fixed and only take the seed as their ``--seed``, and check jobs run
at CHECK_SEED.

Every check below holds for any workload seed.
"""

import csv
import hashlib
import io
import json
import random

# certify: criterion 7's set plus f2freez, standard generators.
CERTIFY_JOBS = (("free2", "a,b", 7), ("z2", "a,b", 6), ("f2xz", "a,b,t", 6),
                ("f2freez", "a,b,c", 6), ("f2xf2", "a,b,c,d", 6))
CERTIFY_JOBS_SMALL = CERTIFY_JOBS[:2]

SCAN_ARGS = ("--scan-size", "2", "--scan-length", "2")
SCAN_ARGS_SMALL = ("--scan-size", "2", "--scan-length", "1", "--growth-n", "6")
SCAN_ROWS = {False: 9, True: 1}

STANDARD = ("free2", "z1", "z2", "f2xz", "f2xf2", "f2freez")

# check verdicts at CHECK_SEED: the failed axioms and the failed
# structural-validator rules.  The axiom-8 failures of bad-orth-in-line and
# swapline come from the sampled realization search and vary with the seed.
CHECK_EXPECT = {name: ((), ()) for name in STANDARD}
CHECK_EXPECT.update({
    "f2xz-corrupt-rho": ((4,), ()),
    "f2xz-corrupt-lipschitz": ((1,), ()),
    "f2xz-corrupt-uniqueness": ((9,), ()),
    "bad-orth-closure": ((3, 9), ()),
    "bad-nest-in-line": ((), (2,)),
    "bad-orth-in-line": ((8,), (1, 2)),
    "bad-transverse-invariant": ((2,), (3,)),
    "swapline": ((8,), ()),
})
CHECK_SMALL = ("z1", "z2", "swapline", "bad-orth-closure",
               "f2xz-corrupt-uniqueness")

# The checker samples pairs and domains from its --seed, and which domains
# it samples moves the f2freez check between about 5 and 9 seconds: a
# spread across seeds wider than any regression bound.  So check jobs use
# one fixed seed; the other geometry jobs take their inputs from the
# workload seed.
CHECK_SEED = 0

# reports of these commands do not depend on the workload seed apart from
# their seed field, so they are compared with recorded digests at any seed
SEED_FREE_COMMANDS = ("certify", "scan", "check")

N_REALIZE = {False: 30, True: 3}
N_BIG_SET = {False: 12, True: 3}
TAU0_SMALL = ("z1", "z2")


def structure_path(name):
    return f"structures/{name}.json"


def named_structures(workload, small=False):
    """Structure files a workload loads; `setup_s` loads each once."""
    if workload == "certify":
        names = [name for name, _, _ in
                 (CERTIFY_JOBS_SMALL if small else CERTIFY_JOBS)]
    elif workload == "scan":
        names = ["free2"]
    else:
        names = sorted({*(CHECK_SMALL if small else CHECK_EXPECT), "f2xz",
                        *(TAU0_SMALL if small else STANDARD)})
    return [structure_path(name) for name in names]


def cli_job(job_id, argv):
    return {"id": job_id, "kind": "cli", "argv": list(argv)}


def build_jobs(workload, seed, small=False):
    """The job list of one pass.  Needs hhglab importable for `geometry`,
    whose elements are sampled from Cayley balls."""
    if workload == "certify":
        return [cli_job(f"certify:{name}",
                        ["certify", structure_path(name), "--genset", gens,
                         "--depth", str(depth), "--seed", str(seed)])
                for name, gens, depth in
                (CERTIFY_JOBS_SMALL if small else CERTIFY_JOBS)]
    if workload == "scan":
        return [cli_job("scan:free2",
                        ["scan", structure_path("free2"), "--seed", str(seed),
                         *(SCAN_ARGS_SMALL if small else SCAN_ARGS)])]
    if workload == "geometry":
        return _geometry_jobs(seed, small)
    raise ValueError(f"unknown workload {workload!r}")


def _random_word(model, rnd, letters, max_len):
    w = model.parse("1")
    for _ in range(rnd.randrange(1, max_len + 1)):
        w = model.multiply(w, rnd.choice(letters))
    return w


def _geometry_jobs(seed, small):
    from hhglab.balls import ball_elements, cayley_ball_layers, symmetrize
    from hhglab.builders import load_structure

    names = CHECK_SMALL if small else sorted(CHECK_EXPECT)
    jobs = [cli_job(f"check:{name}",
                    ["check", structure_path(name), "--max-pairs", "500",
                     "--seed", str(CHECK_SEED)])
            for name in names]
    jobs.append(cli_job("distance:f2xz",
                        ["distance", structure_path("f2xz"),
                         "--seed", str(seed)]))
    model = load_structure(structure_path("f2xz")).group
    letters = symmetrize(model, model.generators())
    rnd = random.Random(seed)
    ball = sorted(ball_elements(cayley_ball_layers(model, letters, 6)))
    for i, g in enumerate(rnd.sample(ball, N_REALIZE[small])):
        jobs.append({"id": f"realize:{i}", "kind": "realize", "g": list(g)})
    samples = []
    while len(samples) < N_BIG_SET[small]:
        g = _random_word(model, rnd, letters, 4)
        h = _random_word(model, rnd, letters, 4)
        if g != model.parse("1"):
            samples.append((g, h))
    for i, (g, h) in enumerate(samples):
        jobs.append({"id": f"big_set:{i}", "kind": "big_set",
                     "g": list(g), "h": list(h)})
    for name in (TAU0_SMALL if small else STANDARD):
        jobs.append({"id": f"tau0:{name}", "kind": "tau0", "name": name})
    return jobs


# ---------------------------------------------------------------------------
# output checks


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def seed_free_digest(argv, data):
    """Digest of a CLI report of SEED_FREE_COMMANDS with its seed field
    left out: the same for every workload seed."""
    if argv[0] == "scan":
        header, rows = data.split(b"\n", 1)
        return sha256(header.rsplit(b" seed=", 1)[0] + b"\n" + rows)
    doc = json.loads(data)
    doc.pop("seed")
    return sha256(json.dumps(doc, sort_keys=True).encode())


def check_cli(job, rc, data, small):
    """(ok, counters) for a CLI job's exit code and report bytes."""
    command = job["argv"][0]
    name = job["id"].split(":", 1)[1]
    if command == "scan":
        return _scan_ok(rc, data, small)
    doc = json.loads(data)["report"]
    if command == "certify":
        return _certify_ok(name, rc, doc)
    if command == "check":
        return _check_ok(name, rc, doc)
    fit_ok = rc == 0 and doc["ok"] and doc["K"] <= 1.5 and doc["C"] <= 2.0
    return fit_ok, {"n_samples": doc["n_samples"]}


def _certify_ok(name, rc, cert):
    growth = cert["evidence"].get("growth_check")
    counters = {"verified_depth": cert["verified_depth"],
                "growth_rows": len(growth["rows"]) if growth else 0}
    variant = cert["variant"]
    if name == "free2":
        ok = (variant == "free-subgroup" and cert["verified_depth"] == 7
              and max(cert["lengths"]) <= cert["x_length_bound"])
    elif name == "z2":
        ok = variant == "virtually-abelian"
    elif name == "f2freez":
        ok = variant == "free-subgroup" and cert["verified_depth"] == 6
    else:
        ok = (variant == "free-semigroup" and growth is not None
              and growth["ok"]
              and growth["n_max"] >= 3 * max(cert["lengths"]))
        if name == "f2xf2":
            ok = (ok and cert["evidence"]["route"]["case"] == 2
                  and cert["evidence"]["mover"] == "b")
    return rc == 0 and ok, counters


def _check_ok(name, rc, doc):
    want_axioms, want_rules = CHECK_EXPECT[name]
    failed = tuple(doc["axioms"]["failed_axioms"])
    rules = tuple(sorted({f["rule"] for f in doc["validators"]["failures"]}))
    witnessed = all(a["witness"] for a in doc["axioms"]["axioms"]
                    if not a["passed"])
    ok = (failed == want_axioms and rules == want_rules and witnessed
          and rc == (0 if doc["passed"] else 1)
          and doc["passed"] == (not failed and not rules))
    counters = {f"axioms.a{a['index']}.checks": a["checks"]
                for a in doc["axioms"]["axioms"]}
    counters["validators.checks"] = doc["validators"]["checks"]
    return ok, counters


def _scan_ok(rc, data, small):
    lines = data.decode().splitlines()
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:-1]))))
    summary = lines[-1].split(",")
    ok = (rc == 0 and len(rows) == SCAN_ROWS[small]
          and summary[1:3] == [f"rows={len(rows)}", "errors=0"]
          and all(r["variant"] == "free-subgroup"
                  and r["meets_master_bound"] == "true" and not r["error"]
                  for r in rows))
    return ok, {"rows": len(rows)}

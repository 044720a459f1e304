"""Print one digest line per command of the reachability sweep, and one
per report of its library calls.

Runs every argv of ``reachability.commands()`` as ``python3 -m hhglab``
from the repo root, with the structure paths made relative (a report's
``structure_source`` holds the path as given, so absolute paths would
differ between checkouts), and prints for each: the exit code, the
sha256 of stdout, of stderr and of the ``--out`` report ("-" when none
was written), and the argv.  Then, for each report of
``reachability.geometry_jobs()`` (realize and big_set JSON, tau0 floors),
it prints the sha256 of its sorted-key JSON and the job.

Two checkouts keep every report byte when the outputs of this script,
run in each, do not differ:

    python3 scripts/report_digests.py > after.txt
    diff before.txt after.txt

Takes no options; standard library only.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import reachability  # noqa: E402


def sha(data):
    return hashlib.sha256(data).hexdigest()


def main():
    os.chdir(ROOT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prefix = str(ROOT) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report"
        for argv in reachability.commands():
            argv = [a[len(prefix):] if a.startswith(prefix) else a for a in argv]
            out.unlink(missing_ok=True)
            run = subprocess.run([sys.executable, "-m", "hhglab", *argv, "--out", str(out)],
                                 capture_output=True, env=env)
            report = sha(out.read_bytes()) if out.exists() else "-"
            print(run.returncode, sha(run.stdout), sha(run.stderr), report, " ".join(argv),
                  flush=True)
    for job, doc in reachability.geometry_jobs():
        print(sha(json.dumps(doc, sort_keys=True).encode()), job, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

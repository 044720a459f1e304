"""Set-up time in a fresh process: import the package the way the CLI does
and load every structure file named on the command line, under the speed
probe of benchmark/speed.py.  Prints the set-up seconds, less the probe's
own time, and the typical speed sample taken during set-up.

Usage, from the repository root: python3 benchmark/setup_probe.py FILE...
"""

import sys
import time

sys.path.insert(0, "benchmark")
import speed  # noqa: E402  (imports only gc, signal and time)

# set-up takes about a tenth of a second: sample it about ten times
INTERVAL_S = 0.01

with speed.SpeedProbe(INTERVAL_S) as probe:
    start = time.perf_counter()
    sys.path.insert(0, "src")

    from hhglab.builders import load_structure  # noqa: E402
    import hhglab.cli  # noqa: E402,F401  (imports every module the CLI uses)

    for path in sys.argv[1:]:
        load_structure(path)
    seconds = time.perf_counter() - start - probe.spent
if not probe.samples:
    probe.tick()
print(seconds, speed.typical([s for _, s in probe.samples]))

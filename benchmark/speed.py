"""Machine-speed probe: puts measured seconds on one reference speed.

The benchmark's host gives it a share of a shared CPU, and the speed of
that share drifts: the same pure-Python loop runs anywhere from 1x to 2x
its fastest time, in bursts of a fraction of a second and in drifts over
minutes.  Raw wall times then spread across runs by more than any useful
regression bound.

`SpeedProbe` samples the machine while a workload runs: a wall-clock
timer interrupts the workload every PROBE_INTERVAL_S and times KERNEL_REPS
runs of a fixed pure-Python kernel (tuples, a dict and a list, the
operations hhglab's word code spends its time on, with no import of
hhglab, so a change to the program cannot change the probe).  The
probe's own time is subtracted from the job it interrupted.  A measured
time t, taken while the kernel's median sample was p seconds, is reported
as t * REFERENCE_PROBE_S / p: the seconds the work would take on a
machine where the kernel sample takes REFERENCE_PROBE_S.  A program that
gets slower takes longer at the same probe time, so it still shows; a
machine that gets slower slows the probe too, and cancels out.
"""

import gc
import signal
import time

PROBE_INTERVAL_S = 0.025
KERNEL_REPS = 3
# median kernel sample on the baseline machine (benchmark/baseline.json);
# it only scales the reported seconds, so it is fixed once
REFERENCE_PROBE_S = 0.0012


def kernel():
    """Radius-5 ball of the free group on two letters, by breadth-first
    search over reduced words as tuples of ints: 485 words."""
    seen = {(): 0}
    frontier = [()]
    for radius in range(1, 6):
        grown = []
        for word in frontier:
            for letter in (1, -1, 2, -2):
                if word and word[-1] == -letter:
                    continue
                longer = word + (letter,)
                if longer not in seen:
                    seen[longer] = radius
                    grown.append(longer)
        frontier = grown
    return len(seen)


def sample():
    """Seconds of one probe sample, with the garbage collector held off so
    that a collection owed by the workload is not charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(KERNEL_REPS):
            kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def typical(samples):
    """The sample time that stands for a stretch of work: the mean of the
    fastest nine tenths of its samples.  The mean, because work slows in
    proportion to the time the machine spends slow, and samples fall into
    a fast and a slow group whose median jumps between them; without the
    slowest tenth, because a sample that the host pre-empted outright
    says little about the work around it."""
    samples = sorted(samples)
    kept = samples[:max(1, len(samples) * 9 // 10)]
    return sum(kept) / len(kept)


def scale(seconds, probe_s):
    """`seconds` measured at typical sample time `probe_s`, at the
    reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def warm_up():
    """Run the kernel until the interpreter has specialised it."""
    for _ in range(5):
        kernel()


class SpeedProbe:
    """Samples the machine speed every `interval` seconds of wall-clock
    time while it runs.

    `samples` holds (perf_counter at the sample, sample seconds); `spent`
    is the wall time the probe took, to subtract from the work it
    interrupted.
    """

    def __init__(self, interval=PROBE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def tick(self, *_):
        """Take one sample; the timer's signal handler."""
        start = time.perf_counter()
        self.samples.append((start, sample()))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        warm_up()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

"""Host-speed normalization of measured times.

The benchmark runs on a virtual machine whose vCPUs are shared with
other tenants.  Two things disturb its timings.  The vCPU is paused
for 10 to 30 ms at a time while another tenant runs (steal time, about
7% of wall time); and the speed of the host swings by up to 1.7x over
phases of several seconds to minutes, flickering from one tenth of a
second to the next in its fast phases.  A slow phase can cover a whole
run or a whole set of runs, so no choice among a run's own samples can
remove it.

Every time is therefore the thread's CPU time, which a pause does not
advance, scaled for the host's speed.  A fixed reference computation,
made of the benchmark's own code and independent of the program, is
timed every `INTERVAL_S` of CPU time while a pass runs, from a SIGPROF
handler, so that long operations are sampled while they run.  The time
the samples take is taken out of the operations they interrupt.  The
speed factor of a sample is `REF_S / r`, where `r` is its time; an
operation's time is its CPU time, less the samples inside it, times
the mean factor of the samples inside it and of the nearest sample on
either side.  A scaled time is the CPU time the operation would take
on a host on which the reference takes `REF_S`: a change in the
program moves it, a change in the host's speed does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import oracle

# the reference computation's time at the host speed all times are
# scaled to: about its time in the slow phase of the 2-vCPU host the
# README describes
REF_S = 0.003
# CPU time between the starts of two reference samples
INTERVAL_S = 0.05
REF_REPEATS = 4


def _lukasiewicz(n: int) -> oracle.Raw:
    """The n-element Łukasiewicz chain, a CL-algebra with every scan run in full."""
    top = n - 1
    return oracle.Raw(
        "reference", tuple(f"r{i}" for i in range(n)), tuple((i, i + 1) for i in range(top)),
        tuple(tuple(max(0, x + y - top) for y in range(n)) for x in range(n)),
        tuple(tuple(min(top, top - x + y) for y in range(n)) for x in range(n)), 0, 0, top)


def reference() -> None:
    """The fixed computation whose time stands for the host's speed."""
    for _ in range(REF_REPEATS):
        raw = _lukasiewicz(6)
        if not oracle.is_cl_algebra(raw):
            raise AssertionError("reference algebra fails an axiom")
        for ideal in oracle.ideals(raw):
            oracle.congruence_classes(raw, ideal)


class Speed:
    """Reference samples over one pass, and the scaling they give.

    Used as a context manager around the timed part of a pass: it
    samples on entry and on exit and, with `timer`, every INTERVAL_S in
    between.  Without `timer` (traced passes, whose spans must not
    contain samples) the pass is scaled by its first and last samples.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.begin: list[float] = []  # start of each sample
        self.end: list[float] = []  # end of each sample
        self.busy = False
        self.previous = None

    def sample(self, *_signal) -> None:
        if self.busy:  # a signal that arrived during a sample
            return
        self.busy = True
        try:
            t0 = time.thread_time()
            reference()
            t1 = time.thread_time()
        finally:
            self.busy = False
        self.begin.append(t0)
        self.end.append(t1)

    def __enter__(self) -> "Speed":
        self.sample()
        if self.timer:
            self.previous = signal.signal(signal.SIGPROF, self.sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self.previous)
        self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """The time from t0 to t1, less samples, scaled to the reference host speed."""
        lo = bisect.bisect_right(self.end, t0)  # first sample ending after t0
        hi = bisect.bisect_left(self.begin, t1)  # first sample starting at or after t1
        net = (t1 - t0) - sum(min(t1, self.end[k]) - max(t0, self.begin[k])
                              for k in range(lo, hi))
        near = range(max(lo - 1, 0), min(hi + 1, len(self.begin)))
        return net * statistics.fmean(REF_S / (self.end[k] - self.begin[k]) for k in near)

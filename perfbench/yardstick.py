"""A fixed yardstick that scales the end-to-end times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
25-40% over minutes: the same pass over the same code took 21 s in one run
and 13 s three runs later, with CPU time drifting along with wall time.
Ten runs of a workload span such drifts, so raw times of the same code
spread past any useful bound.

The yardstick is a frozen piece of the same kind of work the library does:
it composes rook diagrams on 2n points by union-find, canonicalises each
product and tallies it in a dict, with a little rational arithmetic.  It
never calls the library, so a change to the library cannot move it.

While a run's jobs execute, a timer interrupts them about every
``INTERVAL_S`` seconds to time one probe of the kernel, with the cyclic
garbage collector paused so that the probe never pays for collecting the
library's objects.  A job's measured time, less the probes inside it, is
scaled by ``REF_S / mean probe time`` over the probes in and around it:
seconds on a host on which a probe takes ``REF_S``.  Slower library code
raises the result in full; a slower host slows the probes in step and
cancels out.  Probes timed between jobs instead tracked the host too
loosely to help: its speed changes within seconds.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction
from itertools import combinations, permutations

# mean probe time on the reference host: 2 vCPUs of a shared Intel Xeon
# virtual machine, CPython 3.11.7
REF_S = 0.0035
INTERVAL_S = 0.1
# a job's host speed is read from the probes this close to either end of it
WINDOW_S = 1.0
# probes taken back to back when sampling stops, so the last job has some after it
EDGE_PROBES = 10
N = 4
# diagrams composed with all 209 per probe
ROWS = 1


def _canon(labels) -> tuple[int, ...]:
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def rook_diagrams(n: int) -> list[tuple[int, ...]]:
    """Every rook diagram on n top and n bottom points, as block labels."""
    out = []
    for k in range(n + 1):
        for tops in combinations(range(n), k):
            for bots in permutations(range(n), k):
                labels = list(range(2 * n))
                for t, b in zip(tops, bots):
                    labels[n + b] = t
                out.append(_canon(labels))
    return out


def compose(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """a over b: a's bottom row glued to b's top row.  Returns the product's
    canonical labels and the number of closed middle components."""
    parent = list(range(3 * n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for offset, labels in ((0, a), (n, b)):
        first: dict[int, int] = {}
        for i, block in enumerate(labels):
            if block in first:
                ra, rb = find(first[block]), find(i + offset)
                if ra != rb:
                    parent[rb] = ra
            else:
                first[block] = i + offset
    outer = [find(i) for i in range(n)] + [find(2 * n + i) for i in range(n)]
    middles = {find(n + i) for i in range(n)} - set(outer)
    return _canon(outer), len(middles)


def kernel(diagrams: list[tuple[int, ...]], rows: int) -> int:
    """Compose the first ``rows`` diagrams with every diagram."""
    tally: dict[tuple[int, ...], int] = {}
    weight = Fraction(0)
    for a in diagrams[:rows]:
        for b in diagrams:
            product, loops = compose(a, b, N)
            tally[product] = tally.get(product, 0) + 1
            weight += Fraction(1, loops + 2)
    return len(tally)


class Yardstick:
    """Probe times on a timeline, and the scale factors they give."""

    def __init__(self) -> None:
        self.diagrams = rook_diagrams(N)
        self.starts = array("d")
        self.walls = array("d")
        self.cpus = array("d")
        self._busy = False
        self._previous = None
        kernel(self.diagrams, ROWS)  # warm-up

    def probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            kernel(self.diagrams, ROWS)
            t1, c1 = time.perf_counter(), time.process_time()
            self.starts.append(t0)
            self.walls.append(t1 - t0)
            self.cpus.append(c1 - c0)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        for _ in range(EDGE_PROBES):
            self.probe()

    def inside(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU time of the probes that ran within [t0, t1]."""
        wall = cpu = 0.0
        for s, w, c in zip(self.starts, self.walls, self.cpus):
            if t0 <= s and s + w <= t1:
                wall += w
                cpu += c
        return wall, cpu

    def factors(self, t0: float, t1: float) -> tuple[float, float]:
        """Scale factors for wall and CPU time from the probes within
        WINDOW_S of [t0, t1].  The mean, not the median: the timer samples
        the run evenly in wall time, so the mean probe time carries the
        time the host took the CPU away in the same proportion as the job."""
        near = [(w, c) for s, w, c in zip(self.starts, self.walls, self.cpus)
                if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        if not near:
            raise RuntimeError(f"no yardstick probe near [{t0:.3f}, {t1:.3f}]")
        return (REF_S / statistics.fmean(w for w, _ in near),
                REF_S / statistics.fmean(c for _, c in near))

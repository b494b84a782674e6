"""Host speed probe: fixed pieces of the benchmark's own work, timed
between operations, so that timings can be corrected for the host's drift.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-20 % over tens of seconds, far more than the program changes it is
meant to resolve, and the drift moves consecutive passes together.  A run
therefore probes the host at most once per :data:`PROBE_EVERY_S`, between
timed operations and never inside one, and divides its timings by the
probe's :meth:`HostProbe.correction`.

The drift shows in two costs that the workloads feel in different mixes:
computing (row sorts in NumPy, CSV-style parsing and formatting in
Python) and faulting in fresh memory (each CLI command is a new process,
each wide array a new mapping).  A probe times one piece of each, and the
slowdown is the geometric mean of their medians over their nominal
values.  The probe calls no library code, so a change to the library
cannot move it.
"""

from __future__ import annotations

import math
import mmap
import statistics
import time

import numpy as np

#: Medians of :func:`compute_work` and :func:`memory_work` on the host the
#: bounds were set on (one core of an Intel Xeon, Python 3.11, NumPy 2.4).
NOMINAL_COMPUTE_S = 0.048
NOMINAL_MEMORY_S = 0.034
#: Least time between two probes.
PROBE_EVERY_S = 1.0
#: Timings are divided by the slowdown to this power.  Most workloads feel
#: the host less than the probe does: in four sets of runs the slope of a
#: run's log timing on its log slowdown was 0.0-1.1 for csv-pipeline,
#: -0.2-0.8 for sweep-bootstrap and 0.8-1.6 for rules-wide, and of the
#: exponents 0.5, 0.75 and 1, this one gave the smallest worst spread.
CORRECTION_EXPONENT = 0.75
#: :func:`memory_work` faults in this many fresh mappings of this size:
#: 48 MB of pages, while the process grows by at most 2 MB, so that the
#: probe does not move any peak resident memory the benchmark reports.
FRESH_MAPPINGS = 24
FRESH_BYTES = 2 << 20


def probe_inputs():
    """Fixed inputs of :func:`compute_work`, the same on every run."""
    rng = np.random.default_rng(0)
    matrix = rng.random((200, 1000))
    lines = [",".join(f"{v:.6g}" for v in row) for row in rng.random((500, 100))]
    return matrix, lines


def compute_work(matrix, lines) -> int:
    """Sort every row, parse the lines as CSV and format them again."""
    for _ in range(10):
        np.sort(matrix, axis=1)
    values = [float(x) for line in lines for x in line.split(",")]
    text = ",".join(f"{v:.6g}" for v in values)
    return len(text)


def memory_work() -> int:
    """Write one byte to every page of fresh anonymous mappings, so that
    every page is faulted in, and unmap each before the next."""
    touched = 0
    for _ in range(FRESH_MAPPINGS):
        with mmap.mmap(-1, FRESH_BYTES) as fresh:
            pages = np.frombuffer(fresh, dtype=np.uint8)
            pages[:: mmap.PAGESIZE] = 1
            touched += int(pages[0])
            del pages
    return touched


class HostProbe:
    """Probe samples of one run, as (compute seconds, memory seconds).
    :meth:`between_ops` is called after each timed operation; it probes
    when :data:`PROBE_EVERY_S` has passed since the last probe."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._inputs = probe_inputs()
        self._last = -math.inf
        compute_work(*self._inputs)  # warm-up, not recorded
        memory_work()

    def between_ops(self) -> None:
        start = time.perf_counter()
        if start - self._last < PROBE_EVERY_S:
            return
        compute_work(*self._inputs)
        middle = time.perf_counter()
        memory_work()
        self._last = time.perf_counter()
        self.samples.append((middle - start, self._last - middle))

    def medians(self) -> tuple[float, float]:
        """Median compute and memory seconds (the nominal ones without
        samples)."""
        if not self.samples:
            return NOMINAL_COMPUTE_S, NOMINAL_MEMORY_S
        return (statistics.median(s[0] for s in self.samples),
                statistics.median(s[1] for s in self.samples))

    def slowdown(self) -> float:
        """Geometric mean of the median compute and memory times over
        their nominal ones."""
        compute, memory = self.medians()
        return math.sqrt(compute / NOMINAL_COMPUTE_S * memory / NOMINAL_MEMORY_S)

    def correction(self) -> float:
        """What the run's timings are divided by (its rates multiplied)."""
        return self.slowdown() ** CORRECTION_EXPONENT

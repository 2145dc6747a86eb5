"""The host's speed, measured next to the items of a run.

The benchmark's host is a share of a machine whose speed drifts by tens
of percent over seconds and minutes, whatever runs on it.  A run times
two fixed reference tasks, which use nothing of conet, after each item
(and once before the first): exact elimination over the rationals, the
kind of work conet's items spend most of their time in, and dictionary
and sorting work on scattered memory, which follows the memory side of
the host's drift.  An item's time t is reported as t * REFERENCE_S / r,
where r is the geometric mean of the two tasks' median times over the
probes from just before the previous item to just after the next one:
the time the item would have taken on a host where r is REFERENCE_S.
Host drift moves t and r together and cancels; a change to conet moves t
only.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from fractions import Fraction

PROBE = 2  # runs of each reference task after each interval
WINDOW = 1  # intervals on each side whose probes also scale an interval
# r on the 2-vCPU host the bounds were tuned on (Python 3.11); it only
# fixes the scale of the reported times
REFERENCE_S = 0.003

_MATRIX = [[Fraction((7 * i + 3 * j * j + 5) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(9)]
           for i in range(8)]
_rng = random.Random(2110)
_SCATTERED = [_rng.random() for _ in range(200_000)]
_PICKS = [_rng.randrange(len(_SCATTERED)) for _ in range(12_000)]


def eliminate():
    """Row-reduce a fixed 8x9 rational matrix; returns its rank (8)."""
    rows = [row[:] for row in _MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def scatter():
    """Index a fixed set of floats scattered over a few megabytes, then
    sort them; returns how many are distinct."""
    index = {}
    for i in _PICKS:
        index[_SCATTERED[i]] = i
    return len(sorted(index))


TASKS = (eliminate, scatter)
_ANSWERS = (8, len(set(_PICKS)))


def _time(task, answer):
    # without the collector, the time does not depend on conet's heap
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = task()
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    if result != answer:
        raise RuntimeError(f"reference task {task.__name__} gave a wrong answer")
    return dt


class HostSpeed:
    """Probes the host on creation and after every interval `add`ed;
    `scaled` gives an interval at the reference speed."""

    def __init__(self):
        self.intervals = []
        self.probes = [self._probe()]  # probes[j + 1] follows interval j

    def _probe(self):
        return [[_time(task, answer) for _ in range(PROBE)] for task, answer in zip(TASKS, _ANSWERS)]

    def add(self, seconds):
        """Record an interval that has just ended; returns its index."""
        self.intervals.append(seconds)
        self.probes.append(self._probe())
        return len(self.intervals) - 1

    def speed(self, j):
        """r for interval j, over the probes from WINDOW intervals before
        it to WINDOW intervals after it."""
        near = self.probes[max(0, j - WINDOW): j + 2 + WINDOW]
        medians = [statistics.median(t for probe in near for t in probe[k]) for k in range(len(TASKS))]
        return math.prod(medians) ** (1 / len(medians))

    def scaled(self, j):
        return self.intervals[j] * REFERENCE_S / self.speed(j)

    def median_speed(self):
        return statistics.median(self.speed(j) for j in range(len(self.intervals)))

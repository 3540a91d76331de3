"""The machine's speed, sampled between items; every reported time is scaled to it.

On a shared virtual machine the speed of pure-Python code drifts by a
quarter over minutes.  In trial runs on a 2-vCPU VM, ten 40-second
`identity` runs made one after another gave pass medians of 7.2 s for six
runs and 5.9 s for the next four; within a run, passes ranged from 5.5 to
8.6 s.  No statistic taken within one run removes a drift that outlasts
the run.

So the benchmark also times a fixed computation of its own between items,
code the library never reaches, and multiplies every reported time by
NOMINAL_TICK_S / (the run's mean tick).  A scaled time reads as seconds on
the machine the benchmark was written on, at that machine's usual speed.
A change to the library moves it as much as it moves the wall time,
because the ticks run no library code.
"""
from __future__ import annotations

import statistics
from itertools import product
from time import perf_counter

import oracle

# The tick's usual trimmed mean between items on the machine the benchmark
# was written on: a 2-vCPU Intel Xeon VM running Python 3.11.7.
NOMINAL_TICK_S = 2.5e-3
TICK_EVERY_S = 0.1  # one tick is due per TICK_EVERY_S of running time
MAX_TICKS_AT_ONCE = 3  # ticks made at one item boundary, at most


def _d_term(n: int):
    """d_n as nested (left, right) pairs over variable indices."""
    term = 0
    for k in range(1, n + 1):
        term = (((k, term), k), k)
    return term


def _evaluate(table, term, xs) -> int:
    if isinstance(term, int):
        return xs[term]
    return table[_evaluate(table, term[0], xs)][_evaluate(table, term[1], xs)]


class SpeedReference:
    """Ticks of a computation shaped like the workloads' hot loops: an
    axiom check cell by cell, modus-ponens closures on bit masks, a
    canonical form over permutations, and recursive term evaluation."""

    def __init__(self, corpus):
        antichain = next(
            p for p in corpus["posets"] if p["points"] == 4 and p["longest_chain"] == 1
        )
        self._table = oracle.upset_reduct(antichain["points"], antichain["covers"])
        self._leq = oracle.leq_from_covers(antichain["points"], antichain["covers"])
        self._small = oracle.upset_reduct(3, [])  # 8 elements
        self._d2 = _d_term(2)
        self._last = perf_counter() - TICK_EVERY_S
        self.ticks = []

    def tick_if_due(self) -> None:
        """Time the reference computation once for each TICK_EVERY_S since
        the last tick, up to MAX_TICKS_AT_ONCE times, so that a long item
        is followed by more ticks than a short one."""
        due = min(MAX_TICKS_AT_ONCE, int((perf_counter() - self._last) / TICK_EVERY_S))
        for _ in range(due):
            t0 = perf_counter()
            oracle.is_hilbert(self._table)
            for a in range(len(self._table)):
                oracle.mp_closure(self._table, 1 << a)
            oracle.poset_canonical_form(self._leq)
            for xs in product(range(len(self._small)), repeat=3):
                _evaluate(self._small, self._d2, xs)
            self._last = perf_counter()
            self.ticks.append(self._last - t0)

    def mean_tick(self) -> float:
        """The mean tick, leaving out the fastest and the slowest twentieth.

        A mean, not a median: the machine flips between its states within a
        second, so an item's time follows the share of time spent in each
        state, which the mean tracks and the median does not.
        """
        ticks = sorted(self.ticks)
        cut = len(ticks) // 20
        return statistics.fmean(ticks[cut : len(ticks) - cut])

    def scale(self) -> float:
        """The factor taking this run's seconds to seconds at nominal speed."""
        return NOMINAL_TICK_S / self.mean_tick()

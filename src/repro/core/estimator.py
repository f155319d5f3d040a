"""Execution-time estimation (paper Section 3.2).

POLARIS predicts the execution time ``mu(c, f)`` of a workload-``c``
transaction at frequency ``f`` as the p-th percentile of the measured
execution times over a sliding window of the ``S`` most recent
workload-``c`` transactions that ran at frequency ``f``.  The paper
uses ``S = 1000`` and ``p`` in [95, 99] (95 for most experiments) and
adapts Haerdle & Steiger's running-median maintenance to arbitrary
percentiles.

:class:`SlidingWindowPercentile` keeps the window in two structures: a
ring buffer in arrival order (for eviction) and a **chunked sorted
list** (for the order statistic).  The chunked structure splits the
sorted window into O(sqrt(S)) runs of O(sqrt(S)) elements each, so an
insert or evict shifts one short run instead of the whole window ---
O(sqrt(S)) per observation against the O(S) memmove a single flat list
pays.  The full-window steady state (one evict + one insert per
observation) is resolved in a single pass inside
:meth:`SlidingWindowPercentile.observe`, which reuses the evicted slot
when the new value lands in the same run.  The percentile itself is
memoised, and ``observe`` reports whether an observation can have moved
it: when the evicted and the new sample fall on the same strict side of
the memoised value, the order statistic is unchanged, so
:class:`ExecutionTimeEstimator` skips the recomputation and leaves the
POLARIS estimate vectors alone (at p = 95 that is ~90% of
observations).

:class:`ListSlidingWindowPercentile` preserves the original flat-list
implementation as the reference oracle: the property tests assert the
chunked structure is value-for-value identical to it on random streams,
and the microbenchmarks race the two.

Unobserved pairs estimate **zero**: "the execution time estimates for
all workloads at all frequencies can be initialized to zero.  This will
cause POLARIS to gradually explore and initialize its estimators for
unexplored frequencies, from lowest to highest" (Section 6.1).  The
experiment harness reproduces the paper's explicit training phase that
fills every window before measuring, one bulk :meth:`fill` per window.
"""

from __future__ import annotations

import bisect
import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import Deque, Dict, Iterable, List, Optional, Tuple

DEFAULT_WINDOW = 1000
DEFAULT_PERCENTILE = 95.0

#: Target run length of the chunked sorted list.  Runs split at twice
#: this size, so steady-state runs hold LOAD..2*LOAD elements.  Tuned on
#: the S=1000 microbenchmark: small enough that the per-run memmove is
#: cheap, large enough that the run directory stays short.
LOAD = 32


@lru_cache(maxsize=4096)
def nearest_rank(percentile: float, n: int) -> int:
    """1-based nearest rank of the ``percentile``-th of ``n`` values.

    ``ceil(percentile / 100 * n)``, computed exactly with ``percentile``
    read as the decimal it prints as.  The float product rounds up
    across an integer for some inputs --- ``99.9 / 100.0 * 1000`` is
    ``999.0000000000001`` --- which would pick one rank too high.
    """
    return max(1, math.ceil(Fraction(str(percentile)) * n / 100))


class _ChunkedSortedList:
    """A sorted multiset as a directory of short sorted runs.

    ``_runs`` holds the sorted sublists; ``_maxes[i]`` mirrors
    ``_runs[i][-1]`` so membership resolves with one bisect over the
    directory.  All mutating operations keep both in lockstep.
    """

    __slots__ = ("_runs", "_maxes", "_size")

    def __init__(self) -> None:
        self._runs: List[List[float]] = []
        self._maxes: List[float] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, value: float) -> None:
        """Insert ``value``, splitting the target run if it overflows."""
        runs = self._runs
        maxes = self._maxes
        if maxes:
            i = bisect_right(maxes, value)
            if i == len(maxes):
                i -= 1
                run = runs[i]
                run.append(value)
                maxes[i] = value
            else:
                run = runs[i]
                insort(run, value)
            if len(run) > LOAD * 2:
                self._split(i)
        else:
            runs.append([value])
            maxes.append(value)
        self._size += 1

    def _split(self, i: int) -> None:
        run = self._runs[i]
        tail = run[LOAD:]
        del run[LOAD:]
        self._runs.insert(i + 1, tail)
        self._maxes[i] = run[-1]
        self._maxes.insert(i + 1, tail[-1])

    def kth(self, k: int) -> float:
        """The k-th smallest element (0-based)."""
        size = self._size
        if k >= size:
            raise IndexError(f"rank {k} out of range for size {size}")
        # High percentiles rank near the tail, so walk in from
        # whichever end is closer; the runs concatenate in sorted
        # order from either direction.
        if 2 * k >= size:
            j = size - 1 - k
            for run in reversed(self._runs):
                n = len(run)
                if j < n:
                    return run[n - 1 - j]
                j -= n
        for run in self._runs:
            n = len(run)
            if k < n:
                return run[k]
            k -= n
        raise IndexError(f"rank {k} out of range for size {size}")

    @classmethod
    def from_sorted(cls, values: List[float]) -> "_ChunkedSortedList":
        """Build from an ascending list in one step (runs of ``LOAD``)."""
        chunks = cls()
        runs = [values[i:i + LOAD] for i in range(0, len(values), LOAD)]
        chunks._runs = runs
        chunks._maxes = [run[-1] for run in runs]
        chunks._size = len(values)
        return chunks

    def flatten(self) -> List[float]:
        """All elements in sorted order (diagnostics and tests)."""
        return [v for run in self._runs for v in run]


class SlidingWindowPercentile:
    """Running p-th percentile over the last ``window`` observations."""

    __slots__ = ("window", "percentile", "_order", "_chunks",
                 "observations", "_cached")

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        self.window = window
        self.percentile = percentile
        self._order: Deque[float] = deque()
        self._chunks = _ChunkedSortedList()
        self.observations = 0
        #: value() memo; None once an observation may have moved it.
        self._cached: Optional[float] = 0.0

    def observe(self, value: float) -> bool:
        """Add a measurement, evicting the oldest beyond the window.

        Returns whether the percentile can have moved.  It cannot when
        the window is full, the memo is current and the evicted and the
        new sample both lie strictly below it or both strictly above
        it: the counts below, at and above the memoised value are then
        unchanged, and so is the order statistic at a fixed rank.

        The full-window path evicts and inserts in one pass, inline ---
        this is the per-transaction hot path and a method call per
        observation is measurable at S=1000.
        """
        if value < 0:
            raise ValueError("execution times cannot be negative")
        self.observations += 1
        order = self._order
        chunks = self._chunks
        if len(order) == self.window:
            old = order.popleft()
            order.append(value)
            maxes = chunks._maxes
            runs = chunks._runs
            i = bisect_left(maxes, old)
            run = runs[i]
            if (i == 0 or value >= maxes[i - 1]) and \
                    (value <= maxes[i] or i == len(maxes) - 1):
                # Same run loses ``old`` and gains ``value``.
                del run[bisect_left(run, old)]
                insort(run, value)
                maxes[i] = run[-1]
            else:
                j = bisect_left(run, old)
                del run[j]
                if run:
                    if j == len(run):
                        maxes[i] = run[-1]
                else:
                    del runs[i]
                    del maxes[i]
                k = bisect_right(maxes, value)
                if k == len(maxes):
                    k -= 1
                    run = runs[k]
                    run.append(value)
                    maxes[k] = value
                else:
                    run = runs[k]
                    insort(run, value)
                if len(run) > LOAD * 2:
                    chunks._split(k)
            cached = self._cached
            if cached is not None and (
                    (old < cached and value < cached)
                    or (old > cached and value > cached)):
                return False
        else:
            chunks.add(value)
            order.append(value)
        self._cached = None
        return True

    def fill(self, values: Iterable[float]) -> None:
        """Observe ``values`` in order, in one step.

        Value-identical to one :meth:`observe` per value, but the
        window is installed directly --- the arrival-order deque plus
        sorted runs --- instead of paying an insert per sample.
        """
        values = list(values)
        if not values:
            return
        if min(values) < 0:
            raise ValueError("execution times cannot be negative")
        self.observations += len(values)
        kept = (list(self._order) + values)[-self.window:]
        self._order = deque(kept)
        self._chunks = _ChunkedSortedList.from_sorted(sorted(kept))
        self._cached = None

    def value(self) -> float:
        """Current percentile estimate (0.0 when no observations yet).

        Memoized per window state: POLARIS calls ``estimate()`` once per
        (queued request x frequency) inside SetProcessorFreq, so reads
        vastly outnumber updates.
        """
        cached = self._cached
        if cached is None:
            rank = nearest_rank(self.percentile, self._chunks._size)
            cached = self._cached = self._chunks.kth(rank - 1)
        return cached

    @property
    def _sorted(self) -> List[float]:
        """The window's values in sorted order (compatibility shim)."""
        return self._chunks.flatten()

    def __len__(self) -> int:
        return self._chunks._size

    @property
    def full(self) -> bool:
        return self._chunks._size == self.window


class ListSlidingWindowPercentile:
    """The original flat-sorted-list implementation (reference oracle).

    An O(log S) locate plus an O(S) shift per observation.  Retained
    verbatim so property tests can assert the chunked structure above is
    observation-for-observation identical, and so the microbenchmarks
    can race the two implementations.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        if window < 1:
            raise ValueError("window must be at least 1")
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        self.window = window
        self.percentile = percentile
        self._order: Deque[float] = deque()
        self._sorted: List[float] = []
        self.observations = 0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("execution times cannot be negative")
        self.observations += 1
        if len(self._order) == self.window:
            oldest = self._order.popleft()
            idx = bisect.bisect_left(self._sorted, oldest)
            self._sorted.pop(idx)
        self._order.append(value)
        bisect.insort(self._sorted, value)

    def value(self) -> float:
        n = len(self._sorted)
        if n == 0:
            return 0.0
        return self._sorted[nearest_rank(self.percentile, n) - 1]

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def full(self) -> bool:
        return len(self._sorted) == self.window


class ExecutionTimeEstimator:
    """The full ``mu(c, f)`` table: one percentile tracker per pair.

    It also owns the POLARIS estimate-vector caches: per frequency
    ladder, one live list ``[estimate(c, f) for f in ladder]`` per
    workload, which every scheduler on this estimator and ladder shares
    and stamps onto the requests it queues.  Whenever a tracker's
    percentile can have moved, the estimator writes the fresh value
    into the matching slot of every cached list, so the lists always
    equal a rebuild and need no version checks.
    """

    def __init__(self, window: int = DEFAULT_WINDOW,
                 percentile: float = DEFAULT_PERCENTILE):
        self.window = window
        self.percentile = percentile
        self._trackers: Dict[Tuple[str, float], SlidingWindowPercentile] = {}
        #: Bumped whenever an estimate can have changed.  Estimator
        #: *proxies* that vary estimates over time without observing
        #: (repro.faults skew windows) expose neither this nor
        #: ``mu_vector_caches``, so schedulers do not cache their
        #: estimates.
        self.version = 0
        #: Estimate-vector caches: frequency ladder -> workload -> live
        #: ``[estimate(c, f) for f in ladder]`` (see PolarisScheduler).
        self.mu_vector_caches: Dict[Tuple[float, ...],
                                    Dict[str, List[float]]] = {}

    def _tracker(self, workload: str,
                 freq_ghz: float) -> SlidingWindowPercentile:
        key = (workload, freq_ghz)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = SlidingWindowPercentile(self.window, self.percentile)
            self._trackers[key] = tracker
        return tracker

    def observe(self, workload: str, freq_ghz: float,
                execution_seconds: float) -> None:
        """Record one measured execution time.

        The measurement is attributed to the frequency in effect at
        dispatch, as in the prototype (a transaction occasionally spans
        a frequency change; the sliding window absorbs the noise).
        """
        tracker = self._trackers.get((workload, freq_ghz))
        if tracker is None:
            tracker = self._tracker(workload, freq_ghz)
        if tracker.observe(execution_seconds):
            self._changed(workload, freq_ghz, tracker)

    def fill(self, workload: str, freq_ghz: float,
             values: Iterable[float]) -> None:
        """Record many measured execution times, in order, in one step
        (the harness's training phase, Section 6.1)."""
        tracker = self._tracker(workload, freq_ghz)
        tracker.fill(values)
        self._changed(workload, freq_ghz, tracker)

    def estimate(self, workload: str, freq_ghz: float) -> float:
        """``mu(c, f)``: predicted execution time in seconds (0 if unseen)."""
        tracker = self._trackers.get((workload, freq_ghz))
        if tracker is None:
            return 0.0
        return tracker.value()

    def prime(self, workload: str, freq_ghz: float, value: float,
              count: int = 1) -> None:
        """Seed a tracker with ``count`` copies of ``value``."""
        self.fill(workload, freq_ghz, [value] * count)

    def _changed(self, workload: str, freq_ghz: float,
                 tracker: SlidingWindowPercentile) -> None:
        """Patch cached estimate vectors in place after a mutation.

        A mutation of ``(workload, freq_ghz)`` changes exactly one
        tracker, so a cached vector for this workload stays correct at
        every *other* frequency --- only the observed frequency's slot
        needs the fresh ``tracker.value()``.  A frequency outside a
        cache's ladder touches no slot there.
        """
        self.version += 1
        for freqs, cache in self.mu_vector_caches.items():
            vector = cache.get(workload)
            if vector is not None and freq_ghz in freqs:
                vector[freqs.index(freq_ghz)] = tracker.value()

    def observation_count(self, workload: str, freq_ghz: float) -> int:
        tracker = self._trackers.get((workload, freq_ghz))
        return tracker.observations if tracker is not None else 0

    def pairs(self) -> List[Tuple[str, float]]:
        """All (workload, frequency) pairs observed so far (sorted)."""
        return sorted(self._trackers)

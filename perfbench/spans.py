"""Host-time spans around Python callables, with self-time accounting.

A span is one call of a wrapped function.  Its *self time* is its
duration minus the part of that interval covered by the spans it
caused (its children), so nested layers never count the same host
second twice.  Spans are aggregated on the fly into ``[calls, self_s]``
per name; nothing per call is kept unless a probe asks for it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Span statistics: name -> [calls, self seconds].
Stats = Dict[str, List[float]]


class SpanRecorder:
    """Wraps callables so that each call is a span.

    ``clock`` is injectable so that tests can script the time each
    span boundary reads.
    """

    SETUP, RUN = 0, 1

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Stats = {}
        #: Time covered by child spans, one slot per open span; slot 0
        #: is the root, which absorbs top-level spans.
        self._open: List[float] = [0.0]
        #: Phase of the cell: ``SETUP`` until the first
        #: ``Simulator.run``, then ``RUN`` (see :meth:`wrap` ``split``).
        self.phase = [self.SETUP]

    def stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0])

    def wrap(self, fn: Callable, name: str, probe=None,
             split: bool = False) -> Callable:
        """Return ``fn`` recording each call as span ``name``.

        ``probe.enter(args)`` runs before the span opens and its result
        goes to ``probe.leave(token, inclusive_s)`` after it closes.
        With ``split`` the span is booked as ``name.setup`` or
        ``name.run`` by the recorder's phase at call time.
        """
        clock = self.clock
        open_spans = self._open
        if split:
            phase = self.phase
            by_phase = (self.stat(name + ".setup"), self.stat(name + ".run"))
        else:
            phase = None
            only = self.stat(name)

        def span(*args, **kwargs):
            stat = by_phase[phase[0]] if phase is not None else only
            token = probe.enter(args) if probe is not None else None
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                inclusive = clock() - start
                stat[0] += 1
                stat[1] += inclusive - open_spans.pop()
                open_spans[-1] += inclusive
                if probe is not None:
                    probe.leave(token, inclusive)

        span.__wrapped__ = fn
        return span


@contextmanager
def patched(replacements: Sequence[Tuple[type, str, Callable]]
            ) -> Iterator[None]:
    """Temporarily replace class attributes.

    Each entry is ``(cls, attr, make)``; the attribute becomes
    ``make(original)`` until the block exits, then the original is
    restored.  Patching the class (not instances) means every bound
    method looked up while the block is open, including ones the
    program caches in locals, goes through the replacement.
    """
    saved = []
    try:
        for cls, attr, make in replacements:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, make(original))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending sequence.

    The value at rank ``ceil(p/100 * n)``: the smallest sample with at
    least ``p`` percent of the samples at or below it.  0 when empty.
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return ordered[max(1, math.ceil(p / 100.0 * n)) - 1]


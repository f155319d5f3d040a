"""The POLARIS scheduling and frequency-selection algorithm (Figure 2).

One :class:`PolarisScheduler` instance manages one worker/core pair, as
in the prototype architecture (Section 5): request-handler threads run
the arrival path, the worker runs the completion path, and both end by
calling :meth:`select_frequency` --- the paper's ``SetProcessorFreq``.

``SetProcessorFreq`` chooses the smallest frequency at which the
running transaction and all queued transactions are predicted to meet
their deadlines:

1. Find the minimum frequency finishing the *running* transaction
   (predicted remaining time ``mu(c(t0), f) - e0``) by its deadline.
2. Walk the queue in EDF order keeping, per frequency, the cumulative
   predicted queueing time ``q(t, f)`` (remaining running time plus the
   predicted times of all earlier-deadline requests).  Whenever the
   current frequency cannot get a request done by its deadline, advance
   to the lowest higher frequency that can.
3. The moment the highest frequency is required, stop checking and run
   flat out --- late transactions then finish as fast as possible.

The walk keeps a single running sum, ``q`` at the current candidate
frequency, and reads each queued request's estimate at that frequency
from the vector stamped on it at enqueue.  Since the candidate only
rises, an escalation recomputes ``q`` at the new frequency by replaying
the already-walked requests, in walk order --- the exact additions a
per-frequency sum would have made.  One invocation thus costs one add
per scanned request plus the replays, O(|Q| * |F|) at worst.  The
prototype measures ~10 us per invocation at high load, one to two
orders of magnitude below mean transaction times (Section 5); the
overhead bench reproduces the scaling.

**Shared frequency domains.**  ``select_frequency`` assumes per-core
DVFS, as the paper does.  On coarse topologies
(:class:`~repro.cpu.topology.SocketTopology` at per-module/per-socket
granularity) the selected frequency becomes this core's *vote*: the
worker's PERF_CTL write lands in the core's
:class:`~repro.cpu.topology.FrequencyDomain`, which applies the maximum
of the member votes (the kernel's cpufreq policy-sharing rule) to every
member core.  POLARIS's deadline guarantees survive --- a domain never
runs a core *below* what its scheduler asked for --- but its power
savings erode, since one urgent transaction raises the whole domain;
the harness's granularity figure quantifies exactly that cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.sanitizer import invariant, simsan_enabled
from repro.core.estimator import ExecutionTimeEstimator
from repro.core.request import Request
from repro.db.queues import EdfQueue, RequestQueue


class PolarisScheduler:
    """POLARIS for one core: EDF queue + SetProcessorFreq.

    Parameters
    ----------
    frequencies:
        The available P-state frequencies in GHz, ascending (the
        paper's five-level set by default at the server layer).
    estimator:
        The shared ``mu(c, f)`` execution-time estimator.  Sharing one
        across all cores pools observations exactly like keeping a
        single workload-level model; per-core estimators also work.
    """

    #: Whether the scheduler wants SetProcessorFreq run on request
    #: arrival (POLARIS and POLARIS-FIFO do; the NOARRIVE variant does
    #: not --- Section 6.6).
    adjusts_on_arrival = True

    #: Whether this scheduler's queue pops in EDF order (simsan checks
    #: the pop order only when it does; the FIFO variants do not).
    edf_pop_order = True

    name = "polaris"

    #: Whether :meth:`enqueue` stamps requests with their workload's
    #: live estimate vector for the Figure 2 walk.  Schedulers that
    #: replace :meth:`select_frequency` with their own rule turn it off.
    stamps_mu = True

    def __init__(self, frequencies: Sequence[float],
                 estimator: ExecutionTimeEstimator,
                 sanitize: Optional[bool] = None):
        freqs = tuple(frequencies)
        if not freqs or list(freqs) != sorted(freqs):
            raise ValueError("frequencies must be non-empty and ascending")
        self.frequencies = freqs
        self.estimator = estimator
        self.queue: RequestQueue = self._make_queue()
        # Overhead accounting for the Section 5 measurement.
        self.invocations = 0
        self.queue_items_scanned = 0
        #: simsan: resolved once (arg > REPRO_SIMSAN env); checked per
        #: pop/selection, so the disabled cost is one boolean test.
        self.sanitize = simsan_enabled(sanitize)
        self._freq_set = frozenset(freqs)
        #: This ladder's estimate-vector cache, owned and kept current by
        #: the estimator (``mu_vector_caches``) and shared by every
        #: scheduler on that estimator and ladder.  None for estimators
        #: without one (the faults subsystem's time-varying skew proxy,
        #: ``estimator=None``) and for schedulers that do not run the
        #: Figure 2 walk: their requests go unstamped and the walk
        #: draws estimates per item.
        caches = getattr(estimator, "mu_vector_caches", None) \
            if self.stamps_mu else None
        self._mu_cache: Optional[Dict[str, List[float]]] = \
            None if caches is None else caches.setdefault(freqs, {})
        #: repro.obs: the worker flips this on when tracing and reads
        #: :attr:`last_decision` right after each ``select_frequency``
        #: call.  The scheduler stays simulation-agnostic --- it records
        #: *what* it decided and why (floor, slack), never emits events.
        self.trace_decisions = False
        self.last_decision: Optional[dict] = None
        #: repro.faults: while True (set by the resilience controller's
        #: panic mode), SetProcessorFreq short-circuits to the highest
        #: frequency --- surviving cores run flat out until the windowed
        #: deadline-miss rate recovers and the controller clears it.
        self.panic = False

    def _make_queue(self) -> RequestQueue:
        return EdfQueue()

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        """Queue a request (EDF position for POLARIS proper).

        Stamps ``request.mu`` with the live estimate vector of its
        workload on this scheduler's ladder, so the walk reads
        ``request.mu[level]`` directly.  Requests moving between
        schedulers (migration, failover, node drains) come through here
        and are re-stamped for the new ladder.  A never-stamped request
        pushed straight into :attr:`queue` is stamped by the walk on
        first sight; one stamped by another scheduler must come through
        here instead.
        """
        if self._mu_cache is not None:
            request.mu = self._mu_vector(request.workload_name)
        self.queue.push(request)

    def _mu_vector(self, workload: str) -> List[float]:
        """The live ``[estimate(workload, f) for f in ladder]``."""
        cache = self._mu_cache
        vector = cache.get(workload)
        if vector is None:
            estimate = self.estimator.estimate
            vector = cache[workload] = [estimate(workload, f)
                                        for f in self.frequencies]
        return vector

    def next_request(self) -> Optional[Request]:
        """Dequeue the next request to execute (earliest deadline)."""
        request = self.queue.pop()
        if self.sanitize and request is not None and self.edf_pop_order:
            # EDF pop order: nothing still queued may have an earlier
            # deadline than what we just popped.  (Pop times are NOT
            # globally monotone --- later arrivals can carry earlier
            # deadlines --- so the check is against the queue head.)
            head = self.queue.peek()
            if head is not None:
                invariant(request.deadline <= head.deadline, "edf-order",
                          "queue popped a request with a later deadline "
                          "than one still queued",
                          popped_deadline=request.deadline,
                          queued_deadline=head.deadline,
                          popped_arrival=request.arrival_time)
        return request

    def __len__(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    # SetProcessorFreq (Figure 2)
    # ------------------------------------------------------------------
    def select_frequency(self, now: float, running: Optional[Request],
                         running_elapsed: float = 0.0) -> float:
        """Choose the processor frequency for this worker's core.

        ``running`` is the transaction currently executing (``t0``) and
        ``running_elapsed`` its run time so far (``e0``); both may be
        absent when the worker is about to dispatch from an idle state.
        """
        self.invocations += 1
        freqs = self.frequencies
        if self.panic:
            # Panic mode (repro.faults): deadline misses are already
            # epidemic, so skip the walk and run flat out.
            if self.trace_decisions:
                self.last_decision = {
                    "selected_ghz": freqs[-1], "floor_ghz": freqs[-1],
                    "queue_len": len(self.queue), "remaining_s": 0.0,
                    "slack_s": None, "early_exit": True, "panic": True,
                }
            return freqs[-1]
        nf = len(freqs)
        cache = self._mu_cache
        estimate = None if cache is not None else self.estimator.estimate

        # Lines 2-4: minimum frequency for the running transaction, and
        # its predicted remaining time per frequency (feeds q-hat).
        if running is not None:
            c0 = running.workload_name
            if cache is None:
                mu0 = [estimate(c0, f) for f in freqs]
            else:
                mu0 = cache.get(c0) or self._mu_vector(c0)
            # With e0 == 0 the clamp is the identity (estimates are
            # never negative), so reuse the vector as-is.
            e0 = running_elapsed
            if e0:
                remaining_s = [m - e0 if m > e0 else 0.0 for m in mu0]
            else:
                remaining_s = mu0
            chosen = nf - 1
            for j in range(nf):
                if now + remaining_s[j] <= running.deadline:
                    chosen = j
                    break
        else:
            remaining_s = [0.0] * nf
            chosen = 0
        floor_index = chosen  # the running transaction's frequency floor

        # Lines 5-16: ensure all queued transactions finish in time.
        # Only q-hat at the *current* candidate frequency is read per
        # item, and ``chosen`` never decreases, so the walk keeps one
        # scalar ``q`` (== ``cumulative[chosen]`` of the vector form).
        # An escalation rebuilds q-hat at the higher frequency by
        # replaying the walked items' estimates in walk order --- the
        # exact addition sequence the vector form would have performed,
        # so the results are bit-identical.
        items, start = self.queue.scan()
        end = len(items)
        early_exit = False
        scanned = 0
        if start < end and cache is not None:
            q = remaining_s[chosen]
            # Index the queue's backing sequence in place (no copy).
            for pos in range(start, end):
                request = items[pos]
                mu = request.mu
                try:
                    m = mu[chosen]
                except TypeError:  # pushed without enqueue(): unstamped
                    mu = request.mu = self._mu_vector(request.workload_name)
                    m = mu[chosen]
                deadline = request.deadline
                if now + q + m > deadline:
                    # Find the lowest higher frequency that is fast
                    # enough.
                    walked = items[start:pos]
                    j = chosen + 1
                    while j < nf:
                        chosen = j
                        qj = remaining_s[j]
                        for w in walked:
                            qj += w.mu[j]
                        q = qj
                        m = mu[j]
                        if now + qj + m <= deadline:
                            break
                        j += 1
                    if chosen == nf - 1:
                        # Line 14: no further checking once we need
                        # the highest frequency.
                        early_exit = True
                        break
                q += m
            scanned = pos + 1 - start
        elif start < end:
            # No estimate cache (see ``_mu_cache``): the original
            # interpreted walk, with estimates drawn per item.  The
            # cached walk above must match it exactly (the cross-oracle
            # tests run both).
            index = start
            q = remaining_s[chosen]
            vectors: List[List[float]] = []
            vectors_append = vectors.append
            while index < end:
                request = items[index]
                index += 1
                scanned += 1
                mu = [estimate(request.workload_name, f) for f in freqs]
                m = mu[chosen]
                deadline = request.deadline
                if now + q + m > deadline:
                    j = chosen + 1
                    while j < nf:
                        chosen = j
                        qj = remaining_s[j]
                        for w in vectors:
                            qj += w[j]
                        q = qj
                        m = mu[j]
                        if now + qj + m <= deadline:
                            break
                        j += 1
                    if chosen == nf - 1:
                        early_exit = True
                        break
                q += m
                vectors_append(mu)
        self.queue_items_scanned += scanned
        selected = freqs[chosen]
        if self.sanitize:
            self._sanitize_selected(selected, floor_index, now)
        if self.trace_decisions:
            self._record_decision(now, running, remaining_s[chosen],
                                  selected, freqs[floor_index],
                                  early_exit=early_exit)
        return selected

    def _record_decision(self, now_s: float, running: Optional[Request],
                         remaining_s: float, selected_ghz: float,
                         floor_ghz: float, early_exit: bool) -> None:
        """Capture why SetProcessorFreq picked ``selected_ghz``.

        ``remaining_s`` is the running transaction's predicted remaining
        time at the selected frequency, so ``slack_s`` is the margin it
        is predicted to finish with --- the quantity that drove the
        decision (Figure 2 lines 2-4).  ``early_exit`` marks the line-14
        shortcut (highest frequency required; queue walk abandoned).
        """
        slack_s = None
        if running is not None:
            slack_s = running.deadline - (now_s + remaining_s)
        self.last_decision = {
            "selected_ghz": selected_ghz,
            "floor_ghz": floor_ghz,
            "queue_len": len(self.queue),
            "remaining_s": remaining_s,
            "slack_s": slack_s,
            "early_exit": early_exit,
        }

    def _sanitize_selected(self, selected: float, floor_index: int,
                           now: float) -> None:
        """simsan: SetProcessorFreq postconditions (Figure 2).

        The selection must (a) come from the configured P-state set ---
        never an interpolated or stale value --- and (b) respect the
        monotone walk: the queue scan only ever *raises* the frequency
        above the running transaction's floor (lines 5-16 contain no
        downward step).
        """
        invariant(selected in self._freq_set, "pstate-membership",
                  "selected frequency is not in the P-state table",
                  selected=selected, table=self.frequencies, now=now)
        invariant(self.frequencies.index(selected) >= floor_index,
                  "freq-monotone",
                  "queue walk lowered the frequency below the running "
                  "transaction's floor",
                  selected=selected, floor_index=floor_index, now=now)

    # ------------------------------------------------------------------
    # Admission control (Section 1: the DBMS "can reorder requests, or
    # reject low value requests when load is high").  Base POLARIS
    # admits everything; see PolarisShedScheduler.
    # ------------------------------------------------------------------
    def admits(self, now: float, running: Optional[Request],
               running_elapsed: float, request: Request) -> bool:
        """Whether to accept ``request`` (called before enqueueing)."""
        return True

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    #: Whether mixed-frequency runs (transactions whose core frequency
    #: changed mid-execution) update the estimator.  Such measurements
    #: misattribute execution time to the dispatch frequency and, fed
    #: back, bias the low-frequency windows optimistic --- a feedback
    #: loop that erodes the estimator's deliberate conservatism.  The
    #: default records only clean single-frequency runs.
    update_on_mixed_freq = False

    def record_completion(self, request: Request) -> None:
        """Feed a finished request's measured execution time back into
        the estimator, attributed to its dispatch frequency.

        Runs spanning a frequency change are skipped by default (see
        :attr:`update_on_mixed_freq`); short transactions complete
        unbumped often enough to keep every window fresh.
        """
        if request.dispatch_freq is None:
            raise ValueError("request has no dispatch frequency recorded")
        if not request.single_freq and not self.update_on_mixed_freq:
            return
        self.estimator.observe(request.workload.name, request.dispatch_freq,
                               request.execution_time)

"""Cross-oracle: the stamped-vector walk against the uncached walk.

``PolarisScheduler`` runs the Figure 2 walk on estimate vectors stamped
onto requests at enqueue (the estimator's shared cache).  A scheduler
built on a *versionless proxy* of the same estimator --- one without
``mu_vector_caches`` --- runs the original uncached walk, drawing every
estimate per item.  The two must agree exactly: same selected
frequency, same ``queue_items_scanned`` and same ``last_decision``,
across random queues, deadlines, ``now``/``e0`` values, estimator
observations between decisions, unstamped pushes and panic mode.
"""

from hypothesis import given, settings, strategies as st

from repro.core.estimator import ExecutionTimeEstimator
from repro.core.polaris import PolarisScheduler
from repro.core.request import Request
from repro.core.variants import PolarisFifoScheduler
from repro.core.workload import Workload
from repro.db.server import DatabaseServer, ServerConfig
from repro.faults.resilience import drain_worker_queue, redistribute_requests
from repro.governors.nonclairvoyant import NonclairvoyantScheduler

FREQS = (1.2, 1.6, 2.0, 2.4, 2.8)
OTHER_LADDER = (1.3, 1.8, 2.2, 2.8)
WORKLOADS = {name: Workload(name, 5e-3) for name in "abc"}


class VersionlessProxy:
    """The same estimates, but no shared cache: the uncached walk."""

    def __init__(self, inner):
        self._inner = inner

    def estimate(self, workload: str, freq_ghz: float) -> float:
        return self._inner.estimate(workload, freq_ghz)


def make_request(name: str, deadline_s: float) -> Request:
    return Request(WORKLOADS[name], name, 0.0, 1.0, deadline=deadline_s)


def make_pair(cls, estimator, freqs=FREQS):
    stamped = cls(freqs, estimator)
    oracle = cls(freqs, VersionlessProxy(estimator))
    assert stamped._mu_cache is not None and oracle._mu_cache is None
    for scheduler in (stamped, oracle):
        scheduler.trace_decisions = True
    return stamped, oracle


def assert_same_decision(stamped, oracle, now, running, e0):
    got = stamped.select_frequency(now, running, e0)
    want = oracle.select_frequency(now, running, e0)
    assert got == want
    assert stamped.queue_items_scanned == oracle.queue_items_scanned
    assert stamped.invocations == oracle.invocations
    assert stamped.last_decision == oracle.last_decision
    return got


millis = st.floats(min_value=0.0, max_value=10e-3, allow_nan=False)
names = st.sampled_from(sorted(WORKLOADS))
ops = st.one_of(
    st.tuples(st.just("enqueue"), names, millis),
    st.tuples(st.just("push"), names, millis),
    # 3.0 GHz is off the ladder: it must touch no cached slot.
    st.tuples(st.just("observe"), names, st.sampled_from(FREQS + (3.0,)),
              st.floats(min_value=0.0, max_value=5e-3)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("panic"), st.booleans()),
    st.tuples(st.just("decide"), st.floats(min_value=0.0, max_value=5e-3),
              st.one_of(st.none(), names),
              st.one_of(st.just(0.0),
                        st.floats(min_value=0.0, max_value=4e-3)),
              millis),
)


@settings(max_examples=150, deadline=None)
@given(primes=st.lists(st.floats(min_value=0.1e-3, max_value=5e-3),
                       min_size=len(WORKLOADS) * len(FREQS),
                       max_size=len(WORKLOADS) * len(FREQS)),
       program=st.lists(ops, max_size=60),
       fifo=st.booleans())
def test_stamped_walk_matches_uncached_walk(primes, program, fifo):
    # Estimates drawn independently per frequency are often *not*
    # monotone in frequency, and deadlines of 0-10 ms against 0.1-5 ms
    # estimates make escalations (and prefix replays) the common case.
    estimator = ExecutionTimeEstimator(window=3, percentile=95)
    values = iter(primes)
    for name in sorted(WORKLOADS):
        for freq in FREQS:
            estimator.prime(name, freq, next(values), count=3)
    cls = PolarisFifoScheduler if fifo else PolarisScheduler
    stamped, oracle = make_pair(cls, estimator)
    cache = estimator.mu_vector_caches[FREQS]
    for op in program:
        kind = op[0]
        if kind == "enqueue":
            request = make_request(op[1], op[2])
            stamped.enqueue(request)
            oracle.queue.push(request)
            assert request.mu is cache[op[1]]
        elif kind == "push":
            request = make_request(op[1], op[2])
            stamped.queue.push(request)  # bypasses enqueue(): unstamped
            oracle.queue.push(request)
            assert request.mu is None
        elif kind == "observe":
            estimator.observe(op[1], op[2], op[3])
        elif kind == "pop":
            assert stamped.next_request() is oracle.next_request()
        elif kind == "panic":
            stamped.panic = oracle.panic = op[1]
        else:
            _, now, running_name, e0, deadline = op
            running = None if running_name is None \
                else make_request(running_name, deadline)
            assert_same_decision(stamped, oracle, now, running, e0)
        for name, vector in cache.items():
            assert vector == [estimator.estimate(name, f) for f in FREQS]


@settings(max_examples=200, deadline=None)
@given(bases=st.lists(st.floats(min_value=0.1e-3, max_value=3e-3),
                      min_size=len(WORKLOADS), max_size=len(WORKLOADS)),
       jitter=st.lists(st.floats(min_value=0.8, max_value=1.2),
                       min_size=len(WORKLOADS) * len(FREQS),
                       max_size=len(WORKLOADS) * len(FREQS)),
       level=st.integers(min_value=0, max_value=len(FREQS) - 1),
       queue=st.lists(st.tuples(names, st.floats(min_value=0.9,
                                                 max_value=1.1)),
                      min_size=1, max_size=12),
       e0=st.sampled_from([0.0, 1.0]))
def test_near_feasible_queues_match(bases, jitter, level, queue, e0):
    """Deadlines at the cumulative estimate at one level, +-10%: the
    decision lands on an interior level and hinges on exact replayed
    sums, which random deadlines (mostly flat out) rarely exercise."""
    estimator = ExecutionTimeEstimator(window=3)
    factors = iter(jitter)
    for name, base in zip(sorted(WORKLOADS), bases):
        for freq in FREQS:
            estimator.prime(name, freq, base * 2.8 / freq * next(factors),
                            count=3)
    stamped, oracle = make_pair(PolarisScheduler, estimator)
    due = 0.0
    for name, slack in queue:
        due += estimator.estimate(name, FREQS[level])
        request = make_request(name, due * slack)
        stamped.enqueue(request)
        oracle.enqueue(request)
    running = make_request("a", 5e-3)
    for now in (0.0, 0.2e-3, 1e-3):
        assert_same_decision(stamped, oracle, now, running, e0)


def test_escalation_replays_prefix_on_non_monotone_estimates():
    """An escalation mid-queue replays the walked prefix at the next
    level.  The vectors are slower at 2.8 than at 2.4 GHz (the shape of
    NewOrder's p95), so estimates are not monotone in frequency; both
    walks must still escalate exactly once, to 2.4 GHz."""
    estimator = ExecutionTimeEstimator(window=1)
    for freq, seconds in zip(FREQS, (4e-3, 3e-3, 2e-3, 1e-3, 1.5e-3)):
        estimator.observe("a", freq, seconds)
        estimator.observe("b", freq, seconds / 2)
    stamped, oracle = make_pair(PolarisScheduler, estimator)
    for name, deadline in (("b", 3e-3), ("a", 4.5e-3), ("b", 5.5e-3),
                           ("a", 6.4e-3), ("b", 20e-3)):
        request = make_request(name, deadline)
        stamped.enqueue(request)
        oracle.enqueue(request)
    running = make_request("a", 2e-3)
    selected = assert_same_decision(stamped, oracle, 0.0, running, 0.5e-3)
    assert selected == 2.4
    assert stamped.last_decision["floor_ghz"] == 2.0
    assert stamped.queue_items_scanned == 5


def test_receive_migrated_restamps_for_the_target_ladder(sim):
    """A request migrated onto a worker whose scheduler uses another
    ladder carries that ladder's vector, and decides like the oracle."""
    estimator = ExecutionTimeEstimator(window=4)
    for freq in FREQS + OTHER_LADDER:
        for name, seconds in (("a", 2e-3), ("b", 0.5e-3)):
            estimator.prime(name, freq, seconds * 2.8 / freq, count=4)

    def server(freqs):
        config = ServerConfig(workers=1, request_handlers=1,
                              scheduler_frequencies=freqs)
        return DatabaseServer(
            sim, config, initial_freq=2.8,
            scheduler_factory=lambda: PolarisScheduler(freqs, estimator))

    source, target = server(FREQS), server(OTHER_LADDER)
    for srv in (source, target):
        srv.submit(make_request("a", 50e-3))  # dispatched: keeps it busy
    moved = [make_request(name, deadline) for name, deadline in
             (("a", 9e-3), ("b", 6e-3), ("b", 12e-3), ("a", 30e-3))]
    for request in moved:
        source.submit(request)
        assert request.mu is estimator.mu_vector_caches[FREQS][
            request.workload_name]
    source_worker, target_worker = source.workers[0], target.workers[0]
    redistribute_requests(drain_worker_queue(source_worker),
                          [target_worker])
    for request in moved:
        assert request.mu is estimator.mu_vector_caches[OTHER_LADDER][
            request.workload_name]
    stamped = target_worker.dispatcher
    oracle = PolarisScheduler(OTHER_LADDER, VersionlessProxy(estimator))
    for request in stamped.queue:
        oracle.enqueue(request)
    for scheduler in (stamped, oracle):
        scheduler.trace_decisions = True
        scheduler.invocations = scheduler.queue_items_scanned = 0
    running = target_worker.current
    for now in (0.0, 2e-3, 5e-3):
        assert_same_decision(stamped, oracle, now, running, now)


def test_panic_short_circuits_both_walks():
    estimator = ExecutionTimeEstimator(window=2)
    estimator.prime("a", 1.2, 1e-3, count=2)
    stamped, oracle = make_pair(PolarisScheduler, estimator)
    for scheduler in (stamped, oracle):
        scheduler.enqueue(make_request("a", 1.0))
        scheduler.panic = True
    assert assert_same_decision(stamped, oracle, 0.0, None, 0.0) == 2.8
    assert stamped.last_decision["panic"] is True
    assert stamped.queue_items_scanned == 0


def test_nonclairvoyant_without_estimator_stamps_nothing():
    """``estimator=None`` (and a nonclairvoyant scheduler on a real
    estimator) leaves requests unstamped and the estimator untouched."""
    estimator = ExecutionTimeEstimator()
    blind = NonclairvoyantScheduler(FREQS, None)
    given_one = NonclairvoyantScheduler(FREQS, estimator)
    assert blind._mu_cache is None and given_one._mu_cache is None
    for scheduler in (blind, given_one):
        scheduler.trace_decisions = True
        for deadline in (2e-3, 8e-3, 4e-3):
            request = make_request("a", deadline)
            scheduler.enqueue(request)
            assert request.mu is None
    assert_same_decision(blind, given_one, 1e-3, None, 0.0)
    assert_same_decision(blind, given_one, 3.5e-3, None, 0.0)
    assert estimator.mu_vector_caches == {}
    assert estimator.version == 0

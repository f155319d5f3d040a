"""The traced run: which entry points are wrapped, and per-layer metrics.

Each layer of the program (``src/repro/<layer>``) is measured at the
calls into it.  :class:`LayerTrace` wraps those calls on their classes
before a cell is built, so bound methods the program caches in locals
(``submit = server.submit``) go through the wrappers too.  It traces
*host* time; ``repro.obs`` traces virtual time and cannot do this job.

Besides each layer's public entry points, the wrapped set holds the
event callbacks that run a transaction (arrival, job completion,
governor and meter samples), so that ``sim.self_s`` is the engine loop
itself rather than every callback it dispatches.

Layers not measured: ``faults`` (inert in healthy cells), ``theory``
(offline oracles, never called by a cell), ``analysis`` (the linter)
and ``obs`` (off in timed runs).
"""

from __future__ import annotations

import importlib
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

from report import miss_rate
from spans import SpanRecorder, percentile

#: (module, class, attribute, span name).
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.sim.engine", "Simulator", "step", "sim"),
    ("repro.core.polaris", "PolarisScheduler", "select_frequency",
     "core.select_frequency"),
    ("repro.core.estimator", "ExecutionTimeEstimator", "observe",
     "core.estimator.observe"),
    ("repro.core.estimator", "ExecutionTimeEstimator", "estimate",
     "core.estimator.estimate"),
    ("repro.db.server", "DatabaseServer", "submit", "db.submit"),
    ("repro.db.queues", "EdfQueue", "push", "db.queue.push"),
    ("repro.db.queues", "EdfQueue", "pop", "db.queue.pop"),
    ("repro.db.server", "Worker", "_on_complete", "db.complete"),
    ("repro.cpu.core", "Core", "set_frequency", "cpu.set_frequency"),
    ("repro.cpu.core", "Core", "request_frequency",
     "cpu.request_frequency"),
    ("repro.cpu.core", "Core", "start_job", "cpu.start_job"),
    ("repro.cpu.core", "Core", "_complete", "cpu.complete"),
    ("repro.governors.base", "DynamicGovernor", "_sample",
     "governors.sample"),
    ("repro.governors.ondemand", "OnDemandGovernor", "target_frequency",
     "governors.target_frequency"),
    ("repro.governors.conservative", "ConservativeGovernor",
     "target_frequency", "governors.target_frequency"),
    ("repro.workloads.arrivals", "OpenLoopGenerator", "_fire",
     "workloads.arrival"),
    ("repro.workloads.base", "BenchmarkSpec", "choose_type",
     "workloads.choose_type"),
    ("repro.workloads.base", "ServiceTimeModel", "draw_work",
     "workloads.draw_work"),
    ("repro.metrics.latency", "LatencyRecorder", "on_completion",
     "metrics.on_completion"),
    ("repro.metrics.power", "PowerMeter", "_sample", "metrics.meter"),
    ("repro.fleet.router", "ClusterRouter", "route", "fleet.route"),
    ("repro.fleet.controller", "ElasticController", "shard_utilization",
     "fleet.controller"),
)

#: Spans booked separately for set-up (before the first
#: ``Simulator.run``: estimator training) and for the run.
SPLIT_SPANS = frozenset({"core.estimator.observe",
                         "core.estimator.estimate"})

#: Queue-depth buckets for the decision cost: (label, lowest, highest).
DEPTH_BUCKETS = (("le4", 0, 4), ("5-16", 5, 16), ("17-64", 17, 64),
                 ("gt64", 65, None))

_CORE = ("txn_per_host_s on server-polaris-tpcc and fleet-ycsb-b; "
         "0 calls and no change on server-ondemand-tpcc")
_ENGINE = "txn_per_host_s on server-ondemand-tpcc"
_POLARIS = "txn_per_host_s on server-polaris-tpcc"
_ALL = "txn_per_host_s on every workload"
_READS = "txn_per_host_s on fleet-ycsb-b"
_CONTROL = "control: equal on both server-* workloads"


def _pair(name: str, moves: str) -> List[Tuple[str, str, str, str]]:
    return [(f"{name}.calls", "count", "lower", moves),
            (f"{name}.self_s", "s", "lower", moves)]


def _decision_buckets() -> List[Tuple[str, str, str, str]]:
    rows = []
    for label, _low, _high in DEPTH_BUCKETS:
        name = f"core.select_frequency.depth_{label}"
        rows += [(f"{name}.calls", "count", "lower", _CORE),
                 (f"{name}.us_p50", "us", "lower", _CORE)]
    return rows


def _estimator(op: str) -> List[Tuple[str, str, str, str]]:
    name = f"core.estimator.{op}"
    run = "txn_per_host_s on server-polaris-tpcc (run phase)"
    return [(f"{name}.calls", "count", "lower", run),
            (f"{name}.self_s", "s", "lower", run),
            (f"{name}.setup_calls", "count", "lower",
             "setup_s on every workload"),
            (f"{name}.setup_self_s", "s", "lower",
             "setup_s on every workload")]


#: Every per-layer metric: (name, unit, better, end-to-end metric it
#: should move and on which workload).  Counts and seconds are per pass
#: over the run's distinct cells.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("sim.events", "count", "lower",
     "identical across repeats and traced/untraced runs"),
    ("sim.self_s", "s", "lower", _ENGINE),
    ("sim.ns_per_event", "ns", "lower", _ENGINE),
    *_pair("core.select_frequency", _CORE),
    ("core.select_frequency.us_p50", "us", "lower", _CORE),
    ("core.select_frequency.us_p99", "us", "lower", _CORE),
    *_decision_buckets(),
    ("core.scan_per_decision", "items", "lower", _POLARIS),
    *_estimator("observe"),
    *_estimator("estimate"),
    *_pair("db.submit", _POLARIS),
    *_pair("db.queue.push", _POLARIS),
    *_pair("db.queue.pop", _POLARIS),
    ("db.queue_depth_p50", "requests", "lower", _POLARIS),
    ("db.queue_depth_p99", "requests", "lower", _POLARIS),
    *_pair("db.complete", _ALL),
    *_pair("cpu.set_frequency",
           "txn_per_host_s on server-ondemand-tpcc; calls (P-state "
           "changes) also move power_w"),
    *_pair("cpu.request_frequency", _ENGINE),
    *_pair("cpu.start_job", _ENGINE),
    *_pair("cpu.complete", _ENGINE),
    *_pair("governors.sample", "txn_per_host_s on server-ondemand-tpcc only"),
    *_pair("governors.target_frequency",
           "txn_per_host_s on server-ondemand-tpcc only"),
    *_pair("workloads.arrival", _CONTROL),
    *_pair("workloads.choose_type", _CONTROL),
    *_pair("workloads.draw_work", _CONTROL),
    *_pair("metrics.on_completion", _READS),
    *_pair("metrics.meter", _READS),
    ("miss_rate", "ratio", "lower",
     "simulated failed share (missed + rejected + lost) / offered; "
     "moves with power_w on every workload"),
    *_pair("fleet.route", "power_w, miss_rate and txn_per_host_s on "
                          "fleet-ycsb-b"),
    ("fleet.replica_read_share", "ratio", "higher",
     "power_w, miss_rate and txn_per_host_s on fleet-ycsb-b"),
    ("fleet.stale_bounce_share", "ratio", "lower",
     "power_w, miss_rate and txn_per_host_s on fleet-ycsb-b"),
    *_pair("fleet.controller", "power_w on fleet-tpcc-diurnal"),
    ("fleet.boots", "count", "lower", "power_w on fleet-tpcc-diurnal"),
    ("fleet.drains", "count", "lower", "power_w on fleet-tpcc-diurnal"),
    ("tracing_overhead", "ratio", "higher",
     "traced txn_per_host_s over untraced, same cells"),
]


class DecisionProbe:
    """Host cost of each ``select_frequency`` call against the queue
    depth it saw, and the items its walk scanned."""

    def __init__(self) -> None:
        self.micros = array("d")
        self.depths = array("l")
        self.scanned = 0
        self.invocations = 0

    def enter(self, args):
        scheduler = args[0]
        return (scheduler, len(scheduler.queue),
                scheduler.queue_items_scanned, scheduler.invocations)

    def leave(self, token, inclusive_s: float) -> None:
        scheduler, depth, scanned, invocations = token
        self.micros.append(inclusive_s * 1e6)
        self.depths.append(depth)
        self.scanned += scheduler.queue_items_scanned - scanned
        self.invocations += scheduler.invocations - invocations


class PushDepthProbe:
    """Queue length at each ``EdfQueue.push``."""

    def __init__(self) -> None:
        self.depths = array("l")

    def enter(self, args) -> None:
        self.depths.append(len(args[0]))

    def leave(self, token, inclusive_s: float) -> None:
        pass


class LayerTrace:
    """Spans and probes for every traced cell of one run."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.decisions = DecisionProbe()
        self.pushes = PushDepthProbe()
        self._probes = {"core.select_frequency": self.decisions,
                        "db.queue.push": self.pushes}

    def replacements(self) -> List[Tuple[type, str, Callable]]:
        """``(cls, attr, make)`` entries for :func:`spans.patched`."""
        out = []
        for module, cls_name, attr, name in SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            out.append((cls, attr, self._maker(name)))
        return out

    def _maker(self, name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            return self.recorder.wrap(fn, name, probe=self._probes.get(name),
                                      split=name in SPLIT_SPANS)
        return make

    def enter_setup(self) -> None:
        self.recorder.phase[0] = SpanRecorder.SETUP

    def enter_run(self) -> None:
        self.recorder.phase[0] = SpanRecorder.RUN

    def metrics(self, records: Sequence[dict], passes: int,
                overhead: float) -> Dict[str, float]:
        """Per-layer metrics over ``passes`` traced passes whose cell
        results are ``records``; counts and seconds are per pass."""
        stats = self.recorder.stats
        out: Dict[str, float] = {}

        def calls(name: str) -> int:
            return round(stats.get(name, [0, 0.0])[0] / passes)

        def self_s(name: str) -> float:
            return stats.get(name, [0, 0.0])[1] / passes

        def total(key: str) -> int:
            return round(sum(r[key] for r in records) / passes)

        for span in {name for *_where, name in SPANS} - SPLIT_SPANS:
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_s"] = self_s(span)
        for op in ("observe", "estimate"):
            base = f"core.estimator.{op}"
            out[f"{base}.setup_calls"] = calls(base + ".setup")
            out[f"{base}.setup_self_s"] = self_s(base + ".setup")
            out[f"{base}.calls"] = out[f"{base}.setup_calls"] \
                + calls(base + ".run")
            out[f"{base}.self_s"] = out[f"{base}.setup_self_s"] \
                + self_s(base + ".run")

        events = total("sim_events")
        out["sim.events"] = events
        out["sim.ns_per_event"] = \
            out["sim.self_s"] / events * 1e9 if events else 0.0

        micros = sorted(self.decisions.micros)
        out["core.select_frequency.us_p50"] = percentile(micros, 50)
        out["core.select_frequency.us_p99"] = percentile(micros, 99)
        for label, low, high in DEPTH_BUCKETS:
            bucket = sorted(us for us, depth in zip(self.decisions.micros,
                                                    self.decisions.depths)
                            if depth >= low and (high is None
                                                 or depth <= high))
            name = f"core.select_frequency.depth_{label}"
            out[f"{name}.calls"] = round(len(bucket) / passes)
            out[f"{name}.us_p50"] = percentile(bucket, 50)
        out["core.scan_per_decision"] = \
            self.decisions.scanned / self.decisions.invocations \
            if self.decisions.invocations else 0.0
        depths = sorted(self.pushes.depths)
        out["db.queue_depth_p50"] = percentile(depths, 50)
        out["db.queue_depth_p99"] = percentile(depths, 99)

        out["miss_rate"] = miss_rate(records)
        reads = sum(r["routed_reads"] for r in records)
        out["fleet.replica_read_share"] = \
            sum(r["replica_reads"] for r in records) / reads if reads else 0.0
        out["fleet.stale_bounce_share"] = \
            sum(r["stale_read_bounces"] for r in records) / reads \
            if reads else 0.0
        out["fleet.boots"] = total("boots")
        out["fleet.drains"] = total("drains")
        out["tracing_overhead"] = overhead
        return {name: out[name] for name, *_rest in PER_LAYER}

"""The benchmark's own tests: span accounting, the percentile rule, the
miss-rate and host-rate definitions, the checks, and BENCHMARK.json against the code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

from cells import WORKLOADS, Workload
from child import PLAIN, TRACED, run_cell
from layers import PER_LAYER, LayerTrace
from report import (END_TO_END, FINGERPRINT, check_records, host_rate,
                    miss_rate)
from spans import SpanRecorder, patched, percentile

from repro.core.request import Request
from repro.core.workload import Workload as TxnClass
from repro.harness.experiment import ExperimentConfig
from repro.metrics.latency import LatencyRecorder

ROOT = Path(__file__).resolve().parents[2]


class ScriptedClock:
    """Returns the given times, one per read."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7]; a top-level
    # inner [12, 13] follows.
    clock = ScriptedClock([0, 2, 5, 6, 7, 10, 12, 13])
    recorder = SpanRecorder(clock)
    inner = recorder.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = recorder.wrap(body, "outer")
    outer()
    inner()
    assert recorder.stats["outer"] == [1, 10 - 3 - 1]
    assert recorder.stats["inner"] == [3, 3 + 1 + 1]
    assert clock.times == []


def test_raising_span_still_closes():
    clock = ScriptedClock([0, 1, 4, 9])
    recorder = SpanRecorder(clock)

    def fail():
        raise ValueError

    failing = recorder.wrap(fail, "leaf")

    def body():
        with pytest.raises(ValueError):
            failing()

    recorder.wrap(body, "root")()
    # The raising leaf still closes its span: [1, 4] under root [0, 9].
    assert recorder.stats["leaf"] == [1, 3]
    assert recorder.stats["root"] == [1, 6]


def test_split_spans_book_by_phase():
    recorder = SpanRecorder(ScriptedClock([0, 1, 1, 3]))
    observe = recorder.wrap(lambda: None, "observe", split=True)
    observe()
    recorder.phase[0] = SpanRecorder.RUN
    observe()
    assert recorder.stats["observe.setup"] == [1, 1]
    assert recorder.stats["observe.run"] == [1, 2]


def test_patched_restores_on_error():
    class Target:
        def method(self):
            return "original"

    with pytest.raises(RuntimeError):
        with patched([(Target, "method", lambda fn: lambda self: "wrapped")]):
            assert Target().method() == "wrapped"
            raise RuntimeError
    assert Target().method() == "original"


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    # p99 of 1000 samples leaves exactly ten samples beyond it.
    assert sum(v > percentile(values, 99) for v in values) == 10
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0)


def _request(arrival, deadline_s, work=1.0):
    return Request(TxnClass("w", deadline_s), "NewOrder", arrival, work)


def test_miss_rate_is_missed_rejected_lost_over_offered():
    recorder = LatencyRecorder()
    recorder.set_window(0.0, 10.0)
    late = on_time = 0
    for i in range(8):
        request = _request(1.0 + i, deadline_s=0.5)
        request.dispatch_time = request.arrival_time
        request.finish_time = request.arrival_time + (0.2 if i % 4 else 0.9)
        late += i % 4 == 0
        on_time += i % 4 != 0
        recorder.on_completion(request)
    recorder.on_rejection(_request(2.0, 0.5))
    for _ in range(2):
        recorder.on_lost(_request(3.0, 0.5))
    outside = _request(11.0, 0.5)
    outside.dispatch_time, outside.finish_time = 11.0, 13.0
    recorder.on_completion(outside)  # arrived after the window
    record = {"offered": recorder.total_offered,
              "missed": recorder.total_missed}
    assert (late, on_time) == (2, 6)
    assert record["offered"] == 8 + 1 + 2
    assert miss_rate([record]) == pytest.approx((2 + 1 + 2) / 11)
    assert miss_rate([record]) == recorder.failure_rate
    # Pooled over cells: summed counts, not a mean of rates.
    other = {"offered": 89, "missed": 0}
    assert miss_rate([record, other]) == pytest.approx(5 / 100)
    assert miss_rate([]) == 0.0


def test_host_rate_weighs_each_distinct_cell_once():
    cells = [{"seed": 1, "offered": 100, "run_s": 1.0},
             {"seed": 2, "offered": 300, "run_s": 2.0}]
    assert host_rate(cells) == pytest.approx(400 / 3.0)
    # A run that stops after a third run of cell 1 still counts cell 1
    # once, at the mean of its host seconds.
    repeated = cells + [{"seed": 1, "offered": 100, "run_s": 2.0}]
    assert host_rate(repeated) == pytest.approx(400 / 3.5)


def _record(**changes):
    record = {key: 1 for key in FINGERPRINT}
    record.update(seed=7, mode=PLAIN, offered=10, completed=9, rejected=1,
                  lost=0, arrivals=None)
    record.update(changes)
    return record


def test_checks_catch_censoring_and_divergent_repeats():
    assert check_records([_record(), _record(mode=TRACED, arrivals=10)]) == []
    failures = check_records([_record(), _record(completed=8),
                              _record(mode=TRACED, arrivals=11)])
    assert [index for index, _ in failures] == [1, 1, 2]
    assert "offered 10 != completed 8" in failures[0][1]
    assert "differs from its plain run in completed" in failures[1][1]
    assert "11 arrivals in the test window" in failures[2][1]


def _tiny(scheme):
    return Workload(f"tiny-{scheme}", "test", 1, lambda seed: ExperimentConfig(
        benchmark="tpcc", scheme=scheme, load_fraction=0.9, slack=40.0,
        workers=4, warmup_seconds=0.2, test_seconds=0.5, seed=seed,
        trace=False))


@pytest.mark.parametrize("scheme", ["polaris", "ondemand"])
def test_tracing_leaves_the_simulation_unchanged(scheme):
    workload = _tiny(scheme)
    plain = run_cell(workload.make_config(3), PLAIN)
    trace = LayerTrace()
    traced = run_cell(workload.make_config(3), TRACED, trace)
    assert check_records([plain, traced]) == []
    assert traced["arrivals"] == traced["offered"] > 0
    metrics = trace.metrics([traced], 1, 1.0)
    assert metrics["sim.events"] == plain["sim_events"]
    assert metrics["workloads.arrival.calls"] >= plain["offered"]
    # OnDemand's FIFO dispatcher never touches the EDF queue.
    edf_pushes = metrics["db.submit.calls"] if scheme == "polaris" else 0
    assert metrics["db.queue.push.calls"] == edf_pushes
    decisions = metrics["core.select_frequency.calls"]
    if scheme == "polaris":
        assert decisions > 0
        assert metrics["core.estimator.observe.setup_calls"] > 0
        assert metrics["governors.target_frequency.calls"] == 0
        assert sum(metrics[f"core.select_frequency.depth_{b}.calls"]
                   for b in ("le4", "5-16", "17-64", "gt64")) == decisions
    else:
        assert decisions == 0
        assert metrics["governors.target_frequency.calls"] > 0
    # Wrappers are gone once the cell ends.
    from repro.db.server import DatabaseServer
    assert not hasattr(DatabaseServer.submit, "__wrapped__")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in PER_LAYER]

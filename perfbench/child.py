"""Run one workload in a fresh process and print its raw results.

``run.py`` starts this script once per workload, so ``peak_rss_mb`` is
the peak of a process that ran that workload alone.  The last line of
standard output is one JSON object (see :func:`main`).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import time
import traceback
from contextlib import ExitStack
from typing import List, Optional

from cells import WORKLOADS, Workload, arrival_window
from layers import LayerTrace
from report import check_records, end_to_end, host_rate
from spans import patched

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.sim.engine import Simulator
from repro.workloads.arrivals import OpenLoopGenerator

#: Environment switches the program reads; the benchmark sets them
#: itself, so a caller's shell cannot change what is measured.
PROGRAM_ENV = ("REPRO_SIMSAN", "REPRO_TRACE", "REPRO_FAULTS")

PLAIN, TRACED, WARMUP, SIMSAN = "plain", "traced", "warm-up", "simsan"

#: The clock of every timing the metrics use: CPU seconds of this
#: process, so that time the shared host gives to other tenants, while
#: this process waits, is not counted as the program's.  The time
#: budget of a run is kept on the wall clock.
host_clock = time.process_time

#: Extra set-ups after each untraced timed cell, each stopped at
#: its first ``Simulator.run``, so that ``setup_s`` is a median over
#: many samples spread over the whole run, as the host's speed drifts.
SETUP_SAMPLES_PER_CELL = 3


class SetupDone(Exception):
    """Stops a set-up-only cell at its first ``Simulator.run``."""


class CellProbe:
    """Times one cell's set-up and, when asked, counts its arrivals.

    Set-up is host time from ``run_experiment`` entry to the first
    ``Simulator.run``.  Counting wraps each arrival callback so that
    offered transactions can be checked against an independent count.
    With ``setup_only`` the cell stops where its set-up ends.
    """

    def __init__(self, window, count_arrivals: bool = False, trace=None,
                 setup_only: bool = False):
        self.window = window
        self.first_run: Optional[float] = None
        self.arrivals: Optional[int] = 0 if count_arrivals else None
        self.trace = trace
        self.setup_only = setup_only

    def replacements(self):
        out = [(Simulator, "run", self._time_first_run)]
        if self.arrivals is not None:
            out.append((OpenLoopGenerator, "__init__", self._count_arrivals))
        return out

    def _time_first_run(self, run):
        def first_run(sim, *args, **kwargs):
            if self.first_run is None:
                self.first_run = host_clock()
                if self.setup_only:
                    raise SetupDone
                if self.trace is not None:
                    self.trace.enter_run()
            return run(sim, *args, **kwargs)
        return first_run

    def _count_arrivals(self, init):
        start, end = self.window

        def counting_init(generator, sim, rate, on_arrival, rng):
            def counted(now):
                if start <= now < end:
                    self.arrivals += 1
                on_arrival(now)
            init(generator, sim, rate, counted, rng)
        return counting_init


def run_cell(config: ExperimentConfig, mode: str,
             trace: Optional[LayerTrace] = None) -> dict:
    """Build and run one cell; return its timings and results."""
    # Start every cell from a collected heap, so no cell pays for the
    # garbage of the one before it.
    gc.collect()
    probe = CellProbe(arrival_window(config), count_arrivals=mode != PLAIN,
                      trace=trace)
    with ExitStack() as stack:
        if trace is not None:
            trace.enter_setup()
            stack.enter_context(patched(trace.replacements()))
        stack.enter_context(patched(probe.replacements()))
        start = host_clock()
        result = run_experiment(config)
        end = host_clock()
    actions = result.fleet_actions
    return {
        "seed": config.seed, "mode": mode,
        "setup_s": probe.first_run - start,
        "run_s": end - probe.first_run,
        "offered": result.offered, "completed": result.completed,
        "rejected": result.rejected, "lost": result.lost,
        "missed": result.missed, "failure_rate": result.failure_rate,
        "power_w": result.avg_power_watts, "sim_events": result.sim_events,
        "routed_reads": actions.get("routed_reads", 0),
        "replica_reads": actions.get("replica_reads", 0),
        "stale_read_bounces": actions.get("stale_read_bounces", 0),
        "boots": actions.get("boots", 0), "drains": actions.get("drains", 0),
        "arrivals": probe.arrivals,
    }


def time_setup(workload: Workload, seed: int) -> float:
    """Host seconds one cell takes to set up."""
    config = workload.make_config(seed)
    gc.collect()
    probe = CellProbe(arrival_window(config), setup_only=True)
    with patched(probe.replacements()):
        start = host_clock()
        try:
            run_experiment(config)
        except SetupDone:
            pass
    return probe.first_run - start


def run_cells(workload: Workload, seed: int, seconds: float,
              traced: bool):
    """Run the run's distinct cells round-robin for ``seconds``.

    Untraced runs make only plain cells and may stop after any cell
    once every distinct cell has run.  Traced runs alternate whole
    plain and traced passes, so each traced cell has an untraced twin,
    and stop only after a pass, the second at the earliest.  Another
    cell (pass, when traced) starts only if it is expected to end within
    the budget.  Each plain cell is followed by set-up-only samples.
    Returns the records in run order, the set-up samples and the trace.
    """
    seeds = workload.cell_seeds(seed)
    trace = LayerTrace() if traced else None
    unit = len(seeds) if traced else 1
    least = 2 * len(seeds) if traced else len(seeds)
    records: List[dict] = []
    setups: List[float] = []
    durations: List[float] = []
    started = begin = time.perf_counter()
    for k in itertools.count(1):
        turn, index = divmod(k - 1, len(seeds))
        mode = TRACED if traced and turn % 2 else PLAIN
        records.append(run_cell(workload.make_config(seeds[index]), mode,
                                trace if mode == TRACED else None))
        if mode == PLAIN:
            setups += [time_setup(workload, seeds[index])
                       for _ in range(SETUP_SAMPLES_PER_CELL)]
        if k % unit:
            continue
        now = time.perf_counter()
        durations.append(now - begin)
        begin = now
        if k >= least and \
                now - started + sum(durations) / len(durations) > seconds:
            return records, setups, trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    workload = WORKLOADS[args.workload]
    out = {"workload": workload.name, "attempted": 0, "failed": 0,
           "checks": [], "records": []}
    try:
        # An untimed short cell first, so that the timed ones find the
        # program's lazy imports done and the interpreter's heap grown.
        short = workload.short_config(args.seed)
        warm = run_cell(short, WARMUP)
        cells, setups, trace = run_cells(workload, args.seed, args.seconds,
                                         traced=bool(args.trace))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # The short cell again with simsan on, outside the timed
        # cells: invariants hold and the result matches the warm-up.
        os.environ["REPRO_SIMSAN"] = "1"
        try:
            simsan = run_cell(short, SIMSAN)
        finally:
            del os.environ["REPRO_SIMSAN"]
        records = cells + [warm, simsan]
        out["records"] = records
        out["attempted"] = len(records)
        failures = check_records(records)
        out["failed"] = len({index for index, _ in failures})
        out["checks"] = [message for _, message in failures]
        plain = [r for r in cells if r["mode"] == PLAIN]
        out["end_to_end"] = end_to_end(plain, setups, peak_rss_mb)
        if trace is not None:
            traced = [r for r in cells if r["mode"] == TRACED]
            overhead = (host_rate(traced)
                        / out["end_to_end"]["txn_per_host_s"])
            out["per_layer"] = trace.metrics(
                traced, len(traced) // workload.cells_per_run, overhead)
    except Exception:  # a boundary: report the failure, never a number
        out["checks"].append("run failed:\n" + traceback.format_exc())
        out["attempted"] = max(out["attempted"], 1)
        out["failed"] = out["attempted"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()

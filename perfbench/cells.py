"""The benchmark's workloads: seeded experiment cells.

Each workload is one :class:`~repro.harness.experiment.ExperimentConfig`
shape.  A run of the benchmark simulates ``cells_per_run`` distinct
cells of that shape, whose seeds derive from the run's ``--seed``, and
repeats them while its time budget lasts.  All four workloads are open
loop: arrivals follow the rate schedule whatever the program does, so
the offered transactions are fixed by the seed.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.fleet.config import FleetConfig
from repro.harness.experiment import ExperimentConfig
from repro.workloads.traces import normalize, synthesize_diurnal_trace

#: The pinned fleet acceptance trace: 16 virtual seconds of the diurnal
#: shape from trace seed 7, scaled 1000x, then normalized.
DIURNAL_SECONDS = 16
DIURNAL_TRACE_SEED = 7
DIURNAL_SCALE = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells_per_run: int
    make_config: Callable[[int], ExperimentConfig]

    def cell_seeds(self, seed: int) -> List[int]:
        """Seeds of the run's distinct cells; disjoint across ``seed``."""
        return [seed * 100 + k for k in range(self.cells_per_run)]

    def short_config(self, seed: int) -> ExperimentConfig:
        """A half-second cell of the same shape, on a seed none of the
        run's cells use: the untimed warm-up and the simsan check."""
        config = self.make_config(seed * 100 + 99)
        return dataclasses.replace(
            config, test_seconds=min(config.test_seconds, 0.5),
            load_trace=config.load_trace[:2] if config.load_trace else None)


def _server_cell(scheme: str) -> Callable[[int], ExperimentConfig]:
    def make(seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            benchmark="tpcc", scheme=scheme, load_fraction=0.9, slack=40.0,
            workers=4, warmup_seconds=1.0, test_seconds=8.0, seed=seed,
            trace=False)
    return make


def _ycsb_fleet_cell(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        benchmark="ycsb-b", scheme="polaris", load_fraction=0.3, slack=40.0,
        warmup_seconds=0.5, test_seconds=1.5, seed=seed, trace=False,
        fleet=FleetConfig(shards=2, replicas_per_shard=1, node_workers=2,
                          elastic=False))


def diurnal_trace() -> List[float]:
    return normalize(synthesize_diurnal_trace(
        DIURNAL_SECONDS, random.Random(DIURNAL_TRACE_SEED),
        peak_rate_scale=DIURNAL_SCALE))


def _diurnal_fleet_cell(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        benchmark="tpcc", scheme="polaris", slack=60.0, warmup_seconds=0.5,
        drain_limit_seconds=5.0, seed=seed, load_trace=diurnal_trace(),
        trace_low_fraction=0.1, trace_high_fraction=0.4, trace=False,
        fleet=FleetConfig(elastic=True))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("server-polaris-tpcc",
             "POLARIS at load 0.9, slack 40: deep EDF queues, so the "
             "POLARIS walk (core) and EdfQueue (db) do most of the host "
             "work",
             7, _server_cell("polaris")),
    Workload("server-ondemand-tpcc",
             "same arrivals under OnDemand: core is never called, so sim, "
             "cpu and governors dominate and a core change must not move "
             "it",
             7, _server_cell("ondemand")),
    Workload("fleet-ycsb-b",
             "static 2x(1+1) fleet, YCSB-B at load 0.3: the read path "
             "(fleet.route, replica staleness) and the most completions "
             "per run",
             3, _ycsb_fleet_cell),
    Workload("fleet-tpcc-diurnal",
             "elastic fleet on the pinned diurnal trace, TPC-C (~92% "
             "writes): write routing plus ElasticController boots and "
             "drains",
             7, _diurnal_fleet_cell),
)}


def arrival_window(config: ExperimentConfig):
    """``[start, end)`` of the cell's measured arrivals."""
    start = config.warmup_seconds
    duration = len(config.load_trace) if config.load_trace is not None \
        else config.test_seconds
    return start, start + duration

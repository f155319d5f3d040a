"""The repository benchmark: host cost of the POLARIS simulation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload server-polaris-tpcc --seed 1 \\
        --seconds 28 --trace 0

``--workload all`` runs every workload, one fresh process each, one at
a time.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps the program's layer entry points and prints the per-layer
metrics and the tracing overhead.  Every run checks the simulation's
outputs (see ``report.check_records``) and reruns one short cell with
simsan on.  Host times are CPU seconds of the measuring process, so
that time a shared host gives to other tenants is not counted.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (cell runs checked), ``failed`` (cell runs
that failed a check) and ``metrics``.  A run that cannot measure, such
as one in a directory without ``src/repro``, exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Host seconds one workload may take before its process is killed.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, args) -> dict:
    """Run one workload in a fresh interpreter; return its JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # subprocess.run kills the child and waits for it on timeout.
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload}: child exited {done.returncode}\n"
                           f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_workload(out: dict, trace: bool) -> dict:
    """Print one workload's metrics, checks and health; return the
    metrics for the result line."""
    from cells import WORKLOADS
    from layers import PER_LAYER
    from report import END_TO_END, MISS_RATE, health, miss_rate

    name = out["workload"]
    distinct = WORKLOADS[name].cells_per_run
    cells = out["records"][:distinct]  # the first pass: each cell once
    print(f"== {name}: {WORKLOADS[name].why}")
    print(f"   cells: {distinct} distinct, "
          f"{out['attempted']} runs (timed cells, warm-up, simsan), "
          f"{out['failed']} failed")
    if trace:
        metrics = out["per_layer"]
        for metric, unit, _better, moves in PER_LAYER:
            print(f"   {metric:44s} {metrics[metric]:>16.6g} {unit:8s} "
                  f"-> {moves}")
        units = {m: u for m, u, _b, _moves in PER_LAYER}
    else:
        metrics = out["end_to_end"]
        for metric, unit, _better in END_TO_END:
            print(f"   {metric:16s} {metrics[metric]:>14.6g} {unit}")
        rate_name, rate_unit, _better = MISS_RATE
        print(f"   {rate_name:16s} {miss_rate(cells):>14.6g} "
              f"{rate_unit}  (a per-layer metric, not gated)")
        units = {m: u for m, u, _b in END_TO_END}
    for line in health(name, cells):
        print(f"   health: {line}")
    for check in out["checks"]:
        print(f"   CHECK FAILED: {check}")
    return {metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()}


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    # The benchmark's modules import the program.
    sys.path[:0] = [str(HERE), str(SRC)]
    from cells import WORKLOADS
    from report import provenance

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance", json.dumps(provenance(ROOT, args.seed)))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            out = run_child(name, args)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
        if "end_to_end" not in out:
            print("perfbench: " + "\n".join(out["checks"]), file=sys.stderr)
            return 1
        metrics = print_workload(out, bool(args.trace))
        result["correct"] = result["correct"] and not out["checks"]
        result["attempted"] += out["attempted"]
        result["failed"] += out["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        result["metrics"].update(
            {prefix + metric: value for metric, value in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

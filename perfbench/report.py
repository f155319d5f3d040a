"""End-to-end metrics, correctness checks, health lines and provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Sequence, Tuple

#: Every end-to-end metric: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("txn_per_host_s", "txn/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("power_w", "W", "lower"),
)

#: Printed with the end-to-end metrics but gated nowhere: it is a
#: simulated outcome whose spread across seeds is wider than any bound
#: and which is 0 on fleet-ycsb-b.  It is a per-layer metric instead.
MISS_RATE = ("miss_rate", "ratio", "lower")

#: Result fields a pure optimization must leave identical, per cell.
FINGERPRINT = ("offered", "completed", "rejected", "lost", "missed",
               "power_w", "sim_events", "routed_reads", "replica_reads",
               "stale_read_bounces", "boots", "drains")

#: Health envelopes: warn, never fail.
MISS_RATE_WARN = 0.95
REPLICA_READ_SHARE_WARN = 0.05
REPLICA_READ_WORKLOAD = "fleet-ycsb-b"


def miss_rate(records: Sequence[dict]) -> float:
    """(missed + rejected + lost) / offered, pooled over ``records``.

    A record's ``missed`` is the harness recorder's count, which
    already holds rejections and losses besides late completions; so
    this is ``failure_rate`` pooled.
    """
    offered = sum(r["offered"] for r in records)
    return sum(r["missed"] for r in records) / offered if offered else 0.0


def host_rate(records: Sequence[dict]) -> float:
    """Offered transactions per host second after set-up, over the
    distinct cells of ``records``.

    A cell's host seconds are the mean over its runs, so a cell that
    ran once more than the others (a run stops after any cell) weighs
    no more than they do.
    """
    runs: Dict[int, List[float]] = {}
    offered: Dict[int, int] = {}
    for r in records:
        runs.setdefault(r["seed"], []).append(r["run_s"])
        offered[r["seed"]] = r["offered"]
    return sum(offered.values()) / sum(mean(v) for v in runs.values())


def end_to_end(records: Sequence[dict], setups: Sequence[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """End-to-end metrics from the untraced cells of one run.

    ``setup_s`` is the median over every cell set-up in ``records`` and
    the extra set-up-only samples ``setups``; ``txn_per_host_s`` is
    :func:`host_rate` over the whole run; ``power_w`` the mean over the
    run's distinct cells.  Times are host CPU seconds.
    """
    power = {r["seed"]: r["power_w"] for r in records}
    return {
        "setup_s": median([r["setup_s"] for r in records] + list(setups)),
        "txn_per_host_s": host_rate(records),
        "peak_rss_mb": peak_rss_mb,
        "power_w": sum(power.values()) / len(power),
    }


def check_records(records: Sequence[dict]) -> List[Tuple[int, str]]:
    """Failed correctness checks over every cell execution of a run, as
    ``(index of the record, message)``."""
    failures = []
    reference: Dict[int, dict] = {}
    for index, r in enumerate(records):
        where = f"cell seed {r['seed']} ({r['mode']})"

        def fail(message: str) -> None:
            failures.append((index, f"{where}: {message}"))

        if r["offered"] <= 0:
            fail("nothing offered")
        if r["offered"] != r["completed"] + r["rejected"] + r["lost"]:
            fail(f"offered {r['offered']} != completed "
                f"{r['completed']} + rejected {r['rejected']} + lost "
                f"{r['lost']}")
        if r["arrivals"] is not None and r["arrivals"] != r["offered"]:
            fail(f"{r['arrivals']} arrivals in the test window but "
                 f"{r['offered']} offered")
        first = reference.setdefault(r["seed"], r)
        changed = [k for k in FINGERPRINT if r[k] != first[k]]
        if changed:
            fail(f"differs from its {first['mode']} run in "
                 f"{', '.join(changed)}")
    return failures


def health(workload: str, records: Sequence[dict]) -> List[str]:
    """Warnings for degenerate cells; they never fail the run."""
    lines = []
    rate = miss_rate(records)
    if rate >= MISS_RATE_WARN:
        lines.append(f"WARN {workload}: miss_rate {rate:.4f} >= "
                     f"{MISS_RATE_WARN} (the cell is saturated)")
    reads = sum(r["routed_reads"] for r in records)
    if workload == REPLICA_READ_WORKLOAD and reads:
        share = sum(r["replica_reads"] for r in records) / reads
        if share < REPLICA_READ_SHARE_WARN:
            lines.append(
                f"WARN {workload}: fleet.replica_read_share {share:.6f} < "
                f"{REPLICA_READ_SHARE_WARN} (replicas serve almost no "
                f"reads; primaries carry them)")
    return lines


def provenance(root: Path, seed: int) -> Dict[str, object]:
    """Where and on what code the numbers were taken."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": _git_dirty(root),
        "src_sha256": source_digest(root / "src"),
        "seed": seed,
    }


def source_digest(src: Path) -> str:
    """SHA-256 over the paths and bytes of every ``.py`` under ``src``:
    identifies the code when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(root: Path, *args: str):
    # The ceiling keeps git from answering for a repository that merely
    # contains the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _git_dirty(root: Path):
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status)

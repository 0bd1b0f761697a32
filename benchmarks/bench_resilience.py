"""Benchmark — what cooperative deadline checkpoints cost.

One workload, A/B-verified bit-identical against the naive engine:

* **checkpoint_overhead** — per-query latency of a warm grouped aggregation
  *with* an (unexpiring) ``QueryDeadline`` threaded through every
  cooperative checkpoint vs the same engine with no deadline at all.  The
  floor guards the overhead promise: deadline checkpoints must cost no more
  than ~5% of the query (speedup = no-deadline seconds / with-deadline
  seconds >= 0.95).

Results are written to ``benchmarks/BENCH_resilience.json``.  Run standalone
with ``PYTHONPATH=src python benchmarks/bench_resilience.py`` — the
standalone path also diffs against the committed baseline via
``compare_bench`` and fails on any floor regression.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.faults import QueryDeadline
from repro.sqlengine import Database

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_resilience.json"

ROWS = 600_000
QUICK_ROWS = 120_000

GROUP_SQL = (
    "SELECT region, count(*) AS n, sum(qty) AS total "
    "FROM sales GROUP BY region ORDER BY region"
)

FLOORS = {"checkpoint_overhead": 0.95}


def _sales_columns(quick: bool) -> dict:
    rows = QUICK_ROWS if quick else ROWS
    rng = np.random.default_rng(13)
    return {
        "order_id": np.arange(rows),
        "region": rng.choice(["east", "west", "north", "south", None], rows).astype(object),
        "qty": rng.integers(-100, 100, rows),
        "value": rng.gamma(2.0, 8.0, rows),
    }


def run(quick: bool = False) -> dict:
    """Run the workload, A/B-verify results, and write the comparison JSON."""
    cores = os.cpu_count() or 1
    report: dict = {"unit": "seconds_per_query", "cores": cores, "workloads": {}}
    columns = _sales_columns(quick)
    repeats = 8 if quick else 20

    naive = Database(seed=0, optimize=False)
    naive.register_table("sales", columns)
    expected = naive.execute(GROUP_SQL)

    engine = Database(seed=0)
    engine.register_table("sales", columns)
    engine.execute(GROUP_SQL)  # warmup: dictionary codes, statement and plan caches

    def batch(with_deadline: bool) -> float:
        started = time.perf_counter()
        for _ in range(repeats):
            deadline = QueryDeadline(3600.0) if with_deadline else None
            batch.result = engine.execute(GROUP_SQL, deadline=deadline)
        return (time.perf_counter() - started) / repeats

    # Alternate the arms and keep each arm's best batch: on small shared
    # machines scheduler noise between two single back-to-back loops easily
    # exceeds the few checkpoint calls being measured.
    bare_seconds = guarded_seconds = float("inf")
    for _ in range(3):
        bare_seconds = min(bare_seconds, batch(False))
        bare_result = batch.result
        guarded_seconds = min(guarded_seconds, batch(True))
        guarded_result = batch.result
    if not bare_result.equals(expected) or not guarded_result.equals(expected):
        raise AssertionError("checkpoint_overhead: a fast path changed the results")
    report["workloads"]["checkpoint_overhead"] = {
        "baseline": "warm grouped aggregation without a deadline",
        "baseline_seconds": round(bare_seconds, 6),
        "optimized_seconds": round(guarded_seconds, 6),
        "speedup": round(bare_seconds / guarded_seconds, 2),
        "floor": FLOORS["checkpoint_overhead"],
        "repeats": repeats,
    }

    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_resilience_floors(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["Fault tolerance — checkpoint overhead"] = rows
    for name, metrics in records["workloads"].items():
        assert metrics["speedup"] >= metrics["floor"], (name, metrics)


if __name__ == "__main__":
    fresh = run(quick=bool(os.environ.get("BENCH_QUICK")))
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

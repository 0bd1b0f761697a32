"""Benchmark — process-sharded aggregation over shared-memory column shards.

Two workloads exercise the ``parallel_exec`` subsystem, each A/B-verified
bit-identical against ``Database(optimize=False)`` (and each asserted, via
``Database.stats``, to have actually taken its fast path):

* **parallel_group_agg** — grouped aggregation (sum/count/min/max over a
  low-cardinality key) on a 1.2M-row table with ``Database(parallel_exec=4)``
  vs the same optimized engine executing serially.  The 2.5x floor assumes
  >= 4 CPU cores (``FLOOR_MIN_CORES``); smaller machines record the honest
  measurement and skip the floor.
* **shm_dispatch** — the publish-once design: per-query latency on a *warm*
  shard pool (columns already living in ``multiprocessing.shared_memory``)
  vs a naive per-query pool that respawns workers and republishes the
  columns every time.  The workload also proves "zero per-query column
  pickling" by counters: ``shard_publications`` stays at 1 while
  ``parallel_exec_dispatches`` grows with every query.

Results are written to ``benchmarks/BENCH_parallel.json``.  Run standalone
with ``PYTHONPATH=src python benchmarks/bench_parallel_agg.py`` — the
standalone path also diffs against the committed baseline via
``compare_bench`` and fails on any floor regression.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.sqlengine import Database

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"

ROWS = 1_200_000
QUICK_ROWS = 200_000
PARALLEL_WORKERS = 4
DISPATCH_WORKERS = 2

GROUP_SQL = (
    "SELECT region, count(*) AS n, sum(qty) AS total, "
    "min(value) AS lo, max(value) AS hi FROM sales GROUP BY region ORDER BY region"
)

FLOORS = {"parallel_group_agg": 2.5, "shm_dispatch": 1.3}


def _sales_columns(quick: bool) -> dict:
    rows = QUICK_ROWS if quick else ROWS
    rng = np.random.default_rng(13)
    return {
        "order_id": np.arange(rows),
        "region": rng.choice(["east", "west", "north", "south", None], rows).astype(object),
        "qty": rng.integers(-100, 100, rows),
        "value": rng.gamma(2.0, 8.0, rows),
    }


def _build_engine(columns: dict, optimize: bool = True, parallel_exec: int | None = None) -> Database:
    engine = Database(seed=0, optimize=optimize, parallel_exec=parallel_exec)
    engine.register_table("sales", columns)
    return engine


def _time_workload(engine: Database, sql: str, repeats: int):
    result = engine.execute(sql)  # warmup: caches, dictionaries, publication
    started = time.perf_counter()
    for _ in range(repeats):
        result = engine.execute(sql)
    return (time.perf_counter() - started) / repeats, result


def run(quick: bool = False) -> dict:
    """Run every workload, A/B-verify results, and write the comparison JSON."""
    cores = os.cpu_count() or 1
    report: dict = {"unit": "seconds_per_query", "cores": cores, "workloads": {}}
    columns = _sales_columns(quick)
    repeats = 6 if quick else 15

    naive = _build_engine(columns, optimize=False)

    # -- parallel_group_agg: process-sharded grouped aggregation ------------
    parallel = _build_engine(columns, parallel_exec=PARALLEL_WORKERS)
    serial = _build_engine(columns)
    try:
        par_seconds, par_result = _time_workload(parallel, GROUP_SQL, repeats)
        ser_seconds, ser_result = _time_workload(serial, GROUP_SQL, repeats)
        _, naive_result = _time_workload(naive, GROUP_SQL, 1)
        if not par_result.equals(naive_result) or not ser_result.equals(naive_result):
            raise AssertionError("parallel_group_agg: fast paths changed the results")
        if parallel.exec_workers >= 2 and not parallel.stats["parallel_exec_dispatches"]:
            raise AssertionError("parallel_group_agg: the sharded path never ran")
        if parallel.stats["parallel_exec_fallbacks"]:
            raise AssertionError("parallel_group_agg: the sharded path fell back")
        report["workloads"]["parallel_group_agg"] = {
            "baseline": "serial optimized grouped aggregation",
            "baseline_seconds": round(ser_seconds, 6),
            "optimized_seconds": round(par_seconds, 6),
            "speedup": round(ser_seconds / par_seconds, 2),
            "floor": FLOORS["parallel_group_agg"],
            "floor_min_cores": 4,
            "workers": PARALLEL_WORKERS,
            "repeats": repeats,
        }
    finally:
        parallel.close()

    # -- shm_dispatch: warm shared-memory pool vs per-query spawn+publish ---
    warm = _build_engine(columns, parallel_exec=DISPATCH_WORKERS)
    try:
        warm_seconds, warm_result = _time_workload(warm, GROUP_SQL, repeats)
        # Publish-once proof: after the warmup published the table, every
        # timed query dispatched without moving a single column byte.
        if warm.exec_workers >= 2:
            if warm.stats["shard_publications"] != 1:
                raise AssertionError("shm_dispatch: columns were republished per query")
            if warm.stats["parallel_exec_dispatches"] < repeats + 1:
                raise AssertionError("shm_dispatch: queries did not dispatch to the pool")
        if not warm_result.equals(naive_result):
            raise AssertionError("shm_dispatch: warm pool changed the results")
        cold_repeats = max(3, repeats // 3)
        started = time.perf_counter()
        for _ in range(cold_repeats):
            warm.close()  # kill workers, unlink segments: next query rebuilds all
            cold_result = warm.execute(GROUP_SQL)
        cold_seconds = (time.perf_counter() - started) / cold_repeats
        if not cold_result.equals(naive_result):
            raise AssertionError("shm_dispatch: cold pool changed the results")
        report["workloads"]["shm_dispatch"] = {
            "baseline": "per-query worker spawn + column publication",
            "baseline_seconds": round(cold_seconds, 6),
            "optimized_seconds": round(warm_seconds, 6),
            "speedup": round(cold_seconds / warm_seconds, 2),
            "floor": FLOORS["shm_dispatch"],
            "floor_min_cores": 2,
            "workers": DISPATCH_WORKERS,
            "repeats": repeats,
        }
    finally:
        warm.close()

    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_parallel_agg_speedups(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["Process-sharded aggregation — shared-memory shards"] = rows
    for name, metrics in records["workloads"].items():
        if records["cores"] < metrics.get("floor_min_cores", 0):
            continue  # hardware-gated floor (FLOOR_MIN_CORES)
        assert metrics["speedup"] >= metrics["floor"], (name, metrics)


if __name__ == "__main__":
    fresh = run(quick=bool(os.environ.get("BENCH_QUICK")))
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

"""Benchmark — storage round 4: zone-map aggregates and merge joins.

Two workloads exercise the round-4 fast paths, each A/B-verified
bit-identical against ``Database(optimize=False)`` (and each asserted, via
``Database.stats``, to have actually taken its fast path):

* **minmax_zone** — ``MIN``/``MAX``/``COUNT`` over an unfiltered 1.2M-row
  table: the optimized engine answers from the per-chunk zone maps (O(chunks)
  after the first build) instead of scanning; the baseline is the naive
  engine's full aggregate scan.
* **merge_join_sid** — the paper's scramble layout: a sid-clustered scramble
  (built by ``SampleBuilder``, which records ``Table.clustered_on`` through
  ``create_table_sorted_copy``) joined on ``vdb_sid`` to a per-sid summary
  derived table that ends in ``ORDER BY vdb_sid``.  Both inputs are provably
  clustered on the join key, so the planner picks the sorted-merge join; the
  baseline is the *same optimized engine* with the clustering metadata wiped,
  which forces the hash join (union dictionary + argsort) over identical
  data — the measured win is purely merge-vs-hash.

Results are written to ``benchmarks/BENCH_round4.json``.  Run standalone with
``PYTHONPATH=src python benchmarks/bench_round4.py`` — the standalone path
also diffs against the committed baseline via ``compare_bench`` and fails on
any floor regression.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.connectors import BuiltinConnector
from repro.sampling import SampleBuilder, SampleSpec
from repro.sqlengine import Database

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_round4.json"

READING_ROWS = 1_200_000
QUICK_READING_ROWS = 200_000
SCRAMBLE_BASE_ROWS = 600_000
QUICK_SCRAMBLE_BASE_ROWS = 120_000
SCRAMBLE_RATIO = 0.5

MINMAX_SQL = (
    "SELECT min(value) AS lo, max(value) AS hi, count(*) AS n, "
    "count(value) AS nv FROM readings"
)

FLOORS = {"minmax_zone": 5.0, "merge_join_sid": 1.2}


def _readings_columns(quick: bool) -> dict:
    rows = QUICK_READING_ROWS if quick else READING_ROWS
    rng = np.random.default_rng(7)
    return {
        "order_id": np.arange(rows),
        "value": rng.gamma(2.0, 8.0, rows),
    }


def _build_reading_engine(columns: dict, optimize: bool) -> Database:
    engine = Database(seed=0, optimize=optimize)
    engine.register_table("readings", columns)
    return engine


def _build_scramble_engine(optimize: bool, quick: bool) -> tuple[Database, str]:
    rows = QUICK_SCRAMBLE_BASE_ROWS if quick else SCRAMBLE_BASE_ROWS
    engine = Database(seed=0, optimize=optimize)
    rng = np.random.default_rng(11)
    connector = BuiltinConnector(database=engine)
    connector.load_table(
        "orders",
        {
            "order_id": np.arange(rows),
            "price": np.round(rng.gamma(2.0, 8.0, rows), 2),
            "qty": rng.integers(1, 20, rows),
        },
    )
    builder = SampleBuilder(connector, subsample_count=100)
    info = builder.create_sample("orders", SampleSpec("uniform", (), SCRAMBLE_RATIO))
    assert info.sid_clustered
    # Per-sid summary table, clustered on the sid through the same
    # ``CREATE TABLE AS SELECT ... ORDER BY`` path the scramble itself used.
    engine.execute(
        f"CREATE TABLE sid_summary AS "
        f"SELECT vdb_sid AS sid, max(vdb_sampling_prob) AS prob "
        f"FROM {info.sample_table} GROUP BY vdb_sid ORDER BY sid"
    )
    assert engine.table("sid_summary").clustered_on == "sid"
    return engine, info.sample_table


def _merge_join_sql(sample_table: str) -> str:
    return (
        f"SELECT count(*) AS n, sum(s.price / d.prob) AS ht "
        f"FROM {sample_table} AS s INNER JOIN sid_summary AS d "
        f"ON s.vdb_sid = d.sid"
    )


def _time_workload(engine: Database, sql: str, repeats: int):
    result = engine.execute(sql)  # warmup: caches, dictionaries, zone maps
    started = time.perf_counter()
    for _ in range(repeats):
        result = engine.execute(sql)
    return (time.perf_counter() - started) / repeats, result


def run(quick: bool = False) -> dict:
    """Run every workload, A/B-verify results, and write the comparison JSON."""
    cores = os.cpu_count() or 1
    report: dict = {"unit": "seconds_per_query", "cores": cores, "workloads": {}}
    columns = _readings_columns(quick)
    repeats = 8 if quick else 20

    # -- minmax_zone: zone-map answering vs the naive full aggregate scan ----
    optimized = _build_reading_engine(columns, optimize=True)
    naive = _build_reading_engine(columns, optimize=False)
    fast_seconds, fast_result = _time_workload(optimized, MINMAX_SQL, repeats)
    slow_seconds, slow_result = _time_workload(naive, MINMAX_SQL, repeats)
    if not fast_result.equals(slow_result):
        raise AssertionError("minmax_zone: optimize=True changed the results")
    if not optimized.stats["zone_map_aggregates"]:
        raise AssertionError("minmax_zone: the zone-map fast path never ran")
    report["workloads"]["minmax_zone"] = {
        "baseline": "optimize=False full scan",
        "baseline_seconds": round(slow_seconds, 6),
        "optimized_seconds": round(fast_seconds, 6),
        "speedup": round(slow_seconds / fast_seconds, 2),
        "floor": FLOORS["minmax_zone"],
        "repeats": repeats,
    }

    # -- merge_join_sid: sorted-merge vs hash over identical clustered data --
    merge_engine, sample_table = _build_scramble_engine(optimize=True, quick=quick)
    hash_engine, hash_sample = _build_scramble_engine(optimize=True, quick=quick)
    naive_engine, naive_sample = _build_scramble_engine(optimize=False, quick=quick)
    assert sample_table == hash_sample == naive_sample
    # Wiping the clustering metadata forces the planner back onto the hash
    # join: same engine, same data, same plan otherwise.
    hash_engine.table(sample_table).clustered_on = None
    hash_engine.table("sid_summary").clustered_on = None
    sql = _merge_join_sql(sample_table)
    merge_seconds, merge_result = _time_workload(merge_engine, sql, repeats)
    hash_seconds, hash_result = _time_workload(hash_engine, sql, repeats)
    _, naive_result = _time_workload(naive_engine, sql, 1)
    if not merge_result.equals(naive_result) or not hash_result.equals(naive_result):
        raise AssertionError("merge_join_sid: fast paths changed the results")
    if not merge_engine.stats["merge_joins"]:
        raise AssertionError("merge_join_sid: the merge-join path never ran")
    if hash_engine.stats["merge_joins"]:
        raise AssertionError("merge_join_sid: the hash baseline took the merge path")
    report["workloads"]["merge_join_sid"] = {
        "baseline": "hash join (clustering metadata wiped)",
        "baseline_seconds": round(hash_seconds, 6),
        "optimized_seconds": round(merge_seconds, 6),
        "speedup": round(hash_seconds / merge_seconds, 2),
        "floor": FLOORS["merge_join_sid"],
        "repeats": repeats,
    }

    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_round4_speedups(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["Storage round 4 — zone-map aggregates, merge joins"] = rows
    for name, metrics in records["workloads"].items():
        assert metrics["speedup"] >= metrics["floor"], (name, metrics)


if __name__ == "__main__":
    fresh = run()
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

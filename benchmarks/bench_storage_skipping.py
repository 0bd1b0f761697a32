"""Benchmark — chunked storage with zone-map scan skipping.

Three workloads exercise the storage round (chunked columns, per-chunk zone
maps, plan-time zone-predicate classification, sid-clustered scrambles),
each run A/B against ``Database(optimize=False)`` — the naive engine scans
whole columns — and asserted to produce identical results:

* **selective_scan** — a selective numeric BETWEEN over a 1.2M-row table
  whose key column is clustered (tight zone maps): the optimized scan reads
  one chunk instead of 74.
* **selective_string** — a string equality over a run-clustered column: the
  zone maps carry normalized-key bounds, so the dictionary comparison never
  touches the skipped chunks.
* **scramble_sid** — the paper's scramble layout: a uniform sample built by
  ``SampleBuilder`` (which writes it clustered by ``vdb_sid``) read one
  subsample id at a time, the access pattern of variational subsampling.

Results are written to ``benchmarks/BENCH_storage.json``.  Run standalone
with ``PYTHONPATH=src python benchmarks/bench_storage_skipping.py`` — the
standalone path also diffs against the committed baseline via
``compare_bench`` and fails on any floor regression.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.connectors import BuiltinConnector
from repro.sampling import SID_COLUMN, SampleBuilder, SampleSpec
from repro.sqlengine import Database

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_storage.json"

READING_ROWS = 1_200_000
QUICK_READING_ROWS = 200_000
SCRAMBLE_BASE_ROWS = 600_000
QUICK_SCRAMBLE_BASE_ROWS = 120_000
SCRAMBLE_RATIO = 0.5

WORKLOADS = {
    "selective_scan": {
        # range rendered per run: [rows/2, rows/2 + 5999]
        "sql": (
            "SELECT count(*) AS n, sum(value) AS total, avg(value) AS mean "
            "FROM readings WHERE order_id BETWEEN {low} AND {high}"
        ),
        "repeats": 15,
        "floor": 3.0,
    },
    "selective_string": {
        "sql": (
            "SELECT count(*) AS n, sum(value) AS total "
            "FROM readings WHERE station = 'station_042'"
        ),
        "repeats": 15,
        "floor": 3.0,
    },
    "scramble_sid": {
        "sql": None,  # rendered once the sample table name is known
        "repeats": 30,
        "floor": 1.2,
    },
}


def _build_engine(optimize: bool, quick: bool = False) -> tuple[Database, str]:
    engine = Database(seed=0, optimize=optimize)
    rng = np.random.default_rng(7)
    reading_rows = QUICK_READING_ROWS if quick else READING_ROWS
    scramble_rows = QUICK_SCRAMBLE_BASE_ROWS if quick else SCRAMBLE_BASE_ROWS
    stations = np.array([f"station_{i:03d}" for i in range(100)], dtype=object)
    engine.register_table(
        "readings",
        {
            "order_id": np.arange(reading_rows),
            "value": rng.gamma(2.0, 8.0, reading_rows),
            # run-clustered string column: contiguous blocks per station
            "station": np.repeat(stations, reading_rows // len(stations)),
            "flag": rng.integers(0, 2, reading_rows),
        },
    )

    connector = BuiltinConnector(database=engine)
    connector.load_table(
        "orders",
        {
            "order_id": np.arange(scramble_rows),
            "price": np.round(rng.gamma(2.0, 8.0, scramble_rows), 2),
            "qty": rng.integers(1, 20, scramble_rows),
        },
    )
    builder = SampleBuilder(connector, subsample_count=100)
    info = builder.create_sample("orders", SampleSpec("uniform", (), SCRAMBLE_RATIO))
    sids = engine.table(info.sample_table).column(SID_COLUMN)
    assert np.all(np.diff(sids) >= 0)  # written in subsample-id order
    return engine, info.sample_table


def _time_workload(engine: Database, sql: str, repeats: int):
    result = engine.execute(sql)  # warmup: caches, dictionaries, zone maps
    started = time.perf_counter()
    for _ in range(repeats):
        result = engine.execute(sql)
    return (time.perf_counter() - started) / repeats, result


def run(quick: bool = False) -> dict:
    """Run every workload in both modes and write the comparison JSON.

    ``quick`` shrinks the tables and repeat counts for CI-sized runs.
    """
    optimized, sample_table = _build_engine(optimize=True, quick=quick)
    baseline, baseline_sample = _build_engine(optimize=False, quick=quick)
    assert sample_table == baseline_sample

    reading_rows = QUICK_READING_ROWS if quick else READING_ROWS
    scramble_sql = (
        f"SELECT count(*) AS n, sum(price / vdb_sampling_prob) AS ht, "
        f"avg(price) AS mean FROM {sample_table} WHERE vdb_sid = 17"
    )

    report: dict = {
        "unit": "seconds_per_query",
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    for name, spec in WORKLOADS.items():
        sql = spec["sql"] or scramble_sql
        sql = sql.format(low=reading_rows // 2, high=reading_rows // 2 + 5_999)
        repeats = max(3, spec["repeats"] // 4) if quick else spec["repeats"]
        optimized_seconds, optimized_result = _time_workload(optimized, sql, repeats)
        baseline_seconds, baseline_result = _time_workload(baseline, sql, repeats)
        if not optimized_result.equals(baseline_result):
            raise AssertionError(f"workload {name!r}: optimize=True changed the results")
        report["workloads"][name] = {
            "baseline_seconds": round(baseline_seconds, 6),
            "optimized_seconds": round(optimized_seconds, 6),
            "speedup": round(baseline_seconds / optimized_seconds, 2),
            "floor": spec["floor"],
            "repeats": repeats,
        }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_storage_skipping_speedups(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["Chunked storage — zone-map skipping vs full scans"] = rows
    for name, metrics in records["workloads"].items():
        # Conservative floors (observed speedups are far higher; see
        # BENCH_storage.json): the selective scans must win >= 3x, the
        # sid-clustered scramble read must show a measurable win.
        assert metrics["speedup"] >= metrics["floor"], (name, metrics)


if __name__ == "__main__":
    fresh = run()
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

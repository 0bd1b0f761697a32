"""Benchmark — planner hot paths: statement caches, pushdown, dictionary keys.

Three workloads exercise the perf subsystem added with the logical planner,
each run A/B against ``Database(optimize=False)`` (the naive executor with no
caches) and asserted to produce identical results:

* **repeated_statement** — the same analytical statement executed many times
  (the paper's repeated-dashboard traffic, Figure 5 scale-up): with the LRU
  statement + plan caches the per-call cost collapses to pure execution.
* **join_heavy** — a wide fact table joined to a dimension table with
  selective single-table predicates and a string GROUP BY: predicate
  pushdown filters before the join, projection pruning stops dead columns
  from being copied through ``Frame.take``, and join keys reuse memoized
  dictionary codes.
* **string_group** — a large string-keyed aggregation: grouping consumes the
  table's cached dictionary codes instead of re-encoding the column per
  query.

Results are written to ``benchmarks/BENCH_planner.json`` so the perf
trajectory is tracked from this PR onward.  Run standalone with
``PYTHONPATH=src python benchmarks/bench_planner_hotpath.py``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.sqlengine import Database

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_planner.json"

SEGMENTS = ["consumer", "corporate", "home office", "government", "smb"]
CITIES = ["ann arbor", "detroit", "chicago", "nyc", "boston", "austin", "seattle", "la"]


def _build_engine(optimize: bool, quick: bool = False) -> Database:
    engine = Database(seed=0, optimize=optimize)
    rng = np.random.default_rng(42)

    fact_rows = 12_000 if quick else 60_000
    engine.register_table(
        "orders",
        {
            "order_id": np.arange(fact_rows),
            "customer_id": rng.integers(0, 2_000, fact_rows),
            "price": np.round(rng.gamma(2.0, 8.0, fact_rows), 2),
            "qty": rng.integers(1, 20, fact_rows),
            "discount": rng.random(fact_rows),
            "city": rng.choice(np.array(CITIES, dtype=object), fact_rows),
            "status": rng.choice(np.array(["open", "closed", "returned"], dtype=object), fact_rows),
            # dead weight that pruning should never copy through the join
            "note_1": rng.choice(np.array([f"n{i}" for i in range(50)], dtype=object), fact_rows),
            "note_2": rng.normal(size=fact_rows),
            "note_3": rng.normal(size=fact_rows),
            "note_4": rng.choice(np.array([f"m{i}" for i in range(50)], dtype=object), fact_rows),
            "note_5": rng.normal(size=fact_rows),
        },
    )
    engine.register_table(
        "customers",
        {
            "customer_id": np.arange(2_000),
            "segment": np.array([SEGMENTS[i % len(SEGMENTS)] for i in range(2_000)], dtype=object),
            "name": np.array([f"customer_{i}" for i in range(2_000)], dtype=object),
            "address": np.array([f"{i} main st" for i in range(2_000)], dtype=object),
        },
    )

    group_rows = 40_000 if quick else 200_000
    engine.register_table(
        "events",
        {
            "kind": rng.choice(np.array([f"kind_{i}" for i in range(24)], dtype=object), group_rows),
            "source": rng.choice(np.array(CITIES, dtype=object), group_rows),
            "value": rng.exponential(3.0, group_rows),
        },
    )
    return engine


WORKLOADS = {
    # A syntactically meaty statement over a small table: per-call cost is
    # dominated by parse + plan, which the caches eliminate.
    "repeated_statement": {
        "sql": (
            "SELECT city, status, count(*) AS n, sum(price * qty) AS revenue, "
            "avg(price) AS avg_price, min(discount) AS lo, max(discount) AS hi "
            "FROM orders WHERE qty >= 1 AND price >= 0 AND status IN ('open', 'closed', 'returned') "
            "AND discount BETWEEN 0 AND 1 AND city IS NOT NULL "
            "GROUP BY city, status HAVING count(*) > 0 ORDER BY city, status LIMIT 50"
        ),
        "repeats": 60,
    },
    "join_heavy": {
        "sql": (
            "SELECT c.segment, o.city, count(*) AS n, sum(o.price * o.qty) AS revenue "
            "FROM orders AS o INNER JOIN customers AS c ON o.customer_id = c.customer_id "
            "WHERE o.price > 45 AND o.status = 'open' AND c.segment = 'corporate' "
            "GROUP BY c.segment, o.city ORDER BY revenue DESC"
        ),
        "repeats": 12,
    },
    "string_group": {
        "sql": (
            "SELECT kind, source, count(*) AS n, sum(value) AS total, avg(value) AS mean "
            "FROM events GROUP BY kind, source ORDER BY kind, source"
        ),
        "repeats": 8,
    },
}


def _time_workload(engine: Database, sql: str, repeats: int) -> tuple[float, object]:
    result = engine.execute(sql)  # warmup: fills caches, memoizes dictionaries
    started = time.perf_counter()
    for _ in range(repeats):
        result = engine.execute(sql)
    return (time.perf_counter() - started) / repeats, result


def run(quick: bool = False) -> dict:
    """Run every workload in both modes and write the comparison JSON.

    ``quick`` shrinks the tables and repeat counts so a full
    ``run_all.py --quick`` pass finishes in minutes (CI's measured-floor
    job); the resulting numbers are noisier than a full run.
    """
    optimized = _build_engine(optimize=True, quick=quick)
    baseline = _build_engine(optimize=False, quick=quick)

    report: dict = {
        "unit": "seconds_per_query",
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    for name, spec in WORKLOADS.items():
        repeats = max(3, spec["repeats"] // 4) if quick else spec["repeats"]
        optimized_seconds, optimized_result = _time_workload(
            optimized, spec["sql"], repeats
        )
        baseline_seconds, baseline_result = _time_workload(
            baseline, spec["sql"], repeats
        )
        if not optimized_result.equals(baseline_result):
            raise AssertionError(f"workload {name!r}: optimize=True changed the results")
        report["workloads"][name] = {
            "baseline_seconds": round(baseline_seconds, 6),
            "optimized_seconds": round(optimized_seconds, 6),
            "speedup": round(baseline_seconds / optimized_seconds, 2),
            "repeats": repeats,
        }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_planner_hotpath_speedups(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["Planner hot paths — baseline vs optimized"] = rows
    speedups = {name: metrics["speedup"] for name, metrics in records["workloads"].items()}
    # Conservative floors (observed speedups are far higher; see
    # BENCH_planner.json): the statement/plan caches must at least triple
    # repeated-statement throughput, and pushdown + pruning + dictionary
    # codes must win >= 1.5x on the join-heavy grouped query.
    assert speedups["repeated_statement"] >= 3.0, speedups
    assert speedups["join_heavy"] >= 1.5, speedups
    assert speedups["string_group"] >= 1.1, speedups


if __name__ == "__main__":
    fresh = run()
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

"""Benchmark — the AQP middleware hot path, end to end.

Every query the middleware approximates executes as the same physical shape:
one statement that groups the sample by (group keys, subsample id), whose
rows the middleware then folds into the answer and its error bars.  This
benchmark tracks that shape — not just the raw engine — across PRs,
exercising the engine planner and executor on it (scan pushdown, projection
pruning, ON-clause pushdown, smaller-build-side joins, fused aggregation,
dictionary codes propagated out of a derived table) and the fold:

* **flat** — a grouped aggregate over the sampled fact table with selective
  predicates: the rewritten inner query's WHERE is pushed to the sample scan
  and the grouped per-subsample pass runs over dictionary codes.
* **join** — the sampled fact table joined to an unsampled dimension table:
  single-side conjuncts move below the join, dead columns never cross it and
  the dimension side builds the hash table.
* **nested** — an aggregate over an aggregate derived table (Section 5.2):
  the variational-table rewrite produces a derived table, which runs as
  written under its own plan, computed once; the outer predicate filters
  its result, and the statement groups on the codes the variational table
  propagates.

Each workload runs three ways — the full middleware over
``Database(optimize=True)``, the same middleware over ``optimize=False``
(the naive engine: no planner, no caches, no dictionary codes), and exact
execution of the original query — and asserts that both middleware modes
return identical rows (the samples are seeded identically, so the rewritten
queries must agree bit for bit).  Each mode's time is the median of its
per-call seconds.

A fourth workload, **fixed_cost**, times what an approximate statement
costs whatever the data: the rewritten per-(group, sid) statements of a
grouped, a joined and an ungrouped query, each run on the engine over a
copy of the database whose samples are cut to their first 20 rows.  It
reports each statement's median per-call milliseconds and their sum.

``flat`` and ``join`` are floored on ``speedup``, naive ÷ optimized.
``nested`` has a per-call budget instead, as ``BENCH_api.json`` does
(``speedup`` = budget ÷ optimized median, floor 1.0): its naive baseline
got 2–3.5× faster when scramble preparation went per distinct value, so a
ratio against it measured the naive engine more than the hot path.  The
budget, 4 ms, is about twice the optimized median on a 2-core box (1.8–2.0
ms over three full runs), so a nested call slowed by ~2 ms fails its floor.
``fixed_cost`` has a budget too, 2 ms: about twice the sum of its three
medians (0.74–1.27 ms between runs on a shared 2-core box), so it fails
only when an approximate statement's fixed cost roughly doubles.  It does
not catch smaller regressions: grouped execution that re-derives its
statement-pure decisions on every call (1.1–1.5 ms on the same box) passes
it.  That regression is caught by the executor tests that count ``to_sql()``
renders of a repeated statement, which repeat exactly.

Results are written to ``benchmarks/BENCH_verdict.json``.  Run standalone
with ``PYTHONPATH=src python benchmarks/bench_verdict_hotpath.py`` — the
standalone path also diffs the fresh numbers against the committed baseline
via ``compare_bench`` and fails on any floor regression.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro import SampleSpec, VerdictSession
from repro.connectors import BuiltinConnector
from repro.core.sample_planner import PlannerConfig
from repro.sqlengine import Database

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_verdict.json"

CITIES = ["ann arbor", "detroit", "chicago", "nyc", "boston", "austin", "seattle", "la"]
SEGMENTS = ["consumer", "corporate", "home office", "government", "smb"]

FACT_ROWS = 120_000
DIM_ROWS = 800
SAMPLE_RATIO = 0.1

WORKLOADS = {
    "flat": {
        "sql": (
            "SELECT city, count(*) AS n, sum(price) AS total, avg(price) AS avg_price "
            "FROM orders WHERE status = 'open' AND qty >= 2 "
            "GROUP BY city ORDER BY city"
        ),
        "repeats": 12,
        "floor": 1.5,
    },
    "join": {
        "sql": (
            "SELECT c.segment, count(*) AS n, sum(o.price * o.qty) AS revenue, "
            "avg(o.price) AS avg_price "
            "FROM orders AS o INNER JOIN customers AS c ON o.customer_id = c.customer_id "
            "WHERE o.status = 'open' AND c.segment <> 'smb' "
            "GROUP BY c.segment ORDER BY c.segment"
        ),
        "repeats": 12,
        "floor": 2.0,
    },
    "nested": {
        "sql": (
            "SELECT avg(t.city_total) AS mean_total, count(*) AS cities "
            "FROM (SELECT city, sum(price) AS city_total FROM orders GROUP BY city) AS t "
            "WHERE t.city <> 'la'"
        ),
        "repeats": 12,
        "budget_ms": 4.0,
        "floor": 1.0,
    },
}

#: The fixed-cost workload: rewritten statements on 20-row sample copies.
FIXED_COST = {
    "statements": {
        "grouped": WORKLOADS["flat"]["sql"],
        "joined": WORKLOADS["join"]["sql"],
        "ungrouped": (
            "SELECT count(*) AS n, sum(price) AS total, avg(price) AS avg_price "
            "FROM orders WHERE status = 'open' AND qty >= 2"
        ),
    },
    "sample_rows": 20,
    "repeats": 400,
    "budget_ms": 2.0,
    "floor": 1.0,
}


def _build_context(optimize: bool, quick: bool = False) -> VerdictSession:
    rng = np.random.default_rng(42)
    fact_rows = FACT_ROWS // 5 if quick else FACT_ROWS
    orders = {
        "order_id": np.arange(fact_rows),
        "customer_id": rng.integers(0, DIM_ROWS, fact_rows),
        "price": np.round(rng.gamma(2.0, 8.0, fact_rows), 2),
        "qty": rng.integers(1, 20, fact_rows),
        "city": rng.choice(np.array(CITIES, dtype=object), fact_rows),
        "status": rng.choice(
            np.array(["open", "closed", "returned"], dtype=object), fact_rows
        ),
        # dead weight projection pruning must never materialize
        "note_1": rng.normal(size=fact_rows),
        "note_2": rng.choice(np.array([f"n{i}" for i in range(50)], dtype=object), fact_rows),
        "note_3": rng.normal(size=fact_rows),
    }
    customers = {
        "customer_id": np.arange(DIM_ROWS),
        "segment": np.array(
            [SEGMENTS[i % len(SEGMENTS)] for i in range(DIM_ROWS)], dtype=object
        ),
        "name": np.array([f"customer_{i}" for i in range(DIM_ROWS)], dtype=object),
    }
    context = VerdictSession(
        connector=BuiltinConnector(database=Database(seed=0, optimize=optimize)),
        planner_config=PlannerConfig(io_budget=0.15, large_table_rows=20_000),
    )
    context.load_table("orders", orders)
    context.load_table("customers", customers)
    context.create_sample("orders", SampleSpec("uniform", (), SAMPLE_RATIO))
    return context


def _median_seconds(call, repeats: int):
    """The median per-call seconds of ``call()`` and its last result."""
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def _time_middleware(context: VerdictSession, sql: str, repeats: int):
    result = context.sql(sql)  # warmup: fills analysis/rewrite/statement caches
    if result.is_exact:
        raise AssertionError(f"workload fell back to exact execution: {sql}")
    return _median_seconds(lambda: context.sql(sql), repeats)


def _time_exact(context: VerdictSession, sql: str, repeats: int) -> float:
    context.execute_exact(sql)  # warmup
    return _median_seconds(lambda: context.execute_exact(sql), repeats)[0]


def fixed_cost_medians(context: VerdictSession, repeats: int) -> dict[str, float]:
    """Per statement of :data:`FIXED_COST`: the median milliseconds of one
    engine call of its rewritten statement over 20-row sample copies."""
    database = context.connector.database
    samples = {info.sample_table.lower() for info in context.samples()}
    rows = FIXED_COST["sample_rows"]
    small = Database(seed=0)
    for name in database.table_names():
        table = database.table(name)
        columns = {column: table.column(column) for column in table.column_names}
        if name.lower() in samples:
            columns = {column: values[:rows] for column, values in columns.items()}
        small.register_table(name, columns)
    medians: dict[str, float] = {}
    for label, sql in FIXED_COST["statements"].items():
        result = context.sql(sql)
        if result.is_exact:
            raise AssertionError(f"fixed-cost statement fell back to exact execution: {sql}")
        (rewritten,) = result.rewritten_sql.split(";\n")
        # The session lifted the statement's literals into parameters.
        params = context.prepare(sql).bind(None)
        small.execute(rewritten, params)  # warmup: parses and plans once
        seconds, _ = _median_seconds(lambda: small.execute(rewritten, params), repeats)
        medians[label] = seconds * 1e3
    return medians


def run(quick: bool = False) -> dict:
    """Run every workload in all three modes and write the comparison JSON.

    ``quick`` shrinks the fact table and repeat counts for CI-sized runs.
    """
    optimized = _build_context(optimize=True, quick=quick)
    baseline = _build_context(optimize=False, quick=quick)

    report: dict = {
        "unit": "seconds_per_query",
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    for name, spec in WORKLOADS.items():
        repeats = max(3, spec["repeats"] // 4) if quick else spec["repeats"]
        optimized_seconds, optimized_result = _time_middleware(
            optimized, spec["sql"], repeats
        )
        baseline_seconds, baseline_result = _time_middleware(
            baseline, spec["sql"], repeats
        )
        if not optimized_result.raw.equals(baseline_result.raw):
            raise AssertionError(f"workload {name!r}: optimize=True changed the results")
        exact_seconds = _time_exact(optimized, spec["sql"], repeats)
        entry = report["workloads"][name] = {
            "baseline_seconds": round(baseline_seconds, 6),
            "optimized_seconds": round(optimized_seconds, 6),
            "exact_seconds": round(exact_seconds, 6),
            "speedup": round(baseline_seconds / optimized_seconds, 2),
            "aqp_vs_exact": round(exact_seconds / optimized_seconds, 2),
            "floor": spec["floor"],
            "repeats": repeats,
        }
        if "budget_ms" in spec:
            budget = spec["budget_ms"] / 1000.0
            entry["budget_seconds"] = budget
            entry["naive_vs_optimized"] = entry["speedup"]
            entry["speedup"] = round(budget / optimized_seconds, 2)
    repeats = FIXED_COST["repeats"] // 4 if quick else FIXED_COST["repeats"]
    medians = fixed_cost_medians(optimized, repeats)
    total_seconds = sum(medians.values()) / 1e3
    budget = FIXED_COST["budget_ms"] / 1000.0
    report["workloads"]["fixed_cost"] = {
        "statement_ms": {label: round(ms, 4) for label, ms in medians.items()},
        "optimized_seconds": round(total_seconds, 6),
        "budget_seconds": budget,
        "speedup": round(budget / total_seconds, 2),
        "floor": FIXED_COST["floor"],
        "repeats": repeats,
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_verdict_hotpath_speedups(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["Verdict hot path — naive vs optimized vs exact"] = rows
    for name, metrics in records["workloads"].items():
        # Conservative floors (observed speedups are far higher; see
        # BENCH_verdict.json): the optimized engine must at least double
        # throughput on the join shape, and the per-call budgets (nested,
        # fixed_cost) hold.
        assert metrics["speedup"] >= metrics["floor"], (name, metrics)


if __name__ == "__main__":
    fresh = run()
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

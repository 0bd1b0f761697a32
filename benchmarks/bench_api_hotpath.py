"""Benchmark — what a statement costs by how much of it the session has seen.

The session caches everything it derives from a statement under the
statement's *shape*: the text with its predicate literals lifted into
placeholders (``repro.api.binding.lift_literals``).  One parameter stream,
three ways over identical data:

* **prepared** — ``connection.prepare(template)`` once, then
  ``execute(params)`` per call: nothing is parsed after the first call;
* **same shape** — the same values inlined into fresh SQL text per call, as a
  BI tool would send them.  Every text is new (a per-call epsilon on the
  numeric bound) but all of them are one shape: the text is scanned and
  found in the session's token-stream shape index (never parsed), and
  everything below — analysis, sample plan, rewrite, the engine's parsed
  statements and plans — is a cache hit;
* **new shape** — the same inlined text with a per-call select-list alias, a
  position that is never lifted.  Each call is a shape the session has not
  seen and pays the whole pipeline: tokenize/parse, flatten/analyze, sample
  planning, rewrite, AST-to-SQL rendering, engine parse and engine planning.

Two workloads, each a per-call budget for one warm path, in this repo's
report form (``speedup`` = budget seconds ÷ the path's median seconds per
call, floor 1.0: the path stays within its budget):

* ``prepared_reexec`` — a prepared re-execution costs at most
  :data:`BUDGETS_MS` ``["prepared_reexec"]`` (2 ms);
* ``adhoc_literals`` — a same-shape text, scanned and served from the
  caches, costs at most ``["adhoc_literals"]`` (2.5 ms).

Each budget is about twice the path's median on a 2-core box, rounded up to
0.5 ms (prepared 0.9–1.3 ms when its budget was set, same shape 1.0–1.3 ms
over five runs), so a warm path slowed by 1–1.5 ms per call fails its floor.  A budget, not a
ratio against the new-shape path, so a cheaper cold pipeline cannot fail a
warm path's floor; the new-shape median is reported beside each budget
(``new_shape_seconds``).

All three modes answer the same literal predicates, so the answers are
asserted equal call by call (``ResultSet.equals``; the new-shape answers
after renaming their aliased columns back), and the report carries each
side's row count and checksum.  The data is deliberately modest (a 200-row
scramble): the benchmark isolates per-call *pipeline* cost; execution cost is
identical in all modes and would only blur the budgets.

Results are written to ``benchmarks/BENCH_api.json``.  Run standalone with
``PYTHONPATH=src python benchmarks/bench_api_hotpath.py`` — the standalone
path also diffs the fresh numbers against the committed baseline via
``compare_bench`` and fails on any floor regression.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

import repro
from repro import SampleSpec
from repro.core.sample_planner import PlannerConfig
from repro.sqlengine.resultset import ResultSet

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_api.json"

SEGMENTS = ["consumer", "corporate", "home office", "government", "smb"]

# Dashboard-shaped template: a grouped multi-aggregate report over a rich
# parameterized WHERE clause (range + threshold + IN list) — 7 parameters.
TEMPLATE = (
    "SELECT segment, count(*) AS n, sum(price * qty) AS revenue, "
    "avg(price) AS avg_price "
    "FROM orders WHERE price BETWEEN ? AND ? AND qty >= ? "
    "AND segment IN (?, ?, ?, ?) "
    "GROUP BY segment ORDER BY segment"
)

FACT_ROWS = 10_000
SAMPLE_RATIO = 0.02
# 25 subsamples (vs the default 100) keep the rewritten query's inner
# (group x sid) aggregation small for the same reason the data is small.
SUBSAMPLES = 25
CALLS = 60
BUDGETS_MS = {"prepared_reexec": 2.0, "adhoc_literals": 2.5}


def _build_connection(quick: bool):
    rng = np.random.default_rng(7)
    rows = FACT_ROWS // 2 if quick else FACT_ROWS
    connection = repro.connect(
        planner_config=PlannerConfig(io_budget=0.15, large_table_rows=5_000),
        subsample_count=SUBSAMPLES,
    )
    connection.session.load_table(
        "orders",
        {
            "order_id": np.arange(rows),
            "price": np.round(rng.gamma(2.0, 8.0, rows), 2),
            "qty": rng.integers(1, 10, rows),
            "segment": rng.choice(np.array(SEGMENTS, dtype=object), rows),
        },
    )
    connection.session.create_sample("orders", SampleSpec("uniform", (), SAMPLE_RATIO))
    return connection


def _param_stream(calls: int) -> list[tuple]:
    # Every call gets a distinct price bound (the epsilon keeps selectivity
    # stable), so the fresh-text baseline genuinely re-parses per call.
    return [
        (
            round(2 + index * 0.001, 3),
            round(60 + (index % 9) + index * 0.001, 3),
            1 + (index % 2),
            SEGMENTS[index % 5],
            SEGMENTS[(index + 1) % 5],
            SEGMENTS[(index + 2) % 5],
            SEGMENTS[(index + 3) % 5],
        )
        for index in range(calls)
    ]


def _fresh_sql(low, high, qty, seg1, seg2, seg3, seg4, count_alias: str = "n") -> str:
    return (
        f"SELECT segment, count(*) AS {count_alias}, sum(price * qty) AS revenue, "
        "avg(price) AS avg_price "
        f"FROM orders WHERE price BETWEEN {low!r} AND {high!r} AND qty >= {qty} "
        f"AND segment IN ('{seg1}', '{seg2}', '{seg3}', '{seg4}') "
        "GROUP BY segment ORDER BY segment"
    )


def _timed(calls) -> tuple[list, float]:
    """Each call's result and the median seconds per call (a call that a
    busy machine delayed moves the median little)."""
    results, seconds = [], []
    for call in calls:
        started = time.perf_counter()
        results.append(call())
        seconds.append(time.perf_counter() - started)
    return results, statistics.median(seconds)


def _within_budget(name: str, seconds: float, new_shape_seconds: float, calls: int) -> dict:
    budget = BUDGETS_MS[name] / 1000.0
    return {
        "budget_seconds": budget,
        "optimized_seconds": round(seconds, 6),
        "speedup": round(budget / seconds, 2),
        "floor": 1.0,
        "new_shape_seconds": round(new_shape_seconds, 6),
        "calls": calls,
    }


def _parity(results: list) -> dict:
    rows = [row for result in results for row in result.fetchall()]
    return {"rows": len(rows), "checksum": hashlib.sha256(repr(rows).encode()).hexdigest()[:16]}


def run(quick: bool = False) -> dict:
    """Time the three modes over the same query stream and write the report JSON."""
    calls = CALLS // 3 if quick else CALLS
    params = _param_stream(calls)

    connection = _build_connection(quick)
    session = connection.session
    prepared = connection.prepare(TEMPLATE)

    # Warm up every path (fills the caches the prepared and same-shape paths
    # rely on and proves the approximate pipeline engages).
    warm = prepared.execute(params[0])
    if warm.is_exact:
        raise AssertionError("prepared workload fell back to exact execution")
    session.execute(_fresh_sql(*params[0]))
    session.execute(_fresh_sql(*params[0], count_alias="n_warm"))

    prepared_results, prepared_seconds = _timed(
        [lambda values=values: prepared.execute(values) for values in params]
    )
    same_results, same_seconds = _timed(
        [lambda values=values: session.execute(_fresh_sql(*values)) for values in params]
    )
    before = dict(session.connector.database.stats)
    new_results, new_seconds = _timed(
        [
            lambda values=values, index=index: session.execute(
                _fresh_sql(*values, count_alias=f"n_{index}")
            )
            for index, values in enumerate(params)
        ]
    )
    stats = session.connector.database.stats
    if stats["analysis_cache_misses"] - before["analysis_cache_misses"] != calls:
        raise AssertionError("a new-shape text was served from the shape cache")

    for bound, same, new in zip(prepared_results, same_results, new_results):
        if not bound.raw.equals(same.raw):
            raise AssertionError("inlining the parameters changed the results")
        renamed = ResultSet(same.raw.column_names, new.raw.columns())
        if not renamed.equals(same.raw):
            raise AssertionError("a new-shape text changed the results")
    parity = {"same_shape": _parity(same_results), "new_shape": _parity(new_results)}
    if parity["same_shape"] != parity["new_shape"]:
        raise AssertionError(f"answer parity broken: {parity}")

    connection.close()
    report = {
        "unit": "seconds_per_query",
        "cores": os.cpu_count() or 1,
        "workloads": {
            "prepared_reexec": _within_budget(
                "prepared_reexec", prepared_seconds, new_seconds, calls
            ),
            "adhoc_literals": {
                **_within_budget("adhoc_literals", same_seconds, new_seconds, calls),
                "parity": parity,
            },
        },
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_api_hotpath_speedup(report):
    records = run()
    rows = [
        {"workload": name, **metrics} for name, metrics in records["workloads"].items()
    ]
    report["API hot path — prepared vs same-shape vs new-shape text"] = rows
    for name, metrics in records["workloads"].items():
        assert metrics["speedup"] >= metrics["floor"], (name, metrics)


if __name__ == "__main__":
    fresh = run()
    print(json.dumps(fresh, indent=2))
    from compare_bench import compare_and_check

    raise SystemExit(compare_and_check(RESULTS_PATH.name, fresh))

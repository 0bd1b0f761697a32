"""Quickstart: approximate analytics through the DB-API-style interface.

1. open a connection with ``repro.connect()`` and load a base table,
2. build a 1% uniform sample with VerdictDB's sample builder,
3. execute a parameterized SQL template through a cursor — the template is
   parsed, planned and rewritten once; later executions with different
   parameter values only bind and run,
4. read rows DB-API style and the error semantics from the full answer,
5. compare against the exact answer (``ExecutionOptions(mode="exact")``).

Run with ``python examples/quickstart.py`` (set ``REPRO_EXAMPLES_QUICK=1``
for a CI-sized run).
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro import ExecutionOptions, SampleSpec
from repro.core.sample_planner import PlannerConfig


def main() -> None:
    rng = np.random.default_rng(0)
    num_rows = 100_000 if os.environ.get("REPRO_EXAMPLES_QUICK") else 1_000_000

    # 1. Connect and load a sales table (this stands in for data already
    #    living in your database; share one engine between connections by
    #    passing the same `database=` instance).
    connection = repro.connect(
        planner_config=PlannerConfig(io_budget=0.05, large_table_rows=100_000)
    )
    connection.session.load_table(
        "sales",
        {
            "sale_id": np.arange(num_rows),
            "price": rng.lognormal(3.0, 0.8, num_rows),
            "quantity": rng.integers(1, 10, num_rows),
            "region": rng.choice(
                ["north", "south", "east", "west"], num_rows, p=[0.4, 0.3, 0.2, 0.1]
            ).astype(object),
        },
    )

    # 2. Offline stage: build a 1% uniform sample inside the database.
    info = connection.session.create_sample("sales", SampleSpec("uniform", (), 0.01))
    print(f"built sample {info.sample_table!r}: {info.sample_rows} rows "
          f"({info.effective_ratio:.2%} of the table)\n")

    # 3. Online stage: a parameterized template through a cursor.  The first
    #    execution pays parse/plan/rewrite; the second only binds new values
    #    (watch the statement/plan/rewrite cache hits in Database.stats).
    template = """
        SELECT region, count(*) AS num_sales, sum(price * quantity) AS revenue
        FROM sales
        WHERE price > ? AND region <> ?
        GROUP BY region
        ORDER BY region
    """
    cursor = connection.cursor()
    cursor.execute(template, (20.0, "west"))
    print("approximate answer (plan:", cursor.last_result.plan_description, ")")
    for row in cursor:
        print("  ", row)

    cursor.execute(template, (75.0, "south"))  # same template, new parameters
    print("\nre-executed with new parameters (no re-parse, no re-plan):")
    for row in cursor:
        print("  ", row)
    stats = connection.session.connector.database.stats
    print(f"engine cache hits: statement={stats['statement_cache_hits']}, "
          f"plan={stats['plan_cache_hits']}, rewrite={stats.get('rewrite_cache_hits', 0)}")

    # 4. Error semantics come from the full answer object.
    answer = cursor.last_result
    print("\n95% confidence interval for the first region's revenue:")
    print("  ", answer.confidence_interval("revenue", row=0))
    print("rewritten SQL sent to the underlying database:")
    print("  ", (answer.rewritten_sql or "")[:160], "...")

    # 5. Compare with the exact answer (same cursor, exact mode).
    cursor.execute(template, (75.0, "south"), options=ExecutionOptions(mode="exact"))
    print("\nexact answer:")
    for row in cursor:
        print("  ", row)

    connection.close()


if __name__ == "__main__":
    main()

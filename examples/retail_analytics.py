"""Retail analytics on the Instacart-like dataset: joins, stratified samples and HAC.

This example mirrors the paper's motivating scenario: an analyst explores a
large online-grocery order log interactively.  It shows

* the default sampling policy (Appendix F) choosing sample types per column,
* a universe (hashed-sample) join between two large fact tables,
* a stratified sample guaranteeing every department appears in the answer,
* the High-level Accuracy Contract forcing an exact re-run when the
  requested accuracy cannot be met, and
* incremental sample maintenance when a new day of orders arrives.

Run with ``python examples/retail_analytics.py`` (set
``REPRO_EXAMPLES_QUICK=1`` for a CI-sized run).
"""

from __future__ import annotations

import os

import repro
from repro import SampleSpec
from repro.core.sample_planner import PlannerConfig
from repro.workloads import instacart


def main() -> None:
    scale = 1.0 if os.environ.get("REPRO_EXAMPLES_QUICK") else 4.0
    dataset = instacart.generate(scale_factor=scale, seed=7)
    verdict = repro.connect(
        planner_config=PlannerConfig(io_budget=0.1, large_table_rows=20_000)
    ).session
    for name, columns in dataset.tables.items():
        verdict.load_table(name, columns)

    # Offline: samples for the two fact tables.  The hashed samples share the
    # join key so the middleware can join sample to sample (universe join).
    verdict.create_samples(
        "order_products",
        specs=[
            SampleSpec("uniform", (), 0.02),
            SampleSpec("hashed", ("order_id",), 0.02),
            SampleSpec("stratified", ("reordered",), 0.02),
        ],
    )
    verdict.create_samples(
        "orders",
        specs=[SampleSpec("uniform", (), 0.02), SampleSpec("hashed", ("order_id",), 0.02)],
    )
    print("samples prepared:")
    for info in verdict.samples():
        print(f"  {info.sample_table}: {info.sample_type} on {info.columns or '-'} "
              f"({info.sample_rows} rows)")

    # A join of the two fact tables, grouped by day of week.
    weekly = verdict.sql(
        """
        SELECT order_dow, count(*) AS basket_lines, sum(quantity * unit_price) AS revenue
        FROM order_products
             INNER JOIN orders ON order_products.order_id = orders.order_id
        GROUP BY order_dow
        ORDER BY order_dow
        """
    )
    print("\nrevenue by day of week (approximate, plan:", weekly.plan_description, ")")
    for row in weekly.fetchall(include_errors=True):
        print("  ", row)

    # The same question with a strict accuracy contract: 99.9% accuracy cannot
    # be certified from a 2% sample, so VerdictDB re-runs the query exactly.
    strict = verdict.sql(
        "SELECT count(*) AS lines FROM order_products WHERE reordered = 1", accuracy=0.999
    )
    print("\nwith a 99.9% accuracy contract the answer is exact:", strict.is_exact)

    # A new day of orders arrives; samples are maintained incrementally.
    new_orders = instacart.generate(scale_factor=0.2, seed=99).tables["order_products"]
    inserted = verdict.append_data("order_products", new_orders)
    print("\nincremental maintenance inserted rows per sample:", inserted)


if __name__ == "__main__":
    main()

"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module in this package exposes a ``run(...)`` function that
returns a list of plain-dict records (one per table row / figure point) and a
``format_records`` helper to print them the way the paper reports them.  The
benchmark harness under ``benchmarks/`` calls the same ``run`` functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.api.session import VerdictSession
from repro.connectors.builtin import BuiltinConnector
from repro.connectors.dialects import Dialect, GENERIC, IMPALA_LIKE, REDSHIFT_LIKE, SPARKSQL_LIKE
from repro.core.answer import ApproximateResult
from repro.core.sample_planner import PlannerConfig
from repro.sampling.params import SampleSpec
from repro.sqlengine.engine import Database
from repro.sqlengine.formatting import format_table
from repro.sqlengine.resultset import ResultSet
from repro.workloads import instacart, tpch


ENGINE_DIALECTS: dict[str, Dialect] = {
    "redshift": REDSHIFT_LIKE,
    "sparksql": SPARKSQL_LIKE,
    "impala": IMPALA_LIKE,
    "generic": GENERIC,
}

# Fixed per-query engine overhead (seconds) modelling catalog access and query
# planning; Section 6.2 attributes the differing speedups across engines to
# this overhead (Redshift smallest, Spark SQL largest).
ENGINE_OVERHEAD_SECONDS: dict[str, float] = {
    "redshift": 0.002,
    "impala": 0.005,
    "sparksql": 0.012,
    "generic": 0.0,
}


@dataclass
class Workbench:
    """A loaded dataset plus a VerdictDB session attached to it."""

    verdict: VerdictSession
    dataset_rows: dict[str, int]
    name: str

    @property
    def connector(self) -> BuiltinConnector:
        return self.verdict.connector  # type: ignore[return-value]


def timed(function: Callable[[], object]) -> tuple[object, float]:
    """Run ``function`` once and return (result, elapsed seconds)."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def default_planner_config() -> PlannerConfig:
    """Planner configuration used across experiments (laptop-scale budget)."""
    return PlannerConfig(io_budget=0.1, large_table_rows=5_000)


def build_tpch_workbench(
    scale_factor: float = 1.0,
    sample_ratio: float = 0.02,
    engine: str = "generic",
    seed: int = 0,
    stratified_columns: Mapping[str, Sequence[str]] | None = None,
) -> Workbench:
    """Load a TPC-H-like dataset and prepare samples for its fact tables."""
    dataset = tpch.generate(scale_factor=scale_factor, seed=seed)
    return _build_workbench(
        dataset.tables,
        fact_tables=tpch.FACT_TABLES,
        sample_ratio=sample_ratio,
        engine=engine,
        seed=seed,
        name=f"tpch-sf{scale_factor}",
        stratified_columns=stratified_columns
        or {"lineitem": ["l_returnflag", "l_shipmode"], "orders": ["o_orderpriority"]},
        hashed_columns={
            "lineitem": ["l_orderkey", "l_partkey"],
            "orders": ["o_orderkey"],
            "partsupp": ["ps_partkey"],
        },
    )


def build_instacart_workbench(
    scale_factor: float = 1.0,
    sample_ratio: float = 0.02,
    engine: str = "generic",
    seed: int = 0,
) -> Workbench:
    """Load the Instacart-like dataset and prepare samples for its fact tables."""
    dataset = instacart.generate(scale_factor=scale_factor, seed=seed)
    return _build_workbench(
        dataset.tables,
        fact_tables=instacart.FACT_TABLES,
        sample_ratio=sample_ratio,
        engine=engine,
        seed=seed,
        name=f"insta-sf{scale_factor}",
        stratified_columns={"orders": ["order_dow"], "order_products": ["reordered"]},
        hashed_columns={"order_products": ["order_id"], "orders": ["order_id"]},
    )


def _build_workbench(
    tables: Mapping[str, Mapping[str, np.ndarray]],
    fact_tables: Iterable[str],
    sample_ratio: float,
    engine: str,
    seed: int,
    name: str,
    stratified_columns: Mapping[str, Sequence[str]],
    hashed_columns: Mapping[str, Sequence[str]],
) -> Workbench:
    dialect = ENGINE_DIALECTS[engine]
    connector = BuiltinConnector(
        database=Database(seed=seed),
        dialect=dialect,
        fixed_overhead_seconds=ENGINE_OVERHEAD_SECONDS.get(engine, 0.0),
    )
    verdict = VerdictSession(connector=connector, planner_config=default_planner_config())
    dataset_rows: dict[str, int] = {}
    for table_name, columns in tables.items():
        verdict.load_table(table_name, columns)
        dataset_rows[table_name] = len(next(iter(columns.values())))
    for fact_table in fact_tables:
        specs: list[SampleSpec] = [SampleSpec("uniform", (), sample_ratio)]
        for column in hashed_columns.get(fact_table, []):
            specs.append(SampleSpec("hashed", (column,), sample_ratio))
        for column in stratified_columns.get(fact_table, []):
            specs.append(SampleSpec("stratified", (column,), sample_ratio))
        verdict.create_samples(fact_table, specs)
    return Workbench(verdict=verdict, dataset_rows=dataset_rows, name=name)


# ---------------------------------------------------------------------------
# accuracy helpers
# ---------------------------------------------------------------------------


def mean_relative_error(exact: ResultSet, approximate: ApproximateResult) -> float:
    """Average relative error of the approximate estimates against the exact answer.

    Rows are matched on the approximate result's grouping columns; groups
    missing from either side are skipped (they contribute to neither the
    numerator nor the denominator), mirroring how the paper reports per-query
    errors over the groups both answers return.
    """
    estimate_names = [
        name for name in approximate.estimate_columns if exact.has_column(name)
    ]
    if not estimate_names:
        return 0.0
    group_names = [name for name in approximate.group_columns if exact.has_column(name)]

    def key_of(result, row_index: int) -> tuple:
        return tuple(str(result.column(name)[row_index]) for name in group_names)

    exact_index = {key_of(exact, i): i for i in range(exact.num_rows)}
    errors: list[float] = []
    for row_index in range(approximate.num_rows):
        key = key_of(approximate.raw, row_index)
        if key not in exact_index:
            continue
        exact_row = exact_index[key]
        for name in estimate_names:
            exact_value = _as_float(exact.column(name)[exact_row])
            approx_value = _as_float(approximate.raw.column(name)[row_index])
            if exact_value is None or approx_value is None:
                continue
            if exact_value == 0:
                continue
            errors.append(abs(approx_value - exact_value) / abs(exact_value))
    return float(np.mean(errors)) if errors else 0.0


def _as_float(value: object) -> float | None:
    try:
        result = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    if np.isnan(result):
        return None
    return result


# ---------------------------------------------------------------------------
# record formatting
# ---------------------------------------------------------------------------


def format_records(records: Sequence[Mapping[str, object]], float_digits: int = 3) -> str:
    """Render a list of records as an aligned text table (used by ``__main__``)."""
    if not records:
        return "(no records)"
    header = list(records[0].keys())
    rows = []
    for record in records:
        row = []
        for key in header:
            value = record.get(key, "")
            if isinstance(value, float):
                row.append(f"{value:.{float_digits}f}")
            else:
                row.append(str(value))
        rows.append(row)
    return format_table(header, rows)

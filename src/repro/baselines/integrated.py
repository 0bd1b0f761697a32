"""A tightly-integrated AQP engine baseline (Section 6.3).

The paper compares VerdictDB against SnappyData, an AQP engine built *into*
the execution engine.  For the comparison two behaviours matter:

1. the integrated engine aggregates its samples directly in memory — no SQL
   round-trip, no middleware planning, so its per-query overhead is minimal;
2. it cannot join two samples: when a query joins two sampled relations it
   uses the sample only for the first relation and reads the *full* second
   relation (which is why VerdictDB wins on join-heavy queries in Figure 6).

This module implements exactly those behaviours on top of the same storage
as the built-in engine, so latency comparisons exercise the same data.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.core.query_info import MEAN_LIKE, analyze
from repro.sqlengine import parser, sqlast as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.resultset import ResultSet


@dataclass
class IntegratedSample:
    """A stratified/uniform in-memory sample held by the integrated engine."""

    original_table: str
    sample_table: str
    ratio: float


class IntegratedAqpEngine:
    """Simulated tightly-integrated sampling-based AQP engine.

    Args:
        database: the shared storage engine holding base tables and samples.
        per_query_overhead: fixed planning/catalog overhead per query in
            seconds (integrated engines have less of it than a middleware).
    """

    def __init__(self, database: Database, per_query_overhead: float = 0.0) -> None:
        self.database = database
        self.per_query_overhead = per_query_overhead
        self._samples: dict[str, IntegratedSample] = {}

    # -- sample registration -------------------------------------------------------

    def register_sample(self, original_table: str, sample_table: str, ratio: float) -> None:
        """Tell the engine which in-database sample to use for a base table."""
        self._samples[original_table.lower()] = IntegratedSample(
            original_table=original_table, sample_table=sample_table, ratio=ratio
        )

    # -- query execution -------------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        """Execute a query approximately, the way an integrated engine would.

        The first sampled relation of the FROM clause is replaced by its
        sample; every other relation uses the base table (no sample-sample
        joins).  Aggregates are scaled by the inverse sampling ratio.
        """
        if self.per_query_overhead > 0:
            time.sleep(self.per_query_overhead)
        statement = parser.parse(sql)
        if not isinstance(statement, ast.SelectStatement):
            return self.database.execute_statement(statement)
        analysis = analyze(statement)
        if analysis.refusal is not None:
            return self.database.execute_statement(statement)

        substituted, ratio = self._substitute_first_sample(statement.from_relation)
        if ratio is None:
            return self.database.execute_statement(statement)
        rewritten = dataclasses.replace(statement, from_relation=substituted)
        raw = self.database.execute_statement(rewritten)
        return self._scale_aggregates(raw, statement, ratio)

    def _substitute_first_sample(
        self, relation: ast.Relation | None
    ) -> tuple[ast.Relation | None, float | None]:
        """Replace the first (largest) sampled base table with its sample."""
        tables = ast.base_tables(relation)
        chosen: tuple[str, IntegratedSample] | None = None
        for table in tables:
            sample = self._samples.get(table.name.lower())
            if sample is None:
                continue
            if chosen is None:
                chosen = (table.name.lower(), sample)
        if chosen is None:
            return relation, None
        chosen_name, sample = chosen

        def visit(node: ast.Relation | None) -> ast.Relation | None:
            if node is None:
                return None
            if isinstance(node, ast.TableRef):
                if node.name.lower() == chosen_name:
                    return ast.TableRef(name=sample.sample_table, alias=node.binding_name)
                return node
            if isinstance(node, ast.Join):
                return dataclasses.replace(node, left=visit(node.left), right=visit(node.right))
            return node

        return visit(relation), sample.ratio

    def _scale_aggregates(
        self, raw: ResultSet, statement: ast.SelectStatement, ratio: float
    ) -> ResultSet:
        """Scale count/sum columns by 1/ratio (avg and statistics are unchanged)."""
        totals = {
            aggregate.sql_key for aggregate in analyze(statement).mean_like
            if MEAN_LIKE[aggregate.node.name.lower()] == "total"
        }
        scale_columns = {
            item.output_name(index)
            for index, item in enumerate(statement.select_items)
            if any(node.to_sql() in totals for node in item.expression.walk())
        }
        columns = []
        for name, column in zip(raw.column_names, raw.columns()):
            if name in scale_columns:
                columns.append(np.asarray(column, dtype=np.float64) / ratio)
            else:
                columns.append(column)
        return ResultSet(raw.column_names, columns)

    def supports_sample_joins(self) -> bool:
        """Integrated baseline limitation exercised by Figure 6."""
        return False

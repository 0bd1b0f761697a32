"""Connectors backed by the built-in columnar engine.

Three connectors share the same engine but present the dialects of the three
systems evaluated in the paper (Impala, Spark SQL, Redshift).  They model the
per-engine *fixed overhead* of query execution — catalog access and query
planning — which Section 6.2 identifies as the factor that caps AQP speedups
(Redshift has the smallest overhead, Spark SQL the largest).
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence

from repro.connectors.base import Connector
from repro.connectors.dialects import Dialect, GENERIC, IMPALA_LIKE, REDSHIFT_LIKE, SPARKSQL_LIKE
from repro.sqlengine.engine import Database
from repro.sqlengine.resultset import ResultSet


class BuiltinConnector(Connector):
    """Driver for the in-process :class:`~repro.sqlengine.engine.Database`.

    Args:
        database: engine instance to attach to (a new one is created when
            omitted).
        dialect: SQL dialect this connection presents.
        fixed_overhead_seconds: constant per-query latency added to model the
            backend's catalog/planning overhead; 0 disables the model.
        seed: seed for a newly created engine.
        optimize: whether a newly created engine uses the logical planner and
            statement/plan caches (ignored when ``database`` is given).
    """

    def __init__(
        self,
        database: Database | None = None,
        dialect: Dialect = GENERIC,
        fixed_overhead_seconds: float = 0.0,
        seed: int | None = 0,
        optimize: bool = True,
    ) -> None:
        super().__init__(dialect)
        self.database = (
            database if database is not None else Database(seed=seed, optimize=optimize)
        )
        self.fixed_overhead_seconds = fixed_overhead_seconds

    def execute_sql(self, sql: str, params=None, deadline=None) -> ResultSet:
        if self.fixed_overhead_seconds > 0:
            time.sleep(self.fixed_overhead_seconds)
        return self.database.execute(sql, params=params, deadline=deadline)

    @property
    def fault_injector(self):
        # The engine owns the injector so every session sharing it sees the
        # same failpoint schedule.
        return self.database.fault_injector

    def health(self):
        return self.database.health()

    @property
    def session_lock(self):
        # The engine object may be shared by several connectors (one per
        # session), so cross-session critical sections must serialize on a
        # lock owned by the engine, not by any one connector.
        return self.database.session_lock

    def catalog_state(self):
        return (self.database.catalog.version, self.database.data_version)

    def consistent_read(self):
        return self.database.consistent_read()

    def record_stat(self, key: str) -> None:
        self.database.bump_stat(key)

    def table_names(self) -> list[str]:
        return self.database.table_names()

    def column_names(self, table: str) -> list[str]:
        return self.database.table(table).column_names

    def column_dtypes(self, table: str):
        stored = self.database.table(table)
        return {name: stored.column_dtype(name) for name in stored.column_names}

    def row_count(self, table: str) -> int:
        # The engine keeps exact row counts in its catalog; avoid a scan.
        return self.database.table(table).num_rows

    def column_cardinality(self, table: str, column: str) -> int:
        # Likewise answered from what the engine already maintains: the
        # column's dictionary (extended in place by appends), not a scan.
        stored = self.database.table(table)
        with self.database.consistent_read():
            return stored.distinct_count(stored.resolve_column(column) or column)

    def load_table(self, name: str, columns: Mapping[str, Sequence]) -> None:
        self.database.register_table(name, columns, replace=True)

    def append_columns(self, table: str, columns: Mapping[str, Sequence]) -> None:
        self.database.append_columns(table, columns)

    def close(self) -> None:
        """Close the engine (the engine object survives and stays usable)."""
        self.database.close()


def impala_like_connector(database: Database | None = None, **kwargs) -> BuiltinConnector:
    """Connector presenting an Impala-flavoured dialect (moderate overhead)."""
    kwargs.setdefault("fixed_overhead_seconds", 0.0)
    return BuiltinConnector(database=database, dialect=IMPALA_LIKE, **kwargs)


def sparksql_like_connector(database: Database | None = None, **kwargs) -> BuiltinConnector:
    """Connector presenting a Spark SQL-flavoured dialect (largest overhead)."""
    kwargs.setdefault("fixed_overhead_seconds", 0.0)
    return BuiltinConnector(database=database, dialect=SPARKSQL_LIKE, **kwargs)


def redshift_like_connector(database: Database | None = None, **kwargs) -> BuiltinConnector:
    """Connector presenting a Redshift-flavoured dialect (smallest overhead)."""
    kwargs.setdefault("fixed_overhead_seconds", 0.0)
    return BuiltinConnector(database=database, dialect=REDSHIFT_LIKE, **kwargs)

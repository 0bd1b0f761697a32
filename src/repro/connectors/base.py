"""Connector (driver) abstraction for underlying databases.

A connector is the paper's "thin driver": it sends SQL text to a backend and
returns :class:`~repro.sqlengine.resultset.ResultSet` objects, plus the small
amount of catalog introspection the middleware needs (row counts, column
types and cardinalities) and the two bulk data paths — ``load_table`` and
``append_columns`` — through which rows travel as columns, never as SQL text.
"""

from __future__ import annotations

import abc
import threading
from collections import deque
from contextlib import nullcontext
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.connectors.dialects import Dialect
from repro.connectors.syntax_changer import SyntaxChanger
from repro.health import HealthReport
from repro.sqlengine import sqlast as ast
from repro.sqlengine.resultset import ResultSet


#: A columnar batch: column name -> equally long one-dimensional values.
Columns = Mapping[str, "Sequence[Any] | NDArray[Any]"]

#: Characters of a non-SELECT statement kept in ``Connector.queries_issued``.
LOGGED_DML_PREFIX = 200


class Connector(abc.ABC):
    """Abstract driver through which the middleware talks to a database.

    Queries and DDL go to the backend as SQL text (:meth:`execute`); data
    does not.  :meth:`append_columns` is the one ingest primitive, and its
    contract is what ``VerdictSession.append_data`` rests on:

    * **columnar** — the batch is a mapping of column name to equally long
      one-dimensional values covering exactly the table's columns; it reaches
      the backend through its native bulk interface, so the cost is
      proportional to the batch and no row is rendered to, or parsed from,
      ``INSERT`` text;
    * **atomic per table** — the batch is validated and cast as a whole
      before the table changes; a rejected batch raises and leaves the table
      untouched;
    * **typed by the stored column** (:meth:`column_dtypes`,
      :func:`repro.sqlengine.table.coerce_column`) — values are cast to the
      column's stored type; an integer column receiving NULLs or
      non-integral numbers widens to ``float64`` (NULL is NaN) instead of
      mangling them, an ``object`` batch of ``None``/numbers is a numeric
      batch, and only a genuinely non-numeric value turns a numeric column
      into strings;
    * **one version step** — :meth:`catalog_state` moves once per batch.
    """

    #: Fault injector firing the ``connector.execute`` site, or None.
    #: Connectors whose backend owns an injector override this as a property.
    fault_injector = None

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect
        self.syntax_changer = SyntaxChanger(dialect)
        # Recent statements sent through this connector (debug/observability).
        # Bounded both ways: long-lived connections issue statements
        # indefinitely, and one INSERT carries a whole batch of row literals —
        # so at most 512 entries, and of DDL/DML only a prefix.
        self.queries_issued: deque[str] = deque(maxlen=512)
        # Created eagerly: a lazily created lock could hand two racing
        # threads two different lock objects on first contended use.
        self._session_lock = threading.RLock()
        # Statements forwarded so far that returned no result columns, i.e.
        # DDL/DML: the default ``catalog_state()`` version token.
        self._writes = 0

    # -- statement execution ---------------------------------------------------

    @abc.abstractmethod
    def execute_sql(
        self,
        sql: str,
        params: Sequence | Mapping | None = None,
        deadline=None,
    ) -> ResultSet:
        """Execute raw SQL text on the backend and return its result.

        ``params`` binds ``?`` / ``:name`` placeholders in the text; backends
        without native parameter support may raise
        :class:`~repro.errors.NotSupportedError` when given any.
        ``deadline`` is an optional :class:`~repro.faults.QueryDeadline` the
        backend should honour cooperatively; drivers without a cancellation
        hook may ignore it (the deadline is still enforced at the next
        middleware checkpoint).
        """

    def execute(
        self,
        statement: ast.Statement | str,
        params: Sequence | Mapping | None = None,
        deadline=None,
    ) -> ResultSet:
        """Execute an AST statement (rendered via the Syntax Changer) or raw SQL."""
        if isinstance(statement, str):
            sql = statement
        else:
            sql = self.syntax_changer.to_sql(statement)
        injector = self.fault_injector
        if injector is not None:
            injector.fire("connector.execute")
        if deadline is not None:
            deadline.check()
        is_select = sql.lstrip()[:6].upper() == "SELECT"
        self.queries_issued.append(sql if is_select else sql[:LOGGED_DML_PREFIX])
        result = self.execute_sql(sql, params, deadline=deadline)
        if not result.column_names:
            # Counted only once the write has landed: a concurrent reader may
            # file a post-write value under the old token (harmless, it is
            # recomputed), never a pre-write value under the new one.
            self._writes += 1
        return result

    def health(self) -> HealthReport:
        """Cheap liveness/degradation report for this backend.

        Default: a static "ok" :class:`~repro.health.HealthReport` —
        connectors whose backend reports its own gauges (the builtin engine)
        override this.
        """
        return HealthReport(status="ok", backend=type(self).__name__)

    # -- cross-session coordination ---------------------------------------------

    @property
    def session_lock(self) -> threading.RLock:
        """Lock serializing multi-statement critical sections across sessions.

        Sample builds and metadata-table rebuilds are read-modify-write
        sequences of several statements; every session sharing a backend must
        wrap them in the *same* lock.  The default is per-connector (correct
        for backends owned by a single connector); connectors whose backend
        object can be shared between connectors override this to return a
        lock owned by the backend itself.
        """
        return self._session_lock

    def consistent_read(self):
        """Context manager making several reads see one backend state.

        The session wraps a decomposed approximate query's parts (mean-like
        / count-distinct / extreme statements) in this so their results
        cannot straddle another session's DML — one stitched answer must not
        mix two data versions.  Default: a no-op (backends without shared-engine
        concurrency have nothing to snapshot); the builtin connector holds
        the engine's shared read lock across the block.
        """
        return nullcontext()

    def catalog_state(self) -> object:
        """Opaque version token of the backend's schema + data.

        Sessions file everything they derive from backend state (row counts,
        cardinalities, the sample list, prepared rewrites) under the token
        read before computing it, and look it up with the current token — so
        any change, from any session, makes the old entries unreachable.
        Default: the number of DDL/DML statements (and ``load_table`` calls)
        this connector forwarded, which is exact for a backend reached only
        through this connector; connectors whose backend reports its own
        version (the builtin engine) override this.
        """
        return self._writes

    def record_stat(self, key: str) -> None:
        """Record one observability event on the backend's stats, if any."""

    # -- catalog introspection --------------------------------------------------

    @abc.abstractmethod
    def table_names(self) -> list[str]:
        """Return the names of the tables visible to this connection."""

    @abc.abstractmethod
    def column_names(self, table: str) -> list[str]:
        """Return the column names of ``table``."""

    @abc.abstractmethod
    def column_dtypes(self, table: str) -> dict[str, np.dtype]:
        """Stored numpy dtype (``int64``/``float64``/``bool``/``object``) of
        every column of ``table``, in column order."""

    def has_table(self, table: str) -> bool:
        lowered = table.lower()
        return any(name.lower() == lowered for name in self.table_names())

    def row_count(self, table: str) -> int:
        """Return the number of rows in ``table``."""
        quoted = self.dialect.quote_identifier(table)
        result = self.execute(f"SELECT count(*) AS n FROM {quoted}")
        return int(float(result.scalar()))

    def column_cardinality(self, table: str, column: str) -> int:
        """Return the number of distinct values in ``table.column``."""
        quoted_table = self.dialect.quote_identifier(table)
        quoted_column = self.dialect.quote_identifier(column)
        result = self.execute(
            f"SELECT count(DISTINCT {quoted_column}) AS n FROM {quoted_table}"
        )
        return int(float(result.scalar()))

    # -- data loading ------------------------------------------------------------

    @abc.abstractmethod
    def load_table(self, name: str, columns: Columns) -> None:
        """Create (or replace) a base table from in-memory columns.

        This stands in for the ETL process that loads data into the
        underlying database before VerdictDB is pointed at it.
        """

    def drop_table(self, name: str, if_exists: bool = True) -> None:
        clause = "IF EXISTS " if if_exists else ""
        self.execute(f"DROP TABLE {clause}{self.dialect.quote_identifier(name)}")

    @abc.abstractmethod
    def append_columns(self, table: str, columns: Columns) -> None:
        """Append a columnar batch to an existing table (see the class docstring)."""

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

"""Connector for the stdlib ``sqlite3`` engine.

This backend demonstrates the "universal" part of Universal AQP: the same
middleware, sample builder and rewriter drive a genuinely different engine
(SQLite) through nothing but SQL text.  The only backend-specific code is the
thin driver below, mirroring the paper's claim that new engines need only a
small driver (55–360 LOC for Impala/Spark/Redshift).
"""

from __future__ import annotations

import math
import sqlite3
import zlib
from collections.abc import Mapping, Sequence

import numpy as np

from repro.connectors.base import Connector
from repro.connectors.dialects import SQLITE
from repro.errors import ConnectorError
from repro.sqlengine.functions import hash_text
from repro.sqlengine.resultset import ResultSet
from repro.sqlengine.table import coerce_batch


def _crc32(*parts) -> int:
    """CRC-32 of the string the engine's hash reads ``parts`` as, each by
    ``functions.hash_text`` (NULL as ``""``, ``2.0`` as ``"2"``), end to end."""
    return zlib.crc32("".join(map(hash_text, parts)).encode("utf-8"))


class _StddevAggregate:
    """Sample standard deviation UDA (SQLite has no native stddev).

    Only a query that asks for a ``stddev`` itself calls it: approximation
    needs nothing beyond ``GROUP BY`` / ``SUM`` / ``COUNT`` here, because the
    middleware computes the error bars from the rows SQLite returns.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_squares = 0.0

    def step(self, value) -> None:
        if value is None:
            return
        value = float(value)
        self.count += 1
        self.total += value
        self.total_squares += value * value

    def finalize(self):
        if self.count < 2:
            return None
        mean = self.total / self.count
        variance = (self.total_squares / self.count - mean * mean) * self.count / (self.count - 1)
        return math.sqrt(max(variance, 0.0))


class _MedianAggregate:
    """Exact median UDA used for percentile-style rewrites on SQLite."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def step(self, value) -> None:
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        if not self.values:
            return None
        return float(np.median(np.array(self.values)))


class SqliteConnector(Connector):
    """Driver for an in-memory (or file-backed) SQLite database."""

    def __init__(self, path: str = ":memory:", seed: int = 0) -> None:
        super().__init__(SQLITE)
        self._connection = sqlite3.connect(path)
        self._rng = np.random.default_rng(seed)
        self._register_functions()

    def _register_functions(self) -> None:
        connection = self._connection
        rng = self._rng
        connection.create_function("vdb_rand", 0, lambda: float(rng.random()))
        connection.create_function("rand", 0, lambda: float(rng.random()))
        # The engine's hashes, so hashed samples built here keep the keys
        # sample maintenance keeps.
        connection.create_function("vdb_hash", -1, lambda *parts: _crc32(*parts) / 4294967296.0)
        connection.create_function("crc32", 1, _crc32)
        # The engine's concat (SQLite 3.40 has none): a NULL part adds nothing.
        connection.create_function(
            "concat", -1, lambda *parts: "".join("" if part is None else str(part) for part in parts)
        )
        connection.create_function("sqrt", 1, lambda value: None if value is None else math.sqrt(value))
        connection.create_function("floor", 1, lambda value: None if value is None else math.floor(value))
        connection.create_function("ceil", 1, lambda value: None if value is None else math.ceil(value))
        connection.create_function(
            "power", 2, lambda base, exponent: None if base is None else float(base) ** float(exponent)
        )
        connection.create_aggregate("stddev", 1, _StddevAggregate)
        connection.create_aggregate("stddev_samp", 1, _StddevAggregate)
        connection.create_aggregate("median", 1, _MedianAggregate)

    # -- Connector API ----------------------------------------------------------

    def execute_sql(self, sql: str, params=None, deadline=None) -> ResultSet:
        if deadline is not None:
            # SQLite's progress handler fires every N VM instructions; a
            # nonzero return aborts the running statement with
            # "interrupted".  This is the only in-flight cancellation hook
            # sqlite3 offers, and it makes long scans honour the deadline.
            self._connection.set_progress_handler(
                lambda: 1 if (deadline.expired or deadline.cancelled) else 0, 5000
            )
        try:
            if params is None:
                cursor = self._connection.execute(sql)
            else:
                # sqlite3 natively understands both qmark ('?', sequence)
                # and named (':name', mapping) parameters.  Any Mapping
                # (not just dict) must bind by name — tuple(mapping) would
                # silently bind the *keys* positionally.
                cursor = self._connection.execute(
                    sql, dict(params) if isinstance(params, Mapping) else tuple(params)
                )
        except sqlite3.Error as error:
            if deadline is not None:
                deadline.check()  # raises the typed timeout/cancel error
            raise ConnectorError(f"sqlite error: {error} (sql: {sql[:200]})") from error
        finally:
            if deadline is not None:
                self._connection.set_progress_handler(None, 0)
        if cursor.description is None:
            self._connection.commit()
            return ResultSet.empty([])
        column_names = [item[0] for item in cursor.description]
        rows = cursor.fetchall()
        return ResultSet.from_rows(column_names, rows)

    def table_names(self) -> list[str]:
        cursor = self._connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        return [row[0] for row in cursor.fetchall()]

    def column_names(self, table: str) -> list[str]:
        cursor = self._connection.execute(f'PRAGMA table_info("{table}")')
        names = [row[1] for row in cursor.fetchall()]
        if not names:
            raise ConnectorError(f"sqlite table {table!r} does not exist")
        return names

    def column_dtypes(self, table: str) -> dict[str, np.dtype]:
        cursor = self._connection.execute(f'PRAGMA table_info("{table}")')
        declared = {row[1]: str(row[2]).upper() for row in cursor.fetchall()}
        if not declared:
            raise ConnectorError(f"sqlite table {table!r} does not exist")
        return {name: _numpy_dtype(type_name) for name, type_name in declared.items()}

    def append_columns(self, table: str, columns: Mapping[str, Sequence]) -> None:
        stored = self.column_dtypes(table)
        arrays = coerce_batch(stored, columns)
        names = ", ".join(f'"{name}"' for name in stored)
        placeholders = ", ".join("?" for _ in stored)
        # One statement, one transaction: the batch lands whole or not at all.
        with self._connection:
            self._connection.executemany(
                f'INSERT INTO "{table}" ({names}) VALUES ({placeholders})',
                zip(*[_python_list(array) for array in arrays.values()]),
            )
        self._writes += 1  # bypasses execute(); see Connector.catalog_state

    def load_table(self, name: str, columns: Mapping[str, Sequence]) -> None:
        column_names = list(columns.keys())
        arrays = [np.asarray(columns[column]) for column in column_names]
        if not arrays:
            raise ConnectorError("cannot load a table without columns")
        definitions = ", ".join(
            f'"{column}" {_sqlite_type(array)}' for column, array in zip(column_names, arrays)
        )
        self._connection.execute(f'DROP TABLE IF EXISTS "{name}"')
        self._connection.execute(f'CREATE TABLE "{name}" ({definitions})')
        placeholders = ", ".join("?" for _ in column_names)
        rows = zip(*[_python_list(array) for array in arrays])
        self._connection.executemany(
            f'INSERT INTO "{name}" VALUES ({placeholders})', list(rows)
        )
        self._connection.commit()
        self._writes += 1  # bypasses execute(); see Connector.catalog_state

    def close(self) -> None:
        self._connection.close()


def _sqlite_type(array: np.ndarray) -> str:
    if array.dtype.kind in ("i", "u", "b"):
        return "INTEGER"
    if array.dtype.kind == "f":
        return "REAL"
    return "TEXT"


def _numpy_dtype(declared: str) -> np.dtype:
    """Numpy dtype a declared SQLite column type stores as (type affinity)."""
    if "INT" in declared:
        return np.dtype(np.int64)
    if any(word in declared for word in ("REAL", "FLOA", "DOUB", "DEC", "NUM")):
        return np.dtype(np.float64)
    return np.dtype(object)


def _python_list(array: np.ndarray) -> list:
    """Column values as sqlite3 binds them (NaN binds as NULL)."""
    if array.dtype != object:
        return array.tolist()
    return [_python_scalar(value) for value in array.tolist()]


def _python_scalar(value: object) -> object:
    if isinstance(value, np.generic):
        value = value.item()
    return value if value is None or isinstance(value, (str, int, float)) else str(value)

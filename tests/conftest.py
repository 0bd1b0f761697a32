"""Shared fixtures for the test suite.

Markers
-------
``bench_floor`` marks the cheap re-validation of the committed benchmark
speedup floors (``tests/test_bench_floors.py``).  CI's Python-version matrix
runs the fast path::

    PYTHONPATH=src python -m pytest -x -q -m "not bench_floor"

and the floors are checked once, in the dedicated ``bench-floors`` job
(``benchmarks/run_all.py --quick`` through ``compare_bench.py``), instead of
once per interpreter.  Run ``pytest -m bench_floor -q`` locally to check the
committed floors in milliseconds.

``chaos`` marks the fault-injection resilience suite
(``tests/test_resilience.py``): deadlines, cancellation, connector failures
and sample-build failures.  It runs in the regular tier-1 pass
and again, across several seeds, in CI's dedicated ``chaos`` job::

    REPRO_CHAOS_SEED=1 PYTHONPATH=src python -m pytest -m chaos -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import SampleSpec, VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.sample_planner import PlannerConfig
from repro.sqlengine import Database


ORDERS_ROWS = 40_000
CITIES = ["ann arbor", "detroit", "chicago", "nyc"]


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_floor: cheap validation of the committed benchmark speedup floors",
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection resilience suite (tests/test_resilience.py); "
        "CI runs it across several seeds via REPRO_CHAOS_SEED",
    )


def build_orders_columns(num_rows: int = ORDERS_ROWS, seed: int = 11) -> dict[str, np.ndarray]:
    """A small sales-like table used across many tests."""
    rng = np.random.default_rng(seed)
    return {
        "order_id": np.arange(num_rows),
        "price": rng.normal(10.0, 10.0, num_rows),
        "qty": rng.integers(1, 10, num_rows),
        "city": rng.choice(CITIES, num_rows, p=[0.4, 0.3, 0.2, 0.1]).astype(object),
    }


def build_items_columns(num_rows: int = 2 * ORDERS_ROWS, seed: int = 12) -> dict[str, np.ndarray]:
    """A fact table joining to orders on order_id."""
    rng = np.random.default_rng(seed)
    return {
        "order_id": rng.integers(0, ORDERS_ROWS, num_rows),
        "amount": rng.exponential(5.0, num_rows),
        "category": rng.choice(["a", "b", "c"], num_rows).astype(object),
    }


@pytest.fixture(scope="session")
def orders_columns() -> dict[str, np.ndarray]:
    return build_orders_columns()


@pytest.fixture(scope="session")
def items_columns() -> dict[str, np.ndarray]:
    return build_items_columns()


@pytest.fixture()
def database(orders_columns) -> Database:
    """A fresh engine with the orders table loaded."""
    engine = Database(seed=3)
    engine.register_table("orders", orders_columns)
    return engine


@pytest.fixture(scope="session")
def verdict(orders_columns, items_columns) -> VerdictSession:
    """A session-scoped VerdictSession with samples prepared (read-only tests)."""
    context = VerdictSession(
        planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000)
    )
    context.load_table("orders", orders_columns)
    context.load_table("items", items_columns)
    context.create_sample("orders", SampleSpec("uniform", (), 0.05))
    context.create_sample("orders", SampleSpec("hashed", ("order_id",), 0.05))
    context.create_sample("orders", SampleSpec("stratified", ("city",), 0.05))
    context.create_sample("items", SampleSpec("uniform", (), 0.05))
    context.create_sample("items", SampleSpec("hashed", ("order_id",), 0.05))
    return context


@pytest.fixture()
def builtin_connector(orders_columns) -> BuiltinConnector:
    connector = BuiltinConnector(seed=5)
    connector.load_table("orders", orders_columns)
    return connector


@pytest.fixture()
def sqlite_connector(orders_columns):
    connector = SqliteConnector(seed=5)
    connector.load_table("orders", orders_columns)
    yield connector
    connector.close()


# ---------------------------------------------------------------------------
# SQLite as an independent oracle for the built-in engine
# ---------------------------------------------------------------------------


def _both_backends(
    tables: dict[str, dict[str, np.ndarray]], **engine_options
) -> tuple[Database, SqliteConnector]:
    """The built-in engine and a SQLite connector holding the same tables.

    The caller closes the SQLite connector.
    """
    engine = Database(seed=0, **engine_options)
    sqlite = SqliteConnector(seed=0)
    for name, columns in tables.items():
        engine.register_table(name, columns)
        sqlite.load_table(name, columns)
    return engine, sqlite


def _plain(value):
    """One answer value as SQLite reports it: NaN is NULL, bool is 0/1."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return int(value) if isinstance(value, bool) else value


def _answers(
    engine: Database, sqlite: SqliteConnector, sql: str, params=None, ordered: bool = True
):
    """``(ours, theirs)``: the rows of ``sql`` on each backend, every value
    as SQLite reports it.  ``ordered=False`` sorts both row lists, NULLs
    last, for statements whose row order SQL leaves open."""

    def comparable(rows):
        rows = [tuple(_plain(value) for value in row) for row in rows]
        if ordered:
            return rows
        # A NULL never meets a value of another type in the sort.
        return sorted(rows, key=lambda row: [(True, 0) if v is None else (False, v) for v in row])

    return (
        comparable(engine.execute(sql, params).fetchall()),
        comparable(sqlite.execute_sql(sql, params).fetchall()),
    )


@pytest.fixture(scope="session")
def both_backends():
    """``both_backends(tables, **engine_options) -> (engine, sqlite)``."""
    return _both_backends


@pytest.fixture(scope="session")
def answers():
    """``answers(engine, sqlite, sql, params=None, ordered=True) -> (ours, theirs)``."""
    return _answers

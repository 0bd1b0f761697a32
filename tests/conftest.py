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

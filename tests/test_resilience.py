"""Chaos suite: injected faults must end in correct answers or typed errors.

Every test drives a real engine through the fault-injection harness
(:mod:`repro.faults`) and asserts one of the two acceptable outcomes:

* the query still returns the correct answer, through a retry or the
  degradation ladder (approximate -> exact); or
* a **typed** :mod:`repro.errors` exception surfaces promptly (deadlines,
  cancellation, exhausted sample-build retries) — never a hang or a crash.

``REPRO_CHAOS_SEED`` varies the data and injection seeds; CI's ``chaos``
job replays the suite across several seeds::

    REPRO_CHAOS_SEED=1 PYTHONPATH=src python -m pytest -m chaos -q
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

import repro
from repro import (
    Database,
    ExecutionOptions,
    QueryCancelledError,
    QueryDeadline,
    QueryTimeoutError,
    SampleSpec,
)
from repro.connectors import SqliteConnector
from repro.errors import SamplingError
from repro.faults import FaultInjector, FaultSpec, InjectedFault

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
ROWS = 8_000
GROUP_SQL = (
    "SELECT city, count(*) AS n, sum(qty) AS total "
    "FROM orders GROUP BY city ORDER BY city"
)


def chaos_columns():
    rng = np.random.default_rng(11 + CHAOS_SEED)
    return {
        "order_id": np.arange(ROWS),
        "price": rng.normal(10.0, 10.0, ROWS),
        "qty": rng.integers(1, 10, ROWS),
        "city": rng.choice(
            ["ann arbor", "detroit", "chicago", "nyc"], ROWS, p=[0.4, 0.3, 0.2, 0.1]
        ).astype(object),
    }


def expected_rows(sql: str = GROUP_SQL) -> list[tuple]:
    """The naive engine's answer over the same data (the ground truth)."""
    engine = Database(seed=3, optimize=False)
    engine.register_table("orders", chaos_columns())
    return engine.execute(sql).fetchall()


# ---------------------------------------------------------------------------
# deadlines and cancellation
# ---------------------------------------------------------------------------


def test_timeout_cancels_long_query_within_250ms_of_expiry():
    # Every executor checkpoint sleeps 50ms, simulating a long scan; the
    # 80ms hard deadline must surface QueryTimeoutError within 250ms of
    # expiry (the acceptance bound), not when the query would have finished.
    engine = Database(
        seed=3,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.05, "times": None}
        },
    )
    engine.register_table("orders", chaos_columns())
    connection = repro.connect(database=engine)
    try:
        cursor = connection.cursor()
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            cursor.execute(
                "SELECT sum(price) AS total FROM orders",
                options=ExecutionOptions(mode="exact", timeout_seconds=0.08),
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 0.08 + 0.25
    finally:
        connection.close()


def test_expired_deadline_stops_the_query_and_the_engine_answers_after():
    engine = Database(seed=3 + CHAOS_SEED)
    engine.register_table("orders", chaos_columns())
    assert engine.execute(GROUP_SQL).fetchall() == expected_rows()  # warm caches
    deadline = QueryDeadline(0.001)
    time.sleep(0.005)
    with pytest.raises(QueryTimeoutError):
        engine.execute(GROUP_SQL, deadline=deadline)
    # The aborted query left nothing behind.
    assert engine.execute(GROUP_SQL).fetchall() == expected_rows()


def test_cursor_cancel_from_another_thread():
    engine = Database(
        seed=3,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.1, "times": None}
        },
    )
    engine.register_table("orders", chaos_columns())
    connection = repro.connect(database=engine)
    try:
        cursor = connection.cursor()
        canceller = threading.Timer(0.05, cursor.cancel)
        canceller.start()
        try:
            with pytest.raises(QueryCancelledError):
                cursor.execute(
                    "SELECT sum(price) AS total FROM orders",
                    options=ExecutionOptions(mode="exact"),
                )
        finally:
            canceller.cancel()
        # The cursor is reusable after a cancelled statement.
        assert cursor._active_deadline is None
    finally:
        connection.close()


def test_sqlite_progress_handler_aborts_in_flight_statement():
    connector = SqliteConnector(seed=CHAOS_SEED)
    deadline = QueryDeadline(0.05)
    started = time.perf_counter()
    with pytest.raises(QueryTimeoutError):
        connector.execute_sql(
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < 50000000) SELECT count(*) FROM c",
            deadline=deadline,
        )
    assert time.perf_counter() - started < 1.5
    # The handler was uninstalled: plain statements run normally afterwards.
    assert float(connector.execute_sql("SELECT 41 + 1").scalar()) == 42.0
    connector.close()


# ---------------------------------------------------------------------------
# injected executor faults
# ---------------------------------------------------------------------------


def test_injected_executor_fault_surfaces_typed_and_the_next_query_is_exact():
    engine = Database(
        seed=3 + CHAOS_SEED, fault_injection={"executor.checkpoint": {"times": 1}}
    )
    engine.register_table("orders", chaos_columns())
    with pytest.raises(InjectedFault):
        engine.execute(GROUP_SQL)
    assert engine.fault_injector.triggered["executor.checkpoint"] == 1
    assert engine.execute(GROUP_SQL).fetchall() == expected_rows()


def test_repeated_injected_faults_fail_one_query_each_then_answers_are_exact():
    engine = Database(
        seed=3 + CHAOS_SEED, fault_injection={"executor.checkpoint": {"times": 3}}
    )
    engine.register_table("orders", chaos_columns())
    outcomes = []
    for _ in range(5):
        try:
            outcomes.append(engine.execute(GROUP_SQL).fetchall() == expected_rows())
        except InjectedFault:
            outcomes.append("fault")
    assert outcomes == ["fault", "fault", "fault", True, True]


JOIN_SQL = (
    "SELECT d.label AS label, count(*) AS n, sum(o.qty) AS total "
    "FROM orders o JOIN qty_dim d ON o.qty = d.id "
    "GROUP BY d.label ORDER BY d.label"
)


def qty_dim_columns():
    # Sparser than the probe's qty domain (1..9): some orders drop at the
    # inner join.
    return {
        "id": np.arange(1, 8, dtype=np.int64),
        "label": np.array([f"q{i}" for i in range(1, 8)], dtype=object),
    }


def join_engine(fault_injection=None) -> Database:
    engine = Database(seed=3 + CHAOS_SEED, fault_injection=fault_injection)
    engine.register_table("orders", chaos_columns())
    engine.register_table("qty_dim", qty_dim_columns())
    return engine


def test_a_fault_at_any_point_of_an_index_join_leaves_the_engine_exact():
    naive = Database(seed=3, optimize=False)
    naive.register_table("orders", chaos_columns())
    naive.register_table("qty_dim", qty_dim_columns())
    expected = naive.execute(JOIN_SQL).fetchall()
    counting = join_engine({"executor.checkpoint": {"kind": "sleep", "seconds": 0.0, "times": None}})
    assert counting.execute(JOIN_SQL).fetchall() == expected
    checkpoints = counting.fault_injector.hits["executor.checkpoint"]
    assert checkpoints > 1
    for after in range(checkpoints):
        engine = join_engine({"executor.checkpoint": {"times": 1, "after": after}})
        with pytest.raises(InjectedFault):
            engine.execute(JOIN_SQL)
        # Whatever the failed query had cached (plan, key index) serves the
        # next one correctly, and nothing is built twice.
        assert engine.execute(JOIN_SQL).fetchall() == expected, after
        assert engine.stats["key_index_builds"] == 2, after
        assert engine.stats["key_index_joins"] >= 1, after


# ---------------------------------------------------------------------------
# sample-build retries and the degradation ladder
# ---------------------------------------------------------------------------


def test_sample_build_retries_transient_fault_then_succeeds():
    engine = Database(seed=3, fault_injection={"sample.build": {"times": 1}})
    connection = repro.connect(database=engine)
    try:
        connection.session.load_table("orders", chaos_columns())
        info = connection.session.create_sample(
            "orders", SampleSpec("uniform", (), 0.05)
        )
        assert info.sample_rows > 0
        assert engine.stats["sample_build_retries"] == 1
        cursor = connection.execute("SELECT count(*) AS n FROM orders")
        assert cursor.last_result is not None
        assert not cursor.last_result.is_exact  # the retried sample is usable
    finally:
        connection.close()


def test_sample_build_exhausted_retries_raise_typed_error_queries_still_answer():
    engine = Database(seed=3, fault_injection={"sample.build": {"times": None}})
    connection = repro.connect(database=engine)
    try:
        connection.session.load_table("orders", chaos_columns())
        with pytest.raises(SamplingError, match="after 2 attempts"):
            connection.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
        # No sample exists, so the query answers exactly — correct, not hung.
        cursor = connection.execute("SELECT count(*) AS n FROM orders")
        assert cursor.fetchone() == (ROWS,)
        assert cursor.last_result.is_exact
    finally:
        connection.close()


def test_failed_approximate_execution_degrades_to_exact():
    engine = Database(seed=3 + CHAOS_SEED)
    connection = repro.connect(database=engine)
    try:
        connection.session.load_table("orders", chaos_columns())
        connection.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
        sql = "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city"
        assert not connection.execute(sql).last_result.is_exact  # warms metadata reads
        # The next backend statement is the rewritten sample query: it fails,
        # and the session answers exactly from the base table instead.
        engine.fault_injector = FaultInjector(
            {"connector.execute": {"times": 1}}, seed=CHAOS_SEED
        )
        cursor = connection.execute(sql)
        assert cursor.last_result.is_exact
        assert "degraded to exact" in cursor.last_result.plan_description
        assert cursor.fetchall() == expected_rows(sql)
        assert engine.stats["approx_exec_fallbacks"] == 1
        # The fault is spent: the sample serves again.
        assert not connection.execute(sql).last_result.is_exact
    finally:
        connection.close()


def test_contract_rerun_degrades_to_keep_when_budget_spent():
    connection = repro.connect()
    try:
        connection.session.load_table("orders", chaos_columns())
        connection.session.create_sample("orders", SampleSpec("uniform", (), 0.02))
        sql = "SELECT sum(price) AS total FROM orders"
        # Budget already spent: the exact re-run is skipped, the approximate
        # answer is kept and flagged.
        cursor = connection.execute(
            sql,
            options=ExecutionOptions(accuracy=0.9999, time_budget_seconds=1e-6),
        )
        kept = cursor.last_result
        assert not kept.is_exact
        assert kept.budget_degraded
        assert "approximate answer kept" in kept.plan_description
        # Plenty of budget: the same violation re-runs exactly.
        cursor = connection.execute(
            sql,
            options=ExecutionOptions(accuracy=0.9999, time_budget_seconds=100.0),
        )
        rerun = cursor.last_result
        assert rerun.is_exact
        assert not rerun.budget_degraded
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# health
# ---------------------------------------------------------------------------


def test_health_check_surface():
    engine = Database(seed=3 + CHAOS_SEED)
    connection = repro.connect(database=engine)
    try:
        connection.session.load_table("orders", chaos_columns())
        health = connection.health_check()
        assert health.status == "ok"
        assert "key_index_joins" in health.stats
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# harness determinism
# ---------------------------------------------------------------------------


def test_fault_injector_is_deterministic_per_seed():
    spec = FaultSpec(times=None, probability=0.5)

    def schedule(seed: int) -> list[bool]:
        injector = FaultInjector({"executor.checkpoint": spec}, seed=seed)
        fired = []
        for _ in range(32):
            try:
                fired.append(injector.fire("executor.checkpoint"))
            except InjectedFault:
                fired.append(True)
        return fired

    assert schedule(CHAOS_SEED) == schedule(CHAOS_SEED)
    assert any(schedule(CHAOS_SEED))
    assert not all(schedule(CHAOS_SEED))


def test_fault_spec_times_and_after_windows():
    injector = FaultInjector(
        {"connector.execute": {"times": 2, "after": 3}}, seed=CHAOS_SEED
    )
    outcomes = []
    for _ in range(8):
        try:
            outcomes.append(injector.fire("connector.execute"))
        except InjectedFault:
            outcomes.append(True)
    # Passes 0-2 skipped (after=3), passes 3-4 fire (times=2), rest inert.
    assert outcomes == [False, False, False, True, True, False, False, False]
    assert injector.hits["connector.execute"] == 8
    assert injector.triggered["connector.execute"] == 2

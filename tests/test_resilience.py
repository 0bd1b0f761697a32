"""Chaos suite: injected faults must end in correct answers or typed errors.

Every test drives a real engine through the fault-injection harness
(:mod:`repro.faults`) and asserts one of the two acceptable outcomes:

* the query still returns the **bit-identical** answer, through worker
  supervision (respawn + retry) or the serial degradation path; or
* a **typed** :mod:`repro.errors` exception surfaces promptly (deadlines,
  cancellation, exhausted sample-build retries) — never a hang, a crash or
  a leaked worker process / shared-memory segment.

``REPRO_CHAOS_SEED`` varies the data and injection seeds; CI's ``chaos``
job replays the suite across several seeds::

    REPRO_CHAOS_SEED=1 PYTHONPATH=src python -m pytest -m chaos -q
"""

from __future__ import annotations

import multiprocessing
import os
import signal
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
from repro.sqlengine import shardpool

pytestmark = pytest.mark.chaos

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
ROWS = 8_000
# Integer sum: float sums are (correctly) ineligible for shard merging on
# unclustered tables — summation order would change the bits.
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
    """The serial engine's answer over the same data (the ground truth)."""
    engine = Database(seed=3)
    try:
        engine.register_table("orders", chaos_columns())
        return engine.execute(sql).fetchall()
    finally:
        engine.close()


def parallel_engine(fault_injection=None) -> Database:
    engine = Database(
        seed=3 + CHAOS_SEED, parallel_exec=2, fault_injection=fault_injection
    )
    engine.register_table("orders", chaos_columns())
    return engine


@pytest.fixture(autouse=True)
def no_leaked_resources():
    """No test may leak shm segments or worker processes it created."""
    segments_before = shardpool.ShardPool.live_segment_names()
    children_before = {process.pid for process in multiprocessing.active_children()}
    yield
    leaked_segments = shardpool.ShardPool.live_segment_names() - segments_before
    assert not leaked_segments, f"leaked shared-memory segments: {leaked_segments}"
    leaked_children = [
        process
        for process in multiprocessing.active_children()
        if process.pid not in children_before and process.is_alive()
    ]
    assert not leaked_children, f"leaked worker processes: {leaked_children}"


# ---------------------------------------------------------------------------
# worker supervision
# ---------------------------------------------------------------------------


def test_worker_killed_mid_dispatch_is_respawned_and_answer_is_exact():
    faults = {
        "shardpool.dispatch": {"kind": "action", "action": "kill_worker", "times": 1}
    }
    engine = parallel_engine(fault_injection=faults)
    try:
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["worker_respawns"] >= 1
        # Supervision recovered the dispatch; it did not fall back serially.
        assert engine.stats["parallel_exec_dispatches"] >= 1
        assert engine.fault_injector.triggered["shardpool.dispatch"] == 1
        # The pool is healthy again: a second query dispatches normally.
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.health().engine["pool_workers_alive"] == 2
    finally:
        engine.close()


def test_repeated_worker_kills_still_answer_correctly():
    faults = {
        "shardpool.dispatch": {"kind": "action", "action": "kill_worker", "times": 3}
    }
    engine = parallel_engine(fault_injection=faults)
    try:
        for _ in range(5):
            assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["worker_respawns"] >= 3
    finally:
        engine.close()


JOIN_SQL = (
    "SELECT d.label AS label, count(*) AS n, sum(o.qty) AS total "
    "FROM orders o JOIN qty_dim d ON o.qty = d.id "
    "GROUP BY d.label ORDER BY d.label"
)


def qty_dim_columns():
    # Sparser than the probe's qty domain (1..9): some orders drop at the
    # inner join, exercising non-trivial probe/build matching under faults.
    return {
        "id": np.arange(1, 8, dtype=np.int64),
        "label": np.array([f"q{i}" for i in range(1, 8)], dtype=object),
    }


def expected_join_rows() -> list[tuple]:
    engine = Database(seed=3)
    try:
        engine.register_table("orders", chaos_columns())
        engine.register_table("qty_dim", qty_dim_columns())
        return engine.execute(JOIN_SQL).fetchall()
    finally:
        engine.close()


def test_worker_killed_mid_join_dispatch_is_respawned_and_answer_is_exact():
    faults = {
        "shardpool.dispatch": {"kind": "action", "action": "kill_worker", "times": 1}
    }
    engine = parallel_engine(fault_injection=faults)
    engine.register_table("qty_dim", qty_dim_columns())
    try:
        # The respawned worker must recover *both* table segments and the
        # broadcast plan spec before it can replay the join shard.
        assert engine.execute(JOIN_SQL).fetchall() == expected_join_rows()
        assert engine.stats["worker_respawns"] >= 1
        assert engine.stats["parallel_exec_join_dispatches"] >= 1
        assert engine.execute(JOIN_SQL).fetchall() == expected_join_rows()
        assert engine.health().engine["pool_workers_alive"] == 2
    finally:
        engine.close()


def test_lost_segment_mid_join_dispatch_falls_back_serially_with_circuit_count():
    faults = {
        "shardpool.dispatch": {"kind": "action", "action": "unlink_segment", "times": 1}
    }
    engine = parallel_engine(fault_injection=faults)
    engine.register_table("qty_dim", qty_dim_columns())
    try:
        # The segment vanishes under the workers mid-join: the query must
        # degrade to the serial path (same bits) and the failure must count
        # toward the circuit breaker.
        assert engine.execute(JOIN_SQL).fetchall() == expected_join_rows()
        assert engine.stats["parallel_exec_fallbacks"] >= 1
        assert engine.stats["dispatch_failures"] >= 1
        assert engine.circuit.consecutive_failures >= 1
        # The stale publication still points at the unlinked segment, so a
        # DML version bump on the probe table (the unlinked side) is what
        # makes the pool republish; after it the join dispatches again.
        engine.execute(
            "INSERT INTO orders (order_id, price, qty, city) "
            "VALUES (999999, 1.5, 1, 'nyc')"
        )
        before = engine.stats["parallel_exec_join_dispatches"]
        follow_up = (
            "SELECT d.label AS label, count(*) AS n, sum(o.qty) AS total "
            "FROM orders o JOIN qty_dim d ON o.qty = d.id GROUP BY d.label"
        )
        engine.execute(follow_up)
        assert engine.stats["parallel_exec_join_dispatches"] == before + 1
    finally:
        engine.close()


def test_injected_publish_failure_falls_back_serially():
    faults = {"shardpool.publish": {"times": 1}}
    engine = parallel_engine(fault_injection=faults)
    try:
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["parallel_exec_fallbacks"] >= 1
        assert engine.stats["dispatch_failures"] >= 1
        # The failpoint is exhausted; the next query publishes and dispatches.
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["parallel_exec_dispatches"] >= 1
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


def test_lost_segment_opens_circuit_and_probe_closes_it():
    faults = {
        "shardpool.dispatch": {"kind": "action", "action": "unlink_segment", "times": 1}
    }
    engine = parallel_engine(fault_injection=faults)
    engine.circuit.threshold = 2
    engine.circuit.cooldown = 0.2
    try:
        # The published segment is deleted out from under the workers: every
        # dispatch against it fails (after the pool's own retry) and the
        # query degrades to the serial path — still the exact answer.
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["parallel_exec_fallbacks"] >= 1
        assert engine.stats["dispatch_failures"] == 1
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["dispatch_failures"] == 2
        health = engine.health()
        assert health.circuit_state == "open"
        assert health.status == "degraded"
        assert engine.stats["circuit_opened"] == 1

        # Open circuit: the serial path wins without touching the pool.
        before = engine.stats["circuit_short_circuits"]
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        assert engine.stats["circuit_short_circuits"] == before + 1

        # DML bumps the table version, so the next publication is fresh;
        # after the cool-down one half-open probe crosses the circuit,
        # succeeds against the new segment, and closes it.
        engine.execute(
            "INSERT INTO orders (order_id, price, qty, city) "
            "VALUES (999999, 1.5, 1, 'nyc')"
        )
        time.sleep(0.25)
        follow_up = (
            "SELECT city, count(*) AS n, sum(qty) AS total "
            "FROM orders GROUP BY city"
        )
        result = engine.execute(follow_up).fetchall()
        assert engine.health().circuit_state == "closed"
        assert engine.stats["circuit_half_open_probes"] == 1
        assert engine.stats["circuit_closed"] == 1
        # And the answer reflects the insert (exactness after recovery).
        total_n = sum(row[1] for row in result)
        assert total_n == ROWS + 1
    finally:
        engine.close()


def test_circuit_breaker_unit_transitions():
    transitions: list[tuple[str, str]] = []
    breaker = shardpool.CircuitBreaker(
        threshold=2, cooldown=0.05, on_transition=lambda a, b: transitions.append((a, b))
    )
    assert breaker.state == "closed"
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()  # cool-down has not elapsed
    time.sleep(0.06)
    assert breaker.allow()  # the single half-open probe
    assert breaker.state == "half_open"
    assert not breaker.allow()  # no second probe while one is in flight
    breaker.record_failure()
    assert breaker.state == "open"  # failed probe re-opens
    time.sleep(0.06)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.consecutive_failures == 0
    assert transitions == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "open"),
        ("open", "half_open"),
        ("half_open", "closed"),
    ]


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


def test_expired_deadline_stops_parallel_dispatch():
    engine = parallel_engine()
    try:
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()  # warm pool
        deadline = QueryDeadline(0.001)
        time.sleep(0.005)
        with pytest.raises(QueryTimeoutError):
            engine.execute(GROUP_SQL, deadline=deadline)
        # The pool survived the aborted query.
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
    finally:
        engine.close()


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
# shutdown and health
# ---------------------------------------------------------------------------


def test_close_escalates_to_kill_for_wedged_worker():
    engine = parallel_engine()
    try:
        assert engine.execute(GROUP_SQL).fetchall() == expected_rows()
        pool = engine._shard_pool
        assert pool is not None and pool.alive_workers() == 2
        # A SIGSTOPped worker ignores the cooperative stop and SIGTERM; only
        # the close() escalation's SIGKILL ends it.
        wedged = pool._processes[0]
        os.kill(wedged.pid, signal.SIGSTOP)
    finally:
        engine.close()
    assert not wedged.is_alive()
    assert engine.stats.get("worker_force_kills", 0) >= 1
    assert engine.stats["worker_force_kills"] >= 1


def test_health_check_surface():
    engine = parallel_engine()
    connection = repro.connect(database=engine)
    try:
        health = connection.health_check()
        assert health.status == "ok"
        assert health.circuit_state == "closed"
        assert health.circuit["consecutive_failures"] == 0
        assert health.engine["exec_workers"] == 2
        assert "worker_respawns" in health.stats
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

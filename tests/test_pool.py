"""Connection pool tests: sizing, exhaustion, recycling, health, lifecycle.

The pool's contract (tests pin every clause): ``min_size`` members exist up
front, at most ``max_size`` ever exist, an exhausted pool makes callers wait
and then fail with a *typed* :class:`PoolTimeoutError`, idle/lifetime limits
recycle members transparently, a member that died behind the pool's back is
replaced instead of handed out, and returning a member never tears down the
engine the siblings share.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro
from repro import ConnectionPool, Database, ExecutionOptions, SampleSpec
from repro.errors import ConfigurationError, InterfaceError, OperationalError, PoolTimeoutError


def small_columns(rows: int = 2_000, seed: int = 7) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "order_id": np.arange(rows),
        "price": rng.normal(10.0, 5.0, rows),
        "city": rng.choice(["a", "b", "c"], rows).astype(object),
    }


@pytest.fixture()
def pool():
    pool = repro.connect(pool_size=3, min_size=1, checkout_timeout=2.0)
    with pool.connection() as conn:
        conn.session.load_table("orders", small_columns())
    yield pool
    pool.close()


# ---------------------------------------------------------------------------
# construction and sizing
# ---------------------------------------------------------------------------


def test_connect_with_pool_size_returns_a_pool():
    pool = repro.connect(pool_size=2)
    try:
        assert isinstance(pool, ConnectionPool)
        assert pool.max_size == 2
    finally:
        pool.close()


def test_min_size_members_are_created_eagerly():
    pool = ConnectionPool(min_size=2, max_size=4)
    try:
        stats = pool.stats
        assert stats["size"] == 2
        assert stats["idle"] == 2
        assert stats["created"] == 2
    finally:
        pool.close()


def test_bad_sizing_is_rejected():
    with pytest.raises(ConfigurationError):
        ConnectionPool(min_size=5, max_size=2)
    with pytest.raises(ConfigurationError):
        ConnectionPool(max_size=0)
    with pytest.raises(ConfigurationError):
        repro.connect(checkout_timeout=1.0)  # pool kwargs without pool_size


def test_members_share_one_engine(pool):
    # The table loaded through one member (in the fixture) is visible to
    # every other member: one engine, one catalog, shared samples.
    rows = pool.execute("SELECT count(*) AS n FROM orders")
    assert rows[0][0] == 2_000
    with pool.connection() as a, pool.connection() as b:
        assert a.session is not b.session
        assert a.execute("SELECT count(*) AS n FROM orders").fetchone() == \
            b.execute("SELECT count(*) AS n FROM orders").fetchone()


def test_pool_default_options_reach_members():
    pool = ConnectionPool(max_size=2, options=ExecutionOptions(mode="exact"))
    try:
        with pool.connection() as conn:
            conn.session.load_table("orders", small_columns())
            conn.session.create_sample("orders", SampleSpec("uniform", (), 0.1))
            cursor = conn.execute("SELECT count(*) AS n FROM orders")
            assert cursor.last_result.is_exact
    finally:
        pool.close()


# ---------------------------------------------------------------------------
# checkout / checkin
# ---------------------------------------------------------------------------


def test_checkout_returns_member_to_idle_on_close(pool):
    conn = pool.checkout()
    assert pool.stats["in_use"] == 1
    conn.close()
    assert pool.stats["in_use"] == 0
    assert pool.stats["idle"] >= 1
    conn.close()  # idempotent
    with pytest.raises(InterfaceError):
        conn.execute("SELECT count(*) AS n FROM orders")


def test_exhausted_pool_times_out_with_typed_error():
    pool = ConnectionPool(max_size=1, checkout_timeout=0.15)
    try:
        held = pool.checkout()
        started = time.monotonic()
        with pytest.raises(PoolTimeoutError):
            pool.checkout()
        waited = time.monotonic() - started
        assert 0.1 <= waited < 2.0  # actually waited, then failed
        assert pool.stats["checkout_timeouts"] == 1
        held.close()
        pool.checkout().close()  # the slot is usable again
    finally:
        pool.close()


def test_waiter_gets_the_member_released_by_another_thread():
    pool = ConnectionPool(max_size=1, checkout_timeout=5.0)
    try:
        held = pool.checkout()
        acquired = []

        def waiter():
            conn = pool.checkout()
            acquired.append(conn)
            conn.close()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired  # still blocked on the held member
        held.close()
        thread.join(timeout=5.0)
        assert len(acquired) == 1
    finally:
        pool.close()


def test_concurrent_checkouts_never_exceed_max_size():
    pool = ConnectionPool(max_size=2, checkout_timeout=10.0)
    observed_peak = []
    lock = threading.Lock()
    active = [0]
    try:
        with pool.connection() as conn:
            conn.session.load_table("orders", small_columns(500))

        def worker():
            for _ in range(5):
                with pool.connection() as conn:
                    with lock:
                        active[0] += 1
                        observed_peak.append(active[0])
                    conn.execute("SELECT sum(price) AS s FROM orders").fetchall()
                    with lock:
                        active[0] -= 1

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert max(observed_peak) <= 2
        stats = pool.stats
        assert stats["size"] <= 2
        assert stats["checkouts"] == stats["checkins"] == 31  # 6*5 workers + loader
        assert stats["in_use"] == 0
    finally:
        pool.close()


def test_detach_removes_the_member_from_the_pool(pool):
    size_before = pool.stats["size"]
    pooled = pool.checkout()
    owned = pooled.detach()
    try:
        assert pool.stats["size"] == size_before - 1
        assert pool.stats["in_use"] == 0
        assert owned.execute("SELECT count(*) AS n FROM orders").fetchone()[0] == 2_000
        with pytest.raises(InterfaceError):
            pooled.execute("SELECT 1 AS x")
    finally:
        owned.close(release_backend=False)


# ---------------------------------------------------------------------------
# recycling and health
# ---------------------------------------------------------------------------


def test_idle_members_are_recycled_at_checkout():
    pool = ConnectionPool(min_size=1, max_size=2, max_idle_seconds=0.05)
    try:
        with pool.connection() as conn:
            conn.session.load_table("orders", small_columns(200))
        time.sleep(0.1)  # let the idle member go stale
        with pool.connection() as conn:
            # A fresh member replaced the stale one; the shared engine (and
            # its catalog) survived the recycling.
            assert conn.execute("SELECT count(*) AS n FROM orders").fetchone()[0] == 200
        assert pool.stats["recycled"] >= 1
    finally:
        pool.close()


def test_lifetime_limit_recycles_members():
    pool = ConnectionPool(min_size=1, max_size=2, max_lifetime_seconds=0.05)
    try:
        time.sleep(0.1)
        pool.checkout().close()
        assert pool.stats["recycled"] >= 1
    finally:
        pool.close()


def test_member_closed_behind_the_pools_back_is_replaced():
    pool = ConnectionPool(min_size=1, max_size=2)
    try:
        pooled = pool.checkout()
        # Simulate an application bug / a supervisor reaping the session.
        pooled.session.close(release_backend=False)
        pooled.close()
        with pool.connection() as conn:
            assert conn.execute("SELECT 1 AS x").fetchone() == (1,)
        assert pool.stats["health_failures"] + pool.stats["disposed"] >= 1
    finally:
        pool.close()


def test_prune_respects_min_size():
    pool = ConnectionPool(min_size=1, max_size=3, max_idle_seconds=0.01)
    try:
        extra = [pool.checkout(), pool.checkout(), pool.checkout()]
        for conn in extra:
            conn.close()
        time.sleep(0.05)
        pool.prune()
        assert pool.stats["size"] == 1  # pruned down to min_size, not zero
    finally:
        pool.close()


def test_health_report_carries_a_pool_section(pool):
    report = pool.health()
    assert report.pool is not None
    assert report.pool["max_size"] == 3
    assert report.pool["size"] >= 1
    assert report.as_sections()["pool"]["max_size"] == 3  # the wire form
    assert report.status == "ok"


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def test_closed_pool_rejects_checkout():
    pool = ConnectionPool(max_size=2)
    pool.close()
    with pytest.raises(InterfaceError):
        pool.checkout()
    pool.close()  # idempotent


def test_member_returned_after_pool_close_is_disposed():
    pool = ConnectionPool(max_size=2)
    conn = pool.checkout()
    pool.close()
    conn.close()  # must not raise; member is disposed, not re-pooled
    assert pool.stats["size"] == 0


@pytest.mark.chaos
def test_pooled_connection_survives_an_injected_fault_mid_query():
    engine = Database(seed=3, fault_injection={"executor.checkpoint": {"times": 1}})
    engine.register_table("orders", small_columns(8_000))
    sql = "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city"
    expected = Database(seed=3, optimize=False)
    expected.register_table("orders", small_columns(8_000))
    expected_rows = expected.execute(sql).fetchall()
    pool = ConnectionPool(database=engine, min_size=2, max_size=2)
    try:
        with pool.connection() as conn:
            with pytest.raises(OperationalError):  # the fault fires in this query
                conn.execute(sql, options=ExecutionOptions(mode="exact"))
            assert conn.execute(sql).fetchall() == expected_rows
        # The member went back to the pool, and every member answers alike.
        with pool.connection() as a, pool.connection() as b:
            assert a.execute(sql).fetchall() == expected_rows
            assert b.execute(sql).fetchall() == expected_rows
        assert pool.stats["in_use"] == 0
        assert pool.health().status == "ok"
    finally:
        pool.close()


def test_pool_over_caller_supplied_database_keeps_data():
    engine = Database(seed=3)
    engine.register_table("orders", small_columns(300))
    try:
        pool = ConnectionPool(database=engine, max_size=2)
        rows = pool.execute("SELECT count(*) AS n FROM orders")
        assert rows[0][0] == 300
        pool.close()
    finally:
        engine.close()

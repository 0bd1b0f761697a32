"""Socket server tests: handshake, queries, FETCH, CANCEL, admission, drain.

Every test runs a real :class:`VerdictServer` on an ephemeral port and talks
to it through the real client (``repro.client.connect``) — the protocol is
exercised end to end over loopback TCP, exactly as a deployment would.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

import repro
import repro.client
from repro import Database, ExecutionOptions, SampleSpec, VerdictServer
from repro.errors import (
    InterfaceError,
    ProgrammingError,
    ProtocolError,
    QueryCancelledError,
    ServerBusyError,
)
from repro.server import protocol


def columns(rows: int = 20_000, seed: int = 13) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "order_id": np.arange(rows),
        "price": rng.normal(10.0, 5.0, rows),
        "city": rng.choice(["a", "b", "c"], rows).astype(object),
    }


def sampled_engine(rows: int = 20_000, **kwargs) -> Database:
    engine = Database(seed=3, **kwargs)
    engine.register_table("orders", columns(rows))
    return engine


@pytest.fixture()
def server():
    engine = sampled_engine()
    srv = repro.serve(database=engine, port=0, pool_size=2)
    # Build a sample through the pool so approximate mode has something to
    # answer from.
    with srv._pool.connection() as conn:
        conn.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
    yield srv
    srv.shutdown()
    engine.close()


@pytest.fixture()
def client(server):
    host, port = server.address
    conn = repro.client.connect(host, port, timeout=10.0)
    yield conn
    conn.close()


# ---------------------------------------------------------------------------
# end-to-end queries
# ---------------------------------------------------------------------------


def test_exact_query_roundtrip(client):
    cursor = client.execute(
        "SELECT count(*) AS n FROM orders", options={"mode": "exact"}
    )
    assert cursor.description[0][0] == "n"
    assert cursor.rowcount == 1
    assert cursor.approximate is False
    assert cursor.fetchall() == [(20_000,)]


def test_approximate_query_with_per_connection_options(server):
    host, port = server.address
    with repro.client.connect(
        host, port, options=ExecutionOptions(mode="approximate")
    ) as conn:
        cursor = conn.execute("SELECT avg(price) AS a FROM orders")
        assert cursor.approximate is True
        (value,) = cursor.fetchone()
        assert value == pytest.approx(10.0, abs=1.0)


def test_per_query_options_override_connection_defaults(server):
    host, port = server.address
    # Connection default says approximate; the query's sparse override
    # flips just the mode back to exact.
    with repro.client.connect(host, port, options={"mode": "approximate"}) as conn:
        cursor = conn.execute(
            "SELECT avg(price) AS a FROM orders", options={"mode": "exact"}
        )
        assert cursor.approximate is False


def test_incremental_fetch_pulls_batches(client):
    cursor = client.cursor()
    cursor.execute("SELECT order_id FROM orders ORDER BY order_id")
    assert cursor.rowcount == 20_000
    first = cursor.fetchmany(7)
    assert [row[0] for row in first] == list(range(7))
    # The buffer holds at most one pulled batch; the rest is still
    # server-side (incremental consumption, not one giant frame).
    assert len(cursor._buffer) < 20_000
    rest = cursor.fetchall()
    assert len(first) + len(rest) == 20_000
    assert rest[-1] == (19_999,)


def test_cursor_iteration(client):
    cursor = client.execute(
        "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city",
        options={"mode": "exact"},
    )
    rows = list(cursor)
    assert [row[0] for row in rows] == ["a", "b", "c"]
    assert sum(row[1] for row in rows) == 20_000


def test_parameterized_query(client):
    cursor = client.execute(
        "SELECT count(*) AS n FROM orders WHERE city = ?", ("a",)
    )
    (count,) = cursor.fetchone()
    # Answered from the 5% sample: approximately a third of the table.
    assert count == pytest.approx(20_000 / 3, rel=0.25)


def test_typed_errors_travel_the_wire(client):
    with pytest.raises(ProgrammingError):
        client.execute("SELECT nope FROM missing_table")
    # The connection survives a failed query.
    cursor = client.execute(
        "SELECT count(*) AS n FROM orders", options={"mode": "exact"}
    )
    assert cursor.fetchone() == (20_000,)


def test_health_over_the_wire(client):
    report = client.health_check()
    assert report.status in ("ok", "degraded")
    assert report.pool is not None and report.pool["max_size"] == 2
    assert report.server is not None and report.server["connections"] >= 1
    assert "statement_cache_hits" in report.stats


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


def test_cancel_mid_query_raises_typed_error_and_connection_survives():
    engine = sampled_engine(
        rows=2_000,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.1, "times": None}
        },
    )
    srv = repro.serve(database=engine, port=0, pool_size=2)
    try:
        host, port = srv.address
        with repro.client.connect(host, port) as conn:
            cursor = conn.cursor()
            canceller = threading.Timer(0.1, cursor.cancel)
            canceller.start()
            try:
                with pytest.raises(QueryCancelledError):
                    cursor.execute("SELECT sum(price) AS s FROM orders")
            finally:
                canceller.cancel()
            # Same connection, new statement: fully usable again (the sleep
            # failpoint keeps firing, so keep it cheap via LIMIT 1).
            fresh = conn.execute("SELECT order_id FROM orders LIMIT 1")
            assert fresh.fetchone() == (0,)
        assert srv.stats.cancelled >= 1
    finally:
        srv.shutdown()
        engine.close()


def test_cancel_after_completion_is_harmless(client):
    cursor = client.execute(
        "SELECT count(*) AS n FROM orders", options={"mode": "exact"}
    )
    cursor.cancel()  # races completion; the buffered result stands
    assert cursor.fetchall() == [(20_000,)]


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


def test_overload_is_rejected_with_server_busy_error():
    engine = sampled_engine(
        rows=2_000,
        fault_injection={
            # Each checkpoint sleeps 0.4s; the query passes a handful of
            # checkpoints, holding its run slot for over a second.
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.4, "times": None}
        },
    )
    srv = VerdictServer(
        database=engine,
        port=0,
        pool_size=2,
        max_concurrent_queries=1,
        max_queue_depth=0,
    ).start()
    try:
        host, port = srv.address
        slow_error = []

        def run_slow():
            with repro.client.connect(host, port) as conn:
                try:
                    conn.execute("SELECT sum(price) AS s FROM orders").fetchall()
                except Exception as exc:  # pragma: no cover - diagnostic only
                    slow_error.append(exc)

        slow = threading.Thread(target=run_slow)
        slow.start()
        time.sleep(0.3)  # let the slow query occupy the only run slot
        with repro.client.connect(host, port) as conn:
            with pytest.raises(ServerBusyError):
                conn.execute("SELECT count(*) AS n FROM orders")
        slow.join(timeout=30.0)
        assert not slow_error
        assert srv.stats.rejected >= 1
        # Capacity freed: the same query is admitted now.
        with repro.client.connect(host, port) as conn:
            assert conn.execute("SELECT count(*) AS n FROM orders").fetchone() == (
                2_000,
            )
    finally:
        srv.shutdown()
        engine.close()


def test_queued_query_runs_when_a_slot_frees():
    engine = sampled_engine(
        rows=2_000,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.05, "times": 10}
        },
    )
    srv = VerdictServer(
        database=engine,
        port=0,
        pool_size=2,
        max_concurrent_queries=1,
        max_queue_depth=4,
    ).start()
    try:
        host, port = srv.address
        results = []

        def run(tag):
            with repro.client.connect(host, port) as conn:
                rows = conn.execute("SELECT count(*) AS n FROM orders").fetchall()
                results.append((tag, rows))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 3  # queued ones waited instead of failing
        assert all(rows == [(2_000,)] for _tag, rows in results)
    finally:
        srv.shutdown()
        engine.close()


# ---------------------------------------------------------------------------
# drain / shutdown
# ---------------------------------------------------------------------------


def test_graceful_drain_rejects_new_queries_and_finishes_old_ones():
    engine = sampled_engine(
        rows=2_000,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.05, "times": 20}
        },
    )
    srv = repro.serve(database=engine, port=0, pool_size=2)
    host, port = srv.address
    conn = repro.client.connect(host, port)
    try:
        rows = []

        def run_slow():
            rows.extend(conn.execute("SELECT sum(price) AS s FROM orders").fetchall())

        slow = threading.Thread(target=run_slow)
        slow.start()
        time.sleep(0.2)
        done = threading.Thread(target=srv.shutdown)  # drains, then closes
        done.start()
        slow.join(timeout=30.0)
        done.join(timeout=30.0)
        # The in-flight query completed during the drain window.
        assert len(rows) == 1
    finally:
        try:
            conn.close()
        except Exception:
            pass
        engine.close()


def test_queries_during_drain_get_server_busy(server):
    host, port = server.address
    conn = repro.client.connect(host, port)
    with server._admission:
        server._draining = True
    try:
        with pytest.raises(ServerBusyError):
            conn.execute("SELECT count(*) AS n FROM orders")
    finally:
        with server._admission:
            server._draining = False
        conn.close()


# ---------------------------------------------------------------------------
# protocol-level behaviour
# ---------------------------------------------------------------------------


def test_server_requires_hello_first(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5.0)
    try:
        protocol.send_frame(sock, {"type": "QUERY", "id": "q1", "sql": "SELECT 1 AS x"})
        frame = protocol.recv_frame(sock)
        assert frame["type"] == "ERROR"
        assert frame["name"] == "ProtocolError"
    finally:
        sock.close()


def test_version_mismatch_is_rejected(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5.0)
    try:
        protocol.send_frame(sock, {"type": "HELLO", "version": 999})
        frame = protocol.recv_frame(sock)
        assert frame["type"] == "ERROR"
        assert "version" in frame["message"]
    finally:
        sock.close()


def test_fetch_for_unknown_query_id_is_a_typed_error(client):
    cursor = client.cursor()
    with pytest.raises(InterfaceError):
        cursor.execute("SELECT count(*) AS n FROM orders")  # buffers nothing...
        cursor._query_id = "bogus"
        cursor._exhausted = False
        cursor._pull(10)


def test_frame_codec_roundtrip_and_guards():
    # numpy scalars become native numbers on the wire.
    left, right = socket.socketpair()
    try:
        protocol.send_frame(
            left, {"type": "ROWS", "rows": [[np.int64(3), np.float64(0.5)]]}
        )
        frame = protocol.recv_frame(right)
        assert frame["rows"] == [[3, 0.5]]
        # Garbage length prefixes are refused, not allocated.
        left.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            protocol.recv_frame(right)
    finally:
        left.close()
        right.close()


def test_options_codec_ignores_unknown_fields():
    options = protocol.decode_options({"mode": "exact", "not_a_field": 1})
    assert options.mode == "exact"
    assert protocol.decode_options(None) is None
    payload = protocol.encode_options(ExecutionOptions(accuracy=0.01))
    assert payload["accuracy"] == 0.01


def test_error_codec_reconstructs_typed_exceptions():
    err = protocol.decode_error(
        protocol.encode_error(ServerBusyError("server at capacity"))
    )
    assert isinstance(err, ServerBusyError)
    unknown = protocol.decode_error({"name": "NoSuchError", "message": "boom"})
    assert "NoSuchError" in str(unknown)

"""Socket server tests: handshake, queries, FETCH, CANCEL, admission, drain.

Every test runs a real :class:`VerdictServer` on an ephemeral port and talks
to it through the real client (``repro.client.connect``) — the protocol is
exercised end to end over loopback TCP, exactly as a deployment would.
"""

from __future__ import annotations

import math
import socket
import struct
import sys
import threading
import time
from pathlib import Path

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
from repro.server.server import DEFAULT_FETCH_ROWS

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from e2e import build, queries  # noqa: E402  (the benchmark's data and statements)


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


def test_server_options_survive_client_options():
    # Field-wise merge, server -> HELLO -> QUERY: a client option that does
    # not mention `mode` must not reset the server's exact mode.
    engine = sampled_engine()
    srv = repro.serve(database=engine, port=0, pool_size=1, options=ExecutionOptions(mode="exact"))
    try:
        with srv._pool.connection() as conn:
            conn.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
        sql = "SELECT avg(price) AS a FROM orders"
        with repro.client.connect(*srv.address, timeout=10.0) as conn:
            assert conn.execute(sql).approximate is False
            assert conn.execute(sql, options={"confidence": 0.9}).approximate is False
            assert conn.execute(sql, options={"mode": "approximate"}).approximate is True
        with repro.client.connect(*srv.address, timeout=10.0, options={"confidence": 0.9}) as conn:
            assert conn.execute(sql).approximate is False
            assert conn.execute(sql, options={"accuracy": 0.5}).approximate is False
    finally:
        srv.shutdown()
        engine.close()


def test_incremental_fetch_pulls_batches(client):
    cursor = client.cursor()
    cursor.execute("SELECT order_id FROM orders ORDER BY order_id")
    assert cursor.rowcount == 20_000
    first = cursor.fetchmany(7)
    assert [row[0] for row in first] == list(range(7))
    # The buffer holds what the RESULT frame carried; the rest is still
    # server-side (incremental consumption, not one giant frame).
    assert len(cursor._buffer) == DEFAULT_FETCH_ROWS - 7
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
    assert report.status == "ok"
    assert report.pool is not None and report.pool["max_size"] == 2
    assert report.server is not None and report.server["connections"] >= 1
    assert "statement_cache_hits" in report.stats


def test_health_check_reads_an_older_servers_report(client, monkeypatch):
    # Servers that ran a shard pool also sent "engine" and "circuit" sections.
    report = {
        "status": "ok",
        "backend": "Database",
        "engine": {"workers": 2},
        "circuit": {"state": "closed", "consecutive_failures": 0},
        "pool": {"max_size": 2},
        "server": None,
        "stats": {"statement_cache_hits": 1},
    }
    monkeypatch.setattr(client, "_exchange", lambda message: {"type": "HEALTHY", "report": report})
    health = client.health_check()
    assert health.ok and health.pool == {"max_size": 2}
    assert health.stats == {"statement_cache_hits": 1}


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
    cursor.cancel()  # races completion: the one cancel rule, as in-process
    with pytest.raises(InterfaceError):
        cursor.fetchall()
    # The stray CANCEL is harmless: the next statement re-arms the cursor and
    # the connection answers as before.
    cursor.execute("SELECT count(*) AS n FROM orders", options={"mode": "exact"})
    assert cursor.fetchall() == [(20_000,)]
    assert client.execute("SELECT count(*) AS n FROM orders").fetchone() is not None


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


def test_shutdown_sends_the_reply_in_flight_before_hanging_up():
    engine = sampled_engine(
        rows=2_000,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.2, "times": None}
        },
    )
    srv = repro.serve(database=engine, port=0, pool_size=2)
    conn = repro.client.connect(*srv.address, timeout=10.0)
    try:
        outcome = []

        def run_slow():
            try:
                outcome.append(conn.execute("SELECT sum(price) AS s FROM orders").fetchall())
            except Exception as exc:
                outcome.append(exc)

        slow = threading.Thread(target=run_slow)
        slow.start()
        time.sleep(0.2)
        srv.shutdown(drain=False)  # cancels the statement, then closes the connection
        slow.join(timeout=30.0)
        # The typed error, not a bare end of stream.
        assert [type(item) for item in outcome] == [QueryCancelledError]
        with pytest.raises(InterfaceError):
            conn.execute("SELECT count(*) AS n FROM orders")
    finally:
        conn.close()
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


@pytest.mark.parametrize("version", [1, 999])
def test_version_mismatch_is_rejected(server, version):
    # Version 1 spoke row-major ROWS frames; there is no fallback to it.
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5.0)
    try:
        protocol.send_frame(sock, {"type": "HELLO", "version": version})
        frame = protocol.recv_frame(sock)
        assert frame["type"] == "ERROR"
        assert isinstance(protocol.decode_error(frame), ProtocolError)
        assert "version" in frame["message"]
        assert protocol.recv_frame(sock) is None  # and the server hangs up
    finally:
        sock.close()


def test_fetch_for_unknown_query_id_is_a_typed_error(client):
    cursor = client.cursor()
    with pytest.raises(InterfaceError):
        cursor.execute("SELECT count(*) AS n FROM orders")  # buffers nothing...
        cursor._query_id = "bogus"
        cursor._fetch_more(10)


def test_frame_codec_roundtrip_and_guards():
    # numpy scalars (bound parameters, values boxed in an object column)
    # become native numbers on the wire.
    left, right = socket.socketpair()
    try:
        protocol.send_frame(
            left, {"type": "QUERY", "params": [np.int64(3), np.float64(0.5)]}
        )
        frame = protocol.recv_frame(right)
        assert frame["params"] == [3, 0.5]
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


def test_options_codec_reads_none_as_not_set():
    # A client that sends every field, unset ones as null, gets the defaults
    # (not a ProtocolError), and a null never erases a field of the base.
    full = {name: None for name in protocol.encode_options(ExecutionOptions())}
    assert protocol.decode_options({**full, "mode": "exact"}) == ExecutionOptions(mode="exact")
    base = ExecutionOptions(mode="exact", confidence=0.8)
    decoded = protocol.decode_options({**full, "accuracy": 0.9}, base)
    assert decoded == ExecutionOptions(mode="exact", confidence=0.8, accuracy=0.9)
    assert protocol.decode_options(None, base) is base
    with pytest.raises(ProtocolError):
        protocol.decode_options({"confidence": 2.0}, base)


def test_error_codec_reconstructs_typed_exceptions():
    err = protocol.decode_error(
        protocol.encode_error(ServerBusyError("server at capacity"))
    )
    assert isinstance(err, ServerBusyError)
    unknown = protocol.decode_error({"name": "NoSuchError", "message": "boom"})
    assert "NoSuchError" in str(unknown)


# ---------------------------------------------------------------------------
# the serving hot path: frames and threads per statement
# ---------------------------------------------------------------------------


class CountingSocket:
    """Counts the frames a client connection writes and reads."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.sent = 0
        self.received = 0
        self._header = b""
        self._payload_left = 0

    def sendall(self, data: bytes) -> None:
        self.sent += 1  # send_frame writes a frame with one sendall
        self.sock.sendall(data)

    def recv(self, count: int) -> bytes:
        data = self.sock.recv(count)
        view = data
        while view:
            if self._payload_left == 0:
                take = 4 - len(self._header)
                self._header, view = self._header + view[:take], view[take:]
                if len(self._header) < 4:
                    break
                (self._payload_left,) = struct.unpack(">I", self._header)
                self._header = b""
            else:
                take = min(self._payload_left, len(view))
                self._payload_left, view = self._payload_left - take, view[take:]
            if self._payload_left == 0 and not self._header:
                self.received += 1
        return data

    def close(self) -> None:
        self.sock.close()

    def exchanges(self) -> int:
        """Frames since the last call; every one sent has been answered."""
        assert self.sent == self.received
        count, self.sent, self.received = self.sent, 0, 0
        return count


@pytest.fixture()
def counted(client):
    client._sock = CountingSocket(client._sock)  # the handshake is behind us
    return client


def test_one_frame_each_way_up_to_default_fetch_rows(counted):
    wire = counted._sock
    cursor = counted.cursor()
    statements = [
        ("SELECT count(*) AS n FROM orders", 1),
        ("SELECT city, avg(price) AS a FROM orders GROUP BY city ORDER BY city", 3),
        (f"SELECT order_id FROM orders WHERE order_id < {DEFAULT_FETCH_ROWS}", DEFAULT_FETCH_ROWS),
        ("SELECT order_id FROM orders WHERE order_id < 0", 0),
    ]
    for sql, expected in statements:
        cursor.execute(sql, options={"mode": "exact"})
        assert wire.exchanges() == 1
        rows = list(iter(cursor.fetchone, None)) if expected == 3 else cursor.fetchall()
        assert len(rows) == expected == cursor.rowcount
        assert cursor.fetchmany(5) == [] and cursor.fetchone() is None
        assert wire.exchanges() == 0  # every row rode the RESULT frame


@pytest.mark.parametrize(
    "total, count",
    [(DEFAULT_FETCH_ROWS + 1, 256), (1_500, 256), (1_500, 119), (5_000, None), (20_000, 1024)],
)
def test_longer_answers_are_paged_by_fetch(counted, total, count):
    wire = counted._sock
    cursor = counted.cursor()
    cursor.execute(f"SELECT order_id FROM orders WHERE order_id < {total} ORDER BY order_id")
    rows = []
    if count is None:
        rows = cursor.fetchall()
        count = DEFAULT_FETCH_ROWS
    else:
        while batch := cursor.fetchmany(count):
            assert len(batch) == min(count, total - len(rows))
            rows.extend(batch)
    assert rows == [(index,) for index in range(total)]
    assert wire.exchanges() == 1 + math.ceil((total - DEFAULT_FETCH_ROWS) / count)


def serving_threads() -> list[str]:
    return sorted(t.name for t in threading.enumerate() if t.name.startswith("repro-server-"))


def wait_for_threads(expected: int) -> None:
    deadline = time.monotonic() + 5.0
    while len(serving_threads()) != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(serving_threads()) == expected, serving_threads()


def test_no_thread_is_created_per_statement(server, monkeypatch):
    wait_for_threads(1)  # this server's accept loop; earlier tests' threads are gone
    baseline = threading.active_count()
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    host, port = server.address
    with repro.client.connect(host, port, timeout=10.0) as conn:
        cursor = conn.cursor()
        cursor.execute("SELECT count(*) AS n FROM orders WHERE order_id < ?", (0,))
        assert len(started) == 2 and threading.active_count() == baseline + 2
        assert [name.split("-")[2] for name in serving_threads()] == [
            "accept", "client", "worker"
        ]
        for index in range(500):
            cursor.execute("SELECT count(*) AS n FROM orders WHERE order_id < ?", (index,))
            assert cursor.fetchone() is not None
            assert threading.active_count() == baseline + 2
        assert len(started) == 2  # the connection's reader and worker, nothing since
    wait_for_threads(1)
    assert threading.active_count() == baseline


def tiny_server(**engine_kwargs) -> tuple[Database, VerdictServer]:
    """One run slot and no queue: a statement is refused whenever another
    one still holds the slot."""
    engine = sampled_engine(rows=2_000, **engine_kwargs)
    srv = VerdictServer(
        database=engine, port=0, pool_size=2, max_concurrent_queries=1, max_queue_depth=0
    )
    return engine, srv.start()


def test_reply_never_precedes_the_release_of_its_slot():
    # The slot must be free before the client can read the reply, or its next
    # statement is refused on account of its previous one — after a RESULT,
    # after an ERROR ...
    engine, srv = tiny_server()
    try:
        with repro.client.connect(*srv.address, timeout=10.0) as conn:
            cursor = conn.cursor()
            for index in range(300):
                if index % 50 == 7:
                    with pytest.raises(ProgrammingError):
                        cursor.execute("SELECT nope FROM missing_table")
                cursor.execute("SELECT count(*) AS n FROM orders", options={"mode": "exact"})
                assert cursor.fetchone() == (2_000,)
        assert srv.stats.rejected == 0
    finally:
        srv.shutdown()
        engine.close()
    # ... and after a cancelled statement (the step examples/serve.py tripped on).
    engine, srv = tiny_server(
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.05, "times": None}
        }
    )
    try:
        with repro.client.connect(*srv.address, timeout=10.0) as conn:
            cursor = conn.cursor()
            for _ in range(5):
                canceller = threading.Timer(0.1, cursor.cancel)
                canceller.start()
                try:
                    with pytest.raises(QueryCancelledError):
                        cursor.execute("SELECT sum(price) AS s FROM orders")
                finally:
                    canceller.cancel()
                cursor.execute("SELECT order_id FROM orders LIMIT 1", options={"mode": "exact"})
                assert cursor.fetchone() == (0,)
        assert srv.stats.rejected == 0 and srv.stats.cancelled == 5
    finally:
        srv.shutdown()
        engine.close()


def test_abandoned_results_are_discarded(server, client):
    (handler,) = server._handlers
    cursor = client.cursor()
    for _ in range(50):
        cursor.execute("SELECT order_id FROM orders WHERE order_id < 5000 ORDER BY order_id")
        assert cursor.fetchone() == (0,)
        cursor.execute("SELECT count(*) AS n FROM orders", options={"mode": "exact"})
        assert len(handler._results) <= 1
    cursor.execute("SELECT order_id FROM orders WHERE order_id < 5000")
    assert len(handler._results) == 1
    other = client.execute("SELECT order_id FROM orders WHERE order_id < 3000")
    assert len(handler._results) == 2
    cursor.close()
    other.close()
    client.health_check()  # DISCARD has no reply; frames are handled in order
    assert handler._results == {}
    # A result fetched to its last row needs no DISCARD (nor tolerates a stale one).
    drained = client.execute("SELECT order_id FROM orders WHERE order_id < 3000")
    assert len(drained.fetchall()) == 3000 and handler._results == {}
    drained.close()
    assert client.execute("SELECT count(*) AS n FROM orders").fetchone() is not None


# ---------------------------------------------------------------------------
# served rows are the local cursor's rows
# ---------------------------------------------------------------------------


def assert_same_rows(served: list[tuple], local: list[tuple]) -> None:
    """Equal values of equal (native) types; NaN equals NaN."""
    assert len(served) == len(local)
    for served_row, local_row in zip(served, local):
        assert len(served_row) == len(local_row)
        for got, value in zip(served_row, local_row):
            expected = value.item() if isinstance(value, np.generic) else value
            assert type(got) is type(expected), (got, expected)
            assert got == expected or (got != got and expected != expected), (got, expected)


def test_served_rows_equal_local_rows_on_the_benchmark_statements():
    dataset = build.generate(7, build.QUICK.scale_factor)
    database, connection = build.build_engine(dataset)
    srv = repro.serve(
        database=database, port=0, pool_size=2,
        session_kwargs={"planner_config": build.planner_config()},
    )
    try:
        ops = queries.dash_ops(7)[:6] + queries.tpch_ops()
        assert len({op.group for op in ops}) == 6 + 18
        local = connection.cursor()
        with repro.client.connect(*srv.address, timeout=60.0) as remote:
            served = remote.cursor()
            approximate = 0
            for op in ops:
                local.execute(op.text, op.params)
                served.execute(op.text, op.params)
                assert [d[0] for d in served.description] == [d[0] for d in local.description]
                assert served.rowcount == local.rowcount, op.key
                assert served.approximate == (not local.last_result.is_exact), op.key
                assert_same_rows(served.fetchall(), local.fetchall())
                approximate += served.approximate
        assert 0 < approximate < len(ops)  # sampled and pass-through answers alike
    finally:
        srv.shutdown()
        connection.close()
        database.close()


def test_served_rows_equal_local_rows_on_edge_values():
    engine = Database(seed=0)
    big = np.iinfo(np.int64)
    engine.register_table(
        "edge",
        {
            "id": np.arange(6),
            "wide": np.array([big.min, big.max, 0, -1, 2**53 + 1, -(2**53) - 1], dtype=np.int64),
            "real": np.array([np.nan, np.inf, -np.inf, -0.0, 1e-310, 0.1 + 0.2]),
            "flag": np.array([True, False, True, True, False, False]),
            "name": np.array(["Zürich", "東京", None, "", "naïve ☃", "plain"], dtype=object),
        },
    )
    statements = [
        "SELECT id, wide, real, flag, name FROM edge ORDER BY id",
        "SELECT wide FROM edge WHERE id < 0",  # zero rows, one column
        "SELECT name, count(*) AS n, max(wide) AS top FROM edge GROUP BY name ORDER BY n, top",
        "SELECT flag, sum(real) AS s, min(wide) AS low FROM edge WHERE id > 2 GROUP BY flag "
        "ORDER BY flag",
        "INSERT INTO edge (id, wide, real, flag, name) VALUES (6, 7, NULL, NULL, NULL)",
        "SELECT id, real, flag, name FROM edge WHERE id = 6",  # NULLs the INSERT stored
    ]
    connection = repro.connect(database=engine)
    srv = repro.serve(database=engine, port=0, pool_size=1)
    try:
        local = connection.cursor()
        with repro.client.connect(*srv.address, timeout=10.0) as remote:
            served = remote.cursor()
            for sql in statements:
                if sql.startswith("INSERT"):
                    served.execute(sql, options={"mode": "exact"})
                    assert served.description is None and served.rowcount == -1
                    assert served.fetchall() == []
                    continue
                local.execute(sql, options=ExecutionOptions(mode="exact"))
                served.execute(sql, options={"mode": "exact"})
                assert [d[0] for d in served.description] == [d[0] for d in local.description]
                assert served.rowcount == local.rowcount
                assert_same_rows(served.fetchall(), local.fetchall())
    finally:
        srv.shutdown()
        connection.close()
        engine.close()

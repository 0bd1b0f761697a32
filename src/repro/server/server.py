"""VerdictServer: a threaded socket server over a connection pool.

One :class:`VerdictServer` owns a
:class:`~repro.api.pool.ConnectionPool` (and therefore one shared engine:
samples and caches are built once and serve every
client).  Each accepted TCP connection gets two long-lived threads: a reader
speaking the frame protocol of :mod:`repro.server.protocol`, and a worker the
reader hands each QUERY to through a queue, so the reader stays responsive to
CANCEL mid-query and no thread is created per statement.  A connection
executes one statement at a time.  The RESULT frame carries the answer's
first :data:`DEFAULT_FETCH_ROWS` rows; only a longer answer stays buffered
here, paged out by FETCH and freed by its last row, a DISCARD or the
disconnect.

Operational behaviour the tests pin down:

* **per-connection options** — HELLO may carry default
  :class:`ExecutionOptions`; options merge *field-wise* in the order
  server → HELLO → QUERY (each layer replaces only the fields it sets, so a
  query that sets only ``accuracy`` keeps the connection's and the server's
  ``mode``).
* **admission control** — at most ``max_concurrent_queries`` execute at
  once; up to ``max_queue_depth`` more wait for a slot; anything beyond is
  rejected immediately with a typed
  :class:`~repro.errors.ServerBusyError` (retryable by design).
* **cancellation** — a CANCEL frame flips the running query's
  :class:`~repro.faults.QueryDeadline` through a
  :class:`~repro.faults.DeadlineRegistry`; the query stops at its next
  cooperative checkpoint and the client's pending QUERY resolves with a
  :class:`~repro.errors.QueryCancelledError`.
* **graceful drain** — :meth:`shutdown` stops accepting, rejects new
  queries, waits for in-flight work up to a timeout, then cancels whatever
  is left and closes every client connection (after the reply it still owes:
  a cancelled statement's client reads a typed error, not an end of stream)
  and the pool.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import asdict, dataclass, replace
from collections.abc import Mapping

from repro.api.options import ExecutionOptions
from repro.api.pool import ConnectionPool
from repro.connectors.base import Connector
from repro.errors import InterfaceError, ProtocolError, ServerBusyError
from repro.faults import DeadlineRegistry, QueryDeadline
from repro.health import HealthReport
from repro.server import protocol
from repro.server.protocol import DEFAULT_FETCH_ROWS
from repro.sqlengine.engine import Database


@dataclass(frozen=True)
class ServerStats:
    """One consistent snapshot of the server's load counters."""

    connections: int
    running: int
    queued: int
    served: int
    rejected: int
    cancelled: int
    draining: bool

    def as_dict(self) -> dict:
        return asdict(self)


class VerdictServer:
    """The middleware as a network service.

    Args:
        connector / database: the backend, exactly as for
            :func:`repro.connect`; omitted means a fresh in-process engine.
        host / port: bind address; ``port=0`` picks an ephemeral port
            (read :attr:`address` after :meth:`start`).
        pool_size: members of the shared connection pool.
        max_concurrent_queries: queries executing simultaneously.
        max_queue_depth: admitted queries allowed to wait for a slot.
        options: server-wide default :class:`ExecutionOptions` (clients'
            HELLO options override these field-wise, queries override both).
        session_kwargs: forwarded to every pooled session.
    """

    def __init__(
        self,
        connector: Connector | None = None,
        database: Database | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = 4,
        max_concurrent_queries: int = 8,
        max_queue_depth: int = 16,
        options: ExecutionOptions | None = None,
        session_kwargs: Mapping | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.max_concurrent_queries = max_concurrent_queries
        self.max_queue_depth = max_queue_depth
        self.options = options
        self._pool = ConnectionPool(
            connector=connector,
            database=database,
            min_size=min(1, pool_size),
            max_size=pool_size,
            options=options,
            session_kwargs=session_kwargs,
        )
        self._registry = DeadlineRegistry()
        self._admission = threading.Condition()
        self._running = 0
        self._queued = 0
        self._served = 0
        self._rejected = 0
        self._cancelled = 0
        self._draining = False
        self._started = False
        self._closed = False
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._handlers: set[_ClientHandler] = set()
        self._handlers_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        if self._listener is None:
            raise InterfaceError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> VerdictServer:
        """Bind, listen and start the accept loop (idempotent)."""
        if self._closed:
            raise InterfaceError("server is closed")
        if self._started:
            return self
        self._listener = socket.create_server((self.host, self.port))
        self._listener.settimeout(0.2)
        self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._draining and not self._closed:
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us during shutdown
            try:
                # Request/response frames are small; without TCP_NODELAY the
                # kernel would hold replies hostage to delayed ACKs.
                client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - e.g. AF_UNIX test doubles
                pass
            handler = _ClientHandler(self, client)
            with self._handlers_lock:
                if self._draining or self._closed:
                    client.close()
                    return
                self._handlers.add(handler)
            handler.start()

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop serving: drain in-flight queries, then tear everything down.

        With ``drain=True`` new queries are rejected with
        :class:`ServerBusyError` while running/queued ones get up to
        ``timeout`` seconds to finish; whatever remains is cancelled.  With
        ``drain=False`` everything in flight is cancelled immediately.
        """
        with self._admission:
            if self._closed:
                return
            self._draining = True
            self._admission.notify_all()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        if drain:
            deadline = time.monotonic() + timeout
            with self._admission:
                while self._running + self._queued > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._admission.wait(remaining)
        self._registry.cancel_all()
        with self._handlers_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.close()
        for handler in handlers:
            handler.join(timeout=2.0)
        with self._admission:
            self._closed = True
        self._pool.close()

    def close(self) -> None:
        """Immediate shutdown (no drain)."""
        self.shutdown(drain=False, timeout=0.0)

    def __enter__(self) -> VerdictServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _forget(self, handler: _ClientHandler) -> None:
        with self._handlers_lock:
            self._handlers.discard(handler)

    # -- admission --------------------------------------------------------------

    def _admit(self) -> bool:
        """Reserve an execution or queue slot; returns ``queued``.

        Raises :class:`ServerBusyError` when the server is draining or both
        the run slots and the queue are full.  Called from reader threads so
        rejection is immediate (the client never waits to be told no).
        """
        with self._admission:
            if self._draining or self._closed:
                raise ServerBusyError("server is draining; retry against another node")
            if self._running < self.max_concurrent_queries:
                self._running += 1
                return False
            if self._queued < self.max_queue_depth:
                self._queued += 1
                return True
            self._rejected += 1
            raise ServerBusyError(
                f"server at capacity ({self._running} running, "
                f"{self._queued} queued); retry later"
            )

    def _wait_for_slot(self) -> None:
        """Turn a queue reservation into a run slot (worker threads only)."""
        with self._admission:
            while self._running >= self.max_concurrent_queries and not self._draining:
                self._admission.wait()
            self._queued -= 1
            if self._draining:
                self._admission.notify_all()
                raise ServerBusyError("server is draining; retry against another node")
            self._running += 1

    def _release_slot(self, served: bool) -> None:
        with self._admission:
            self._running -= 1
            if served:
                self._served += 1
            self._admission.notify_all()

    # -- observability -----------------------------------------------------------

    @property
    def stats(self) -> ServerStats:
        with self._admission:
            with self._handlers_lock:
                connections = len(self._handlers)
            return ServerStats(
                connections=connections,
                running=self._running,
                queued=self._queued,
                served=self._served,
                rejected=self._rejected,
                cancelled=self._cancelled,
                draining=self._draining,
            )

    def health(self) -> HealthReport:
        """Engine + pool health with this server's section attached."""
        return replace(self._pool.health(), server=self.stats.as_dict())


class _ClientHandler:
    """One connected client: a reader thread and a worker thread."""

    _ids = iter(range(1, 1 << 62))
    _ids_lock = threading.Lock()

    def __init__(self, server: VerdictServer, sock: socket.socket) -> None:
        self.server = server
        self.sock = sock
        with self._ids_lock:
            self.id = next(self._ids)
        self._write_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-server-client-{self.id}", daemon=True
        )
        # Admitted QUERYs, reader -> worker; None ends the worker.
        self._queries: queue.SimpleQueue[tuple | None] = queue.SimpleQueue()
        self._worker = threading.Thread(
            target=self._work, name=f"repro-server-worker-{self.id}", daemon=True
        )
        # The server's options with HELLO's merged over them; each QUERY's
        # options are merged over these in turn.
        self._options: ExecutionOptions | None = server.options
        # query_id -> [columns, position]: what FETCH has yet to deliver of
        # an answer longer than its RESULT frame.
        self._results: dict[str, list] = {}
        self._results_lock = threading.Lock()
        self._closing = False

    def start(self) -> None:
        self._worker.start()
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        for thread in (self._thread, self._worker):
            if thread.is_alive():
                thread.join(timeout)

    def close(self) -> None:
        """Stop reading.  The write side stays open until the worker has
        sent the reply it is working on (a drained statement's RESULT, a
        cancelled one's ERROR) and hangs up."""
        self._closing = True
        try:
            # Wakes the reader out of recv(); closing the socket would not.
            self.sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # the peer hung up first

    def _send(self, message: dict) -> None:
        self._write(protocol.encode_frame(message))

    def _write(self, frame: bytes) -> None:
        with self._write_lock:
            try:
                self.sock.sendall(frame)
            except OSError:
                # Peer vanished; the reader loop will notice and clean up.
                self._closing = True

    # -- main loop ---------------------------------------------------------------

    def _run(self) -> None:
        try:
            if not self._handshake():
                return
            while not self._closing:
                try:
                    frame = protocol.recv_frame(self.sock)
                except (ProtocolError, OSError):
                    return
                if frame is None:
                    return
                if not self._dispatch(frame):
                    return
        finally:
            self.close()
            self._queries.put(None)
            self.server._forget(self)

    def _handshake(self) -> bool:
        try:
            frame = protocol.recv_frame(self.sock)
        except (ProtocolError, OSError):
            return False
        if frame is None:
            return False
        if frame.get("type") != "HELLO":
            self._send(protocol.encode_error(ProtocolError("expected HELLO first")))
            return False
        version = frame.get("version")
        if version != protocol.PROTOCOL_VERSION:
            self._send(
                protocol.encode_error(
                    ProtocolError(
                        f"protocol version mismatch: server speaks "
                        f"{protocol.PROTOCOL_VERSION}, client sent {version!r}"
                    )
                )
            )
            return False
        try:
            self._options = protocol.decode_options(frame.get("options"), self._options)
        except ProtocolError as exc:
            self._send(protocol.encode_error(exc))
            return False
        self._send(
            {
                "type": "WELCOME",
                "version": protocol.PROTOCOL_VERSION,
                "server": "repro",
            }
        )
        return True

    def _dispatch(self, frame: dict) -> bool:
        """Handle one frame; False ends the connection."""
        kind = frame.get("type")
        if kind == "QUERY":
            self._on_query(frame)
        elif kind == "FETCH":
            self._on_fetch(frame)
        elif kind == "CANCEL":
            self._on_cancel(frame)
        elif kind == "DISCARD":
            self._on_discard(frame)
        elif kind == "HEALTH":
            report = self.server.health()
            self._send({"type": "HEALTHY", "report": report.as_sections()})
        elif kind == "CLOSE":
            self._send({"type": "GOODBYE"})
            return False
        else:
            self._send(
                protocol.encode_error(ProtocolError(f"unknown frame type {kind!r}"))
            )
        return True

    # -- QUERY -------------------------------------------------------------------

    def _on_query(self, frame: dict) -> None:
        query_id = frame.get("id")
        sql = frame.get("sql")
        try:
            if not isinstance(query_id, str) or not isinstance(sql, str):
                raise ProtocolError("QUERY requires string 'id' and 'sql'")
            with self._results_lock:
                if query_id in self._results:
                    raise ProtocolError(f"query id {query_id!r} already has a result")
            options = protocol.decode_options(frame.get("options"), self._options)
            # Admission last: a statement refused for any reason above never
            # holds a slot.
            queued = self.server._admit()
        except (ProtocolError, ServerBusyError) as exc:
            self._send(protocol.encode_error(exc, query_id))
            return
        self._queries.put((query_id, sql, frame.get("params"), options, queued))

    def _work(self) -> None:
        """The worker thread: admitted QUERYs, one at a time, in order; the
        socket's last user, so the one that closes it."""
        try:
            while (query := self._queries.get()) is not None:
                self._run_query(*query)
        finally:
            self.sock.close()

    def _run_query(
        self,
        query_id: str,
        sql: str,
        params,
        options: ExecutionOptions | None,
        queued: bool,
    ) -> None:
        if queued:
            try:
                self.server._wait_for_slot()
            except ServerBusyError as exc:
                self._send(protocol.encode_error(exc, query_id))
                return
        served = False
        deadline = QueryDeadline()
        try:
            with self.server._registry.tracking((self.id, query_id), deadline):
                with self.server._pool.connection() as pooled:
                    result = pooled.session.execute(
                        sql, params, options, deadline=deadline
                    )
            names = result.column_names()
            columns = [result.column(name) for name in names]
            page = _page(columns, 0, DEFAULT_FETCH_ROWS)
            reply = protocol.encode_frame(
                {
                    "type": "RESULT",
                    "id": query_id,
                    "description": names,
                    "rowcount": result.num_rows if names else -1,
                    "approximate": not result.is_exact,
                    "elapsed_seconds": result.elapsed_seconds,
                    **page,
                }
            )
            if not page["done"]:
                # Only what the frame could not carry stays behind for FETCH;
                # buffering more would leak state the client never asks for.
                with self._results_lock:
                    self._results[query_id] = [columns, DEFAULT_FETCH_ROWS]
            served = True
        # repro: ignore[REP004] -- server boundary: every failure of a QUERY
        # must be serialized as a typed ERROR frame for the client; letting
        # anything escape here would kill the connection's worker instead.
        except Exception as exc:
            if deadline.cancelled:
                with self.server._admission:
                    self.server._cancelled += 1
            reply = protocol.encode_frame(protocol.encode_error(exc, query_id))
        # The slot is free before the client can read the reply, so its next
        # statement is never refused on account of this one.
        self.server._release_slot(served)
        self._write(reply)

    # -- FETCH / CANCEL / DISCARD --------------------------------------------------

    def _on_fetch(self, frame: dict) -> None:
        query_id = frame.get("id")
        count = frame.get("count", DEFAULT_FETCH_ROWS)
        if not isinstance(count, int) or count < 1:
            count = DEFAULT_FETCH_ROWS
        with self._results_lock:
            state = self._results.get(query_id)
            if state is not None:
                page = _page(*state, count)
                state[1] += count
                if page["done"]:
                    # Free the buffer as soon as the client has everything.
                    del self._results[query_id]
        if state is None:
            error = InterfaceError(f"no result buffered for query {query_id!r}")
            self._send(protocol.encode_error(error, query_id))
            return
        self._send({"type": "ROWS", "id": query_id, **page})

    def _on_cancel(self, frame: dict) -> None:
        query_id = frame.get("id")
        # Fire-and-forget: a hit flips the running query's token (its QUERY
        # resolves with a QueryCancelledError), a miss means the query
        # already finished — indistinguishable races, both fine.
        self.server._registry.cancel((self.id, query_id))

    def _on_discard(self, frame: dict) -> None:
        # Fire-and-forget like CANCEL: the client abandoned a result FETCH
        # had not finished; an unknown id is a result already delivered.
        query_id = frame.get("id")
        if isinstance(query_id, str):
            with self._results_lock:
                self._results.pop(query_id, None)


def _page(columns: list, start: int, count: int) -> dict:
    """The ``columns`` / ``done`` payload of rows [start, start + count).

    ``ndarray.tolist()`` yields native Python values at C speed, so no
    per-value hook runs when the frame is encoded.
    """
    end = start + count
    return {
        "columns": [column[start:end].tolist() for column in columns],
        "done": not columns or end >= len(columns[0]),
    }


def serve(
    connector: Connector | None = None,
    database: Database | None = None,
    **server_kwargs,
) -> VerdictServer:
    """Construct and start a :class:`VerdictServer` in one call.

    ``with repro.server.serve(database=db, port=0) as srv: ...`` — read
    ``srv.address`` for the bound port.
    """
    return VerdictServer(connector, database, **server_kwargs).start()


__all__ = ["DEFAULT_FETCH_ROWS", "ServerStats", "VerdictServer", "serve"]

"""Thin socket client: the DB-API surface over the wire protocol.

``repro.client.connect(host, port)`` speaks the frame protocol of
:mod:`repro.server.protocol` to a :class:`~repro.server.VerdictServer` and
exposes the familiar surface — ``connection.cursor()``, ``execute``,
``fetchone``/``fetchmany``/``fetchall``, iteration, ``cursor.cancel()``,
``connection.health_check()`` — so moving an application from in-process to
client/server is a one-line change of ``connect`` call.

Typed errors travel the wire: a rejected query raises
:class:`~repro.errors.ServerBusyError` here, a cancelled one raises
:class:`~repro.errors.QueryCancelledError`, a malformed exchange raises
:class:`~repro.errors.ProtocolError` — the same classes the in-process API
uses.

One statement is one frame each way: the RESULT frame carries the answer's
first :data:`DEFAULT_FETCH_ROWS` rows, so a dashboard-sized answer never
costs a second exchange.  Only a longer answer is fetched *incrementally* —
``fetchone``/``fetchmany`` pull further batches on demand (FETCH frames), so
a client can consume a large answer without ever holding it whole; a cursor
re-executed or closed before its last row tells the server to drop the rest
(DISCARD).

Concurrency model: one request/response exchange at a time per connection
(guarded internally), with one deliberate exception — :meth:`RemoteCursor.cancel`
may be called from another thread while ``execute`` is waiting, because the
CANCEL frame is fire-and-forget: the server answers it by failing the
pending QUERY, not by replying to the CANCEL.  DISCARD is fire-and-forget too.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.api.options import ExecutionOptions
from repro.errors import InterfaceError, ProtocolError
from repro.health import HealthReport
from repro.server import protocol

#: Rows pulled per FETCH frame when the caller has not set a batch size
#: (also what the server puts in a RESULT frame).
DEFAULT_FETCH_ROWS = 1024


def connect(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    options: ExecutionOptions | Mapping[str, Any] | None = None,
    timeout: float | None = None,
) -> RemoteConnection:
    """Connect to a running server and perform the HELLO handshake.

    Args:
        host / port: the server's bound address
            (:attr:`VerdictServer.address`).
        options: connection-wide default :class:`ExecutionOptions` — sent in
            HELLO and applied server-side to every query from this
            connection.  A plain mapping is accepted as sparse overrides.
        timeout: socket timeout in seconds for connect and every exchange.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        # Frames are small request/response pairs; Nagle's algorithm would
        # serialize them against delayed ACKs and destroy latency.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return RemoteConnection(sock, options=options)
    except BaseException:
        sock.close()
        raise


def _options_payload(
    options: ExecutionOptions | Mapping[str, Any] | None,
) -> dict[str, Any] | None:
    """Options → wire dict: full for ExecutionOptions, sparse for mappings."""
    if options is None:
        return None
    if isinstance(options, ExecutionOptions):
        return protocol.encode_options(options)
    if isinstance(options, Mapping):
        return dict(options)
    raise InterfaceError(
        "options must be ExecutionOptions or a mapping of overrides"
    )


class RemoteConnection:
    """A DB-API-shaped connection to a remote middleware server."""

    def __init__(
        self,
        sock: socket.socket,
        options: ExecutionOptions | Mapping[str, Any] | None = None,
    ) -> None:
        self._sock = sock
        self._closed = False
        # Serializes whole request/response exchanges; _write_lock alone
        # guards raw sends so cancel() can interleave its frame.
        self._io_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._query_counter = 0
        self._counter_lock = threading.Lock()
        hello: dict[str, Any] = {"type": "HELLO", "version": protocol.PROTOCOL_VERSION}
        payload = _options_payload(options)
        if payload:
            hello["options"] = payload
        reply = self._exchange(hello)
        if reply.get("type") != "WELCOME":
            raise ProtocolError(f"expected WELCOME, got {reply.get('type')!r}")

    # -- wire helpers ------------------------------------------------------------

    def _send(self, message: dict[str, Any]) -> None:
        with self._write_lock:
            protocol.send_frame(self._sock, message)

    def _recv(self) -> dict[str, Any]:
        frame = protocol.recv_frame(self._sock)
        if frame is None:
            raise InterfaceError("server closed the connection")
        if frame.get("type") == "ERROR":
            # repro: ignore[REP004] -- decode_error reconstructs typed
            # repro.errors classes from the wire (unknown names degrade to
            # OperationalError), so only library types cross this boundary.
            raise protocol.decode_error(frame)
        return frame

    def _exchange(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip (the connection's unit of work)."""
        self._check_open()
        with self._io_lock:
            self._send(message)
            return self._recv()

    def _next_query_id(self) -> str:
        with self._counter_lock:
            self._query_counter += 1
            return f"q{self._query_counter}"

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Orderly goodbye (idempotent; tolerates a vanished server)."""
        if self._closed:
            return
        self._closed = True
        try:
            with self._io_lock:
                self._send({"type": "CLOSE"})
                protocol.recv_frame(self._sock)  # GOODBYE (or EOF) — either is fine
        except (OSError, ProtocolError, InterfaceError):
            pass
        finally:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> RemoteConnection:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- DB-API surface ------------------------------------------------------------

    def cursor(
        self, options: ExecutionOptions | Mapping[str, Any] | None = None
    ) -> RemoteCursor:
        self._check_open()
        return RemoteCursor(self, options=options)

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | Mapping[str, Any] | None = None,
        options: ExecutionOptions | Mapping[str, Any] | None = None,
    ) -> RemoteCursor:
        """Shorthand: open a cursor, execute, return the cursor."""
        cursor = self.cursor()
        cursor.execute(sql, params, options=options)
        return cursor

    def commit(self) -> None:
        self._check_open()

    def rollback(self) -> None:
        self._check_open()

    def health_check(self) -> HealthReport:
        """The server's :class:`HealthReport` (pool, server and stats sections)."""
        reply = self._exchange({"type": "HEALTH"})
        if reply.get("type") != "HEALTHY":
            raise ProtocolError(f"expected HEALTHY, got {reply.get('type')!r}")
        return HealthReport.from_sections(reply.get("report", {}))


class RemoteCursor:
    """A cursor over one remote result, fetching long ones incrementally."""

    arraysize = 1

    def __init__(
        self,
        connection: RemoteConnection,
        options: ExecutionOptions | Mapping[str, Any] | None = None,
    ) -> None:
        self.connection = connection
        self.options = options
        self._closed = False
        self.description: list[tuple[Any, ...]] | None = None
        self.rowcount = -1
        #: True when the server answered from samples (with error columns
        #: available server-side); False for exact pass-through answers.
        self.approximate: bool | None = None
        self._query_id: str | None = None
        self._buffer: deque[tuple[Any, ...]] = deque()
        #: False while the server still buffers rows of this result.
        self._exhausted = True

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True
        self._discard()

    def __enter__(self) -> RemoteCursor:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _discard(self) -> None:
        """Drop the current result, here and (what is left of it) server-side."""
        self._buffer.clear()
        if not self._exhausted:
            self._exhausted = True
            self._notify("DISCARD")

    def _notify(self, kind: str) -> None:
        """A fire-and-forget frame about this cursor's statement."""
        if self._query_id is None or self.connection.closed:
            return
        try:
            self.connection._send({"type": kind, "id": self._query_id})
        except OSError:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def _check_result(self) -> None:
        self._check_open()
        if self._query_id is None:
            raise InterfaceError("no statement has been executed on this cursor")

    # -- execution ----------------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] | Mapping[str, Any] | None = None,
        options: ExecutionOptions | Mapping[str, Any] | None = None,
    ) -> RemoteCursor:
        """Send one QUERY and wait for its RESULT, which brings the first rows.

        Typed failures — :class:`ServerBusyError` on admission rejection,
        :class:`QueryCancelledError` after a cancel, ... — raise here.
        """
        self._check_open()
        self._discard()
        self.description = None
        self.rowcount = -1
        self.approximate = None
        query_id = self.connection._next_query_id()
        self._query_id = query_id
        message: dict[str, Any] = {"type": "QUERY", "id": query_id, "sql": sql}
        if params is not None:
            message["params"] = list(params) if isinstance(params, Sequence) else dict(params)
        payload = _options_payload(options if options is not None else self.options)
        if payload:
            message["options"] = payload
        reply = self.connection._exchange(message)
        if reply.get("type") != "RESULT" or reply.get("id") != query_id:
            raise ProtocolError(f"expected RESULT for {query_id!r}, got {reply!r}")
        names = reply.get("description") or []
        self.description = (
            [(name, None, None, None, None, None, None) for name in names]
            if names
            else None
        )
        self.rowcount = reply.get("rowcount", -1)
        self.approximate = reply.get("approximate")
        self._take(reply)
        return self

    def cancel(self) -> None:
        """Cancel the in-flight statement (callable from another thread).

        Fire-and-forget: the thread blocked in :meth:`execute` sees the
        query fail with :class:`~repro.errors.QueryCancelledError` (unless
        the cancel raced completion, in which case the result stands).
        """
        self._notify("CANCEL")

    # -- fetching ------------------------------------------------------------------

    def _take(self, reply: dict[str, Any]) -> None:
        """Buffer the rows a RESULT or ROWS frame carries (column-major)."""
        self._buffer.extend(zip(*reply.get("columns", ())))
        self._exhausted = bool(reply.get("done"))

    def _pull(self, count: int) -> None:
        """Ask the server for up to ``count`` more rows of this result."""
        reply = self.connection._exchange(
            {"type": "FETCH", "id": self._query_id, "count": count}
        )
        if reply.get("type") != "ROWS" or reply.get("id") != self._query_id:
            raise ProtocolError(f"expected ROWS for {self._query_id!r}, got {reply!r}")
        self._take(reply)

    def fetchone(self) -> tuple[Any, ...] | None:
        self._check_result()
        if not self._buffer and not self._exhausted:
            self._pull(max(self.arraysize, DEFAULT_FETCH_ROWS))
        if not self._buffer:
            return None
        return self._buffer.popleft()

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        self._check_result()
        count = self.arraysize if size is None else size
        while len(self._buffer) < count and not self._exhausted:
            self._pull(count)
        buffer = self._buffer
        return [buffer.popleft() for _ in range(min(count, len(buffer)))]

    def fetchall(self) -> list[tuple[Any, ...]]:
        self._check_result()
        while not self._exhausted:
            self._pull(DEFAULT_FETCH_ROWS)
        rows = list(self._buffer)
        self._buffer.clear()
        return rows

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row


__all__ = ["DEFAULT_FETCH_ROWS", "RemoteConnection", "RemoteCursor", "connect"]

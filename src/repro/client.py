"""Thin socket client: the DB-API surface over the wire protocol.

``repro.client.connect(host, port)`` speaks the frame protocol of
:mod:`repro.server.protocol` to a :class:`~repro.server.VerdictServer` and
exposes the familiar surface — ``connection.cursor()``, ``execute``,
``executemany``, ``fetchone``/``fetchmany``/``fetchall``, iteration,
``cursor.cancel()``, ``connection.health_check()`` — so moving an
application from in-process to client/server is a one-line change of
``connect`` call.  :class:`RemoteCursor` and :class:`RemoteConnection` are
the transport half of :class:`~repro.api.connection.CursorCore` /
:class:`~repro.api.connection.ConnectionCore`: buffering, the fetch loop,
open/closed checks and the cancel contract are the in-process cursor's.

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
from collections.abc import Mapping, Sequence
from typing import Any

from repro.api.connection import ConnectionCore, CursorCore, Options, Params, Statement
from repro.api.options import ExecutionOptions
from repro.errors import InterfaceError, ProtocolError
from repro.faults import QueryDeadline
from repro.health import HealthReport
from repro.server import protocol
from repro.server.protocol import DEFAULT_FETCH_ROWS


def connect(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    options: Options = None,
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


def _options_payload(options: Options) -> dict[str, Any] | None:
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


class RemoteCursor(CursorCore[bool]):
    """A cursor over one remote result, fetching long ones incrementally.

    The RESULT frame pre-fills the buffer; FETCH frames bring the rest.
    """

    connection: RemoteConnection
    _query_id: str | None = None

    @property
    def approximate(self) -> bool | None:
        """True when the server answered from samples, False for an exact
        pass-through answer, None without a result."""
        return self._result

    def _run(
        self, sql: Statement, params: Params, options: Options, deadline: QueryDeadline
    ) -> tuple[bool, list[str], int]:
        """Send one QUERY and wait for its RESULT, which brings the first rows.

        Typed failures — :class:`ServerBusyError` on admission rejection,
        :class:`QueryCancelledError` after a cancel, ... — raise here.
        """
        query_id = self.connection._next_query_id()
        self._query_id = query_id
        message: dict[str, Any] = {"type": "QUERY", "id": query_id, "sql": sql}
        if params is not None:
            message["params"] = list(params) if isinstance(params, Sequence) else dict(params)
        payload = _options_payload(options)
        if payload:
            message["options"] = payload
        reply = self.connection._exchange(message)
        if reply.get("type") != "RESULT" or reply.get("id") != query_id:
            raise ProtocolError(f"expected RESULT for {query_id!r}, got {reply!r}")
        self._take(reply)
        names = reply.get("description") or []
        return bool(reply.get("approximate")), names, reply.get("rowcount", -1)

    def _fetch_more(self, count: int | None) -> None:
        """Ask the server for up to ``count`` more rows of this result."""
        reply = self.connection._exchange(
            {"type": "FETCH", "id": self._query_id, "count": count or DEFAULT_FETCH_ROWS}
        )
        if reply.get("type") != "ROWS" or reply.get("id") != self._query_id:
            raise ProtocolError(f"expected ROWS for {self._query_id!r}, got {reply!r}")
        self._take(reply)

    def _take(self, reply: dict[str, Any]) -> None:
        """Buffer the rows a RESULT or ROWS frame carries (column-major)."""
        self._buffer.extend(zip(*reply.get("columns", ())))
        self._more = not reply.get("done")

    def _forget(self) -> None:
        """Drop the current result, here and (what is left of it) server-side."""
        if self._more:
            self._notify("DISCARD")
        super()._forget()

    def cancel(self) -> None:
        """Cancel the statement in flight; also tells the server (CANCEL)."""
        super().cancel()
        self._notify("CANCEL")

    def _notify(self, kind: str) -> None:
        """A fire-and-forget frame about this cursor's statement."""
        if self._query_id is None or self.connection.closed:
            return
        try:
            self.connection._send({"type": kind, "id": self._query_id})
        except OSError:
            pass


class RemoteConnection(ConnectionCore[RemoteCursor]):
    """A DB-API-shaped connection to a remote middleware server."""

    _cursor_type = RemoteCursor

    def __init__(self, sock: socket.socket, options: Options = None) -> None:
        super().__init__()
        self._sock = sock
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

    def close(self) -> None:
        """Orderly goodbye (idempotent; tolerates a vanished server)."""
        if not self._mark_closed():
            return
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

    def health_check(self) -> HealthReport:
        """The server's :class:`HealthReport` (pool, server and stats sections)."""
        reply = self._exchange({"type": "HEALTH"})
        if reply.get("type") != "HEALTHY":
            raise ProtocolError(f"expected HEALTHY, got {reply.get('type')!r}")
        return HealthReport.from_sections(reply.get("report", {}))


__all__ = ["DEFAULT_FETCH_ROWS", "RemoteConnection", "RemoteCursor", "connect"]

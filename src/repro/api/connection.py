"""DB-API 2.0-shaped connections, cursors and prepared statements.

``repro.connect(...)`` returns a :class:`VerdictConnection` that applications
(ORMs, dashboards, pooled services) can drive exactly like any PEP 249
driver: ``connection.cursor()``, ``cursor.execute(sql, params)``,
``fetchone`` / ``fetchmany`` / ``fetchall``, ``description``, iteration, and
context-manager lifecycles — except that SELECT answers are *approximate*
with error estimates whenever the session's samples support it.

The cursor and the connection are written once, as :class:`CursorCore` and
:class:`ConnectionCore`: result state, the row buffer and fetch loop, the
open/closed checks, ``executemany`` and the cancel contract all live there.
A transport fills in two hooks — run one statement (``_run``) and buffer
more rows (``_fetch_more``).  :class:`Cursor` runs statements on the
connection's in-process session and buffers the answer's rows on the first
fetch; :class:`repro.client.RemoteCursor` sends them over the wire;
:mod:`repro.api.aio` wraps the in-process classes for asyncio.

Everything rides on one :class:`~repro.api.session.VerdictSession` per
connection.  Several connections may share one backend engine (pass the same
``database=`` / ``connector`` backend); the session layer keeps their caches
coherent and their sample builds serialized.
"""

from __future__ import annotations

import weakref
from collections import deque
from collections.abc import Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any, Generic, TypeAlias, TypeVar, cast

from repro.api.options import ExecutionOptions
from repro.api.session import PreparedTemplate, VerdictSession
from repro.connectors.base import Connector
from repro.core.answer import ApproximateResult
from repro.core.sample_planner import PlannerConfig
from repro.errors import ConfigurationError, InterfaceError, QueryCancelledError
from repro.faults import QueryDeadline
from repro.health import HealthReport
from repro.sqlengine.engine import Database

if TYPE_CHECKING:
    from repro.api.pool import ConnectionPool

#: DB-API module attributes (re-exported by :mod:`repro.api`).
apilevel = "2.0"
#: Threads may share the module and connections (each cursor serializes on
#: its session's locks for cache coherence; result state is per cursor).
threadsafety = 2
#: Positional parameters are spelled ``?``; ``:name`` style also accepted.
paramstyle = "qmark"

_R = TypeVar("_R")
_C = TypeVar("_C", bound="CursorCore[Any]")
_Self = TypeVar("_Self")

#: What a cursor accepts as a statement (the remote transport sends text).
Statement: TypeAlias = "str | PreparedTemplate | PreparedStatement"
#: Parameters for a statement's ``?`` / ``:name`` placeholders.
Params: TypeAlias = "Sequence[Any] | Mapping[str, Any] | None"
#: Options for a statement: remote cursors also take a mapping of overrides.
Options: TypeAlias = "ExecutionOptions | Mapping[str, Any] | None"


def connect(
    connector: Connector | None = None,
    database: Database | None = None,
    *,
    options: ExecutionOptions | None = None,
    pool_size: int | None = None,
    database_kwargs: Mapping[str, Any] | None = None,
    subsample_count: int = 100,
    planner_config: PlannerConfig | None = None,
    **pool_kwargs: Any,
) -> VerdictConnection | ConnectionPool:
    """Open a connection (or a connection pool) to the AQP middleware.

    The documented public entry point: every session knob is an explicit
    keyword here (no ad-hoc kwarg spread), engine construction goes through
    the single ``database_kwargs`` passthrough dict, and ``pool_size`` turns
    the call into a pool factory.  Per-query defaults (``confidence``,
    ``include_errors``, ``mode``, ...) live only in ``options``.

    Args:
        connector: driver to the underlying database; omitted means a fresh
            in-process engine.
        database: engine to attach to (share one engine between connections
            by passing the same instance).
        options: connection-wide default :class:`ExecutionOptions` (every
            cursor and ``execute`` call inherits them).
        pool_size: when given, return a
            :class:`~repro.api.pool.ConnectionPool` of up to this many
            connections over one shared engine instead of a single
            connection; extra keyword arguments (``min_size``,
            ``checkout_timeout``, ``max_idle_seconds``, ...) configure the
            pool.
        database_kwargs: constructor arguments for a freshly created
            :class:`~repro.sqlengine.engine.Database` (``seed``,
            ``optimize``, ``fault_injection``); mutually exclusive with
            ``connector`` and ``database``.
        subsample_count: number of subsamples carried by newly built samples.
        planner_config: sample planner configuration (``io_budget``, ...).
    """
    if database_kwargs is not None:
        if connector is not None or database is not None:
            raise ConfigurationError(
                "database_kwargs builds a fresh engine; it cannot be combined "
                "with an explicit connector or database"
            )
        database = Database(**dict(database_kwargs))
    session_kwargs = {"subsample_count": subsample_count, "planner_config": planner_config}
    if pool_size is not None:
        from repro.api.pool import ConnectionPool

        return ConnectionPool(
            connector=connector,
            database=database,
            max_size=pool_size,
            options=options,
            session_kwargs=session_kwargs,
            **pool_kwargs,
        )
    if pool_kwargs:
        unexpected = ", ".join(sorted(pool_kwargs))
        raise ConfigurationError(
            f"unexpected keyword arguments without pool_size: {unexpected}"
        )
    session = VerdictSession(
        connector=connector,
        database=database,
        subsample_count=subsample_count,
        planner_config=planner_config,
        default_options=options,
    )
    return VerdictConnection(session)


class CursorCore(Generic[_R]):
    """The one DB-API cursor: result state, row buffer, fetch loop, cancel.

    After ``execute``, :attr:`description` describes the visible result
    columns and :attr:`rowcount` is the number of result rows (-1 for
    non-SELECT statements).  A subclass supplies the transport:

    * ``_run(sql, params, options, deadline)`` runs one statement and
      returns ``(result, column names, rowcount)``; it may pre-fill
      ``_buffer`` and sets ``_more`` while rows remain to be fetched;
    * ``_fetch_more(count)`` appends up to ``count`` further rows to
      ``_buffer`` (``None``: one batch of the transport's choosing) and
      clears ``_more`` once nothing is left.

    One cancel contract for every transport: :meth:`cancel` stops the
    running statement at its next cooperative checkpoint, and from then on
    every fetch raises :class:`~repro.errors.InterfaceError` until the next
    ``execute`` re-arms the cursor.
    """

    arraysize = 1

    def __init__(self, connection: ConnectionCore[Any], options: Options = None) -> None:
        self.connection = connection
        self.options = options
        self.description: list[tuple[Any, ...]] | None = None
        self.rowcount = -1
        self._closed = False
        self._result: _R | None = None
        self._buffer: deque[tuple[Any, ...]] = deque()
        # True while the transport may still hold rows past the buffer.
        self._more = False
        # Token of the statement in flight (cancel() flips it from another
        # thread); None while idle.
        self._active_deadline: QueryDeadline | None = None
        # Set by cancel() and cleared by the next execute: fetches on a
        # cancelled cursor fail deterministically, even when the cancel
        # raced a statement that had already completed.
        self._cancelled = False

    # -- transport hooks ----------------------------------------------------------

    def _run(
        self, sql: Statement, params: Params, options: Options, deadline: QueryDeadline
    ) -> tuple[_R, list[str], int]:
        raise NotImplementedError

    def _fetch_more(self, count: int | None) -> None:
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._forget()
        self.description = None
        self.connection._cursors.discard(self)

    def __enter__(self: _Self) -> _Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def _forget(self) -> None:
        """Drop the rows of the current result that were not fetched."""
        self._buffer.clear()
        self._more = False

    def _reset(self) -> None:
        """Forget the previous result entirely.

        Done before every statement, so a failed one never leaves the prior
        statement's rows masquerading as its own (and an empty
        ``executemany`` batch leaves the cursor result-less).
        """
        self._forget()
        self._result = None
        self.description = None
        self.rowcount = -1

    # -- execution ----------------------------------------------------------------

    def execute(self: _C, sql: Statement, params: Params = None, options: Options = None) -> _C:
        """Execute one statement, binding ``params`` to its placeholders.

        ``options`` override the cursor's own (which default to the
        connection's).  The same template text with different parameter
        values re-uses every cache below, so repeated dashboard queries pay
        execution cost only.
        """
        return self.executemany(sql, (params,), options)

    def executemany(
        self: _C, sql: Statement, seq_of_params: Sequence[Params], options: Options = None
    ) -> _C:
        """Execute ``sql`` once per parameter set, in order.

        The cursor is left on the *last* result (like most drivers,
        ``executemany`` is meant for DML).  A :meth:`cancel` stops the
        running statement and none after it starts.
        """
        self._check_open()
        self._cancelled = False  # a new statement re-arms a cancelled cursor
        self._reset()
        effective = self.options if options is None else options
        for params in seq_of_params:
            self._reset()
            deadline = QueryDeadline()
            self._active_deadline = deadline
            try:
                if self._cancelled:  # cancel() landed between two statements
                    raise QueryCancelledError("query cancelled")
                result, names, self.rowcount = self._run(sql, params, effective, deadline)
            finally:
                self._active_deadline = None
            self._result = result
            if names:
                self.description = [(name, None, None, None, None, None, None) for name in names]
        return self

    def cancel(self) -> None:
        """Cancel the statement in flight (callable from another thread).

        The executing thread is blocked inside :meth:`execute`; the running
        statement stops at its next cooperative checkpoint with
        :class:`~repro.errors.QueryCancelledError`.  Whatever the timing —
        even when the cancel races the statement's completion — every fetch
        afterwards raises :class:`~repro.errors.InterfaceError` until the
        next ``execute``, so callers see one outcome instead of a
        position-dependent row stream.
        """
        self._cancelled = True
        deadline = self._active_deadline
        if deadline is not None:
            deadline.cancel()

    # -- fetching -----------------------------------------------------------------

    def _check_result(self) -> None:
        self._check_open()
        if self._cancelled:
            raise InterfaceError(
                "cursor was cancelled; execute a new statement before fetching"
            )
        if self._result is None:
            raise InterfaceError("no statement has been executed on this cursor")

    def fetchone(self) -> tuple[Any, ...] | None:
        self._check_result()
        if not self._buffer and self._more:
            self._fetch_more(None)
        return self._buffer.popleft() if self._buffer else None

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        self._check_result()
        count = self.arraysize if size is None else size
        while len(self._buffer) < count and self._more:
            self._fetch_more(count)
        buffer = self._buffer
        return [buffer.popleft() for _ in range(min(count, len(buffer)))]

    def fetchall(self) -> list[tuple[Any, ...]]:
        self._check_result()
        while self._more:
            self._fetch_more(None)
        rows = list(self._buffer)
        self._buffer.clear()
        return rows

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.fetchone, None)

    # -- no-op DB-API conformance ------------------------------------------------

    def setinputsizes(self, sizes: object) -> None:  # pragma: no cover
        pass

    def setoutputsize(self, size: object, column: object = None) -> None:  # pragma: no cover
        pass


class ConnectionCore(Generic[_C]):
    """What every connection shares: lifecycle, checks and cursor factory.

    A subclass names its cursor class in ``_cursor_type`` and implements
    ``close`` (calling :meth:`_mark_closed` first).
    """

    _cursor_type: type[_C]

    def __init__(self) -> None:
        self._closed = False
        # Weak tracking (like sqlite3): close() sweeps cursors that are
        # still alive, but an abandoned cursor — e.g. each one made by the
        # execute() shorthand — is collectable immediately, so a long-lived
        # connection does not accumulate result buffers.
        self._cursors: weakref.WeakSet[CursorCore[Any]] = weakref.WeakSet()

    @property
    def closed(self) -> bool:
        return self._closed

    def _mark_closed(self) -> bool:
        """Close every open cursor; False when already closed."""
        if self._closed:
            return False
        self._closed = True
        for cursor in list(self._cursors):
            cursor.close()
        return True

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self: _Self) -> _Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def cursor(self, options: Options = None) -> _C:
        """Open a new cursor (optionally with its own default options)."""
        self._check_open()
        cursor = self._cursor_type(self, options)
        self._cursors.add(cursor)
        return cursor

    def commit(self) -> None:
        """No-op: the middleware auto-commits every statement."""
        self._check_open()

    def rollback(self) -> None:
        """No-op: the middleware has no transactions to roll back."""
        self._check_open()

    def execute(self, sql: Statement, params: Params = None, options: Options = None) -> _C:
        """Shorthand: open a cursor, execute, return the cursor."""
        cursor = self.cursor()
        cursor.execute(sql, params, options=options)
        return cursor


class Cursor(CursorCore[ApproximateResult]):
    """A cursor over the connection's in-process session.

    :attr:`last_result` exposes the full
    :class:`~repro.core.answer.ApproximateResult` — error estimates,
    confidence intervals, the rewritten SQL — for applications that want
    more than plain rows.
    """

    connection: VerdictConnection

    @property
    def last_result(self) -> ApproximateResult | None:
        return self._result

    def _run(
        self, sql: Statement, params: Params, options: Options, deadline: QueryDeadline
    ) -> tuple[ApproximateResult, list[str], int]:
        if isinstance(sql, PreparedStatement):
            sql = sql.template
        result = self.connection.session.execute(
            sql, params, cast("ExecutionOptions | None", options), deadline=deadline
        )
        names = result.column_names()
        # Rows are materialized on the first fetch: the row count is known
        # from the columnar result, and an application that only reads
        # `last_result` (or nothing) never pays the tuple conversion.
        self._more = bool(names)
        return result, names, result.num_rows if names else -1

    def _fetch_more(self, count: int | None) -> None:
        assert self._result is not None  # fetches check for a result first
        self._buffer.extend(self._result.fetchall())
        self._more = False


class VerdictConnection(ConnectionCore[Cursor]):
    """A DB-API-shaped connection over one middleware session."""

    _cursor_type = Cursor

    def __init__(self, session: VerdictSession) -> None:
        super().__init__()
        self.session = session

    def close(self, release_backend: bool = True) -> None:
        """Close every open cursor and release backend resources (idempotent).

        ``release_backend=False`` (used by the connection pool when recycling
        a member) closes the connection and its session but leaves the shared
        backend open for the pool's other connections.
        """
        if self._mark_closed():
            self.session.close(release_backend=release_backend)

    def prepare(self, sql: str) -> PreparedStatement:
        """Prepare a SQL template once for repeated parameterized execution."""
        self._check_open()
        return PreparedStatement(self.session, sql)

    def health_check(self) -> HealthReport:
        """Backend liveness report (status, backend name, counters).

        Cheap — no query is issued; safe to poll from a monitoring thread.
        Returns the same typed :class:`~repro.health.HealthReport` as
        ``Database.health()``.
        """
        self._check_open()
        return self.session.connector.health()


class PreparedStatement:
    """A SQL template prepared once and executed many times.

    Wraps a :class:`~repro.api.session.PreparedTemplate` (the parsed,
    canonicalized, analyzed form) so repeated executions skip even the
    session's template-cache lookup; every run binds fresh parameter values
    below the statement/plan/analysis/rewrite caches.
    """

    def __init__(self, session: VerdictSession, sql: str) -> None:
        self.session = session
        self.template = session.prepare(sql)

    @property
    def sql(self) -> str:
        return self.template.text

    @property
    def param_count(self) -> int:
        return self.template.param_count

    def execute(
        self, params: Params = None, options: ExecutionOptions | None = None
    ) -> ApproximateResult:
        """Run the prepared statement with the given parameter values."""
        return self.session.execute(self.template, params, options)

    def executemany(
        self, seq_of_params: Sequence[Params], options: ExecutionOptions | None = None
    ) -> list[ApproximateResult]:
        """Run once per parameter set, returning every result."""
        return [self.execute(params, options) for params in seq_of_params]


__all__ = [
    "ConnectionCore",
    "Cursor",
    "CursorCore",
    "PreparedStatement",
    "VerdictConnection",
    "apilevel",
    "connect",
    "paramstyle",
    "threadsafety",
]

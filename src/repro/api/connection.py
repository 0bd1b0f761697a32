"""DB-API 2.0-shaped connections, cursors and prepared statements.

``repro.connect(...)`` returns a :class:`VerdictConnection` that applications
(ORMs, dashboards, pooled services) can drive exactly like any PEP 249
driver: ``connection.cursor()``, ``cursor.execute(sql, params)``,
``fetchone`` / ``fetchmany`` / ``fetchall``, ``description``, iteration, and
context-manager lifecycles — except that SELECT answers are *approximate*
with error estimates whenever the session's samples support it.

Everything rides on one :class:`~repro.api.session.VerdictSession` per
connection.  Several connections may share one backend engine (pass the same
``database=`` / ``connector`` backend); the session layer keeps their caches
coherent and their sample builds serialized.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator, Mapping, Sequence

from repro.api.options import ExecutionOptions
from repro.api.session import PreparedTemplate, VerdictSession
from repro.connectors.base import Connector
from repro.core.answer import ApproximateResult
from repro.errors import ConfigurationError, InterfaceError
from repro.faults import QueryDeadline
from repro.health import HealthReport
from repro.sqlengine.engine import Database

#: DB-API module attributes (re-exported by :mod:`repro.api`).
apilevel = "2.0"
#: Threads may share the module and connections (each cursor serializes on
#: its session's locks for cache coherence; result state is per cursor).
threadsafety = 2
#: Positional parameters are spelled ``?``; ``:name`` style also accepted.
paramstyle = "qmark"


def connect(
    connector: Connector | None = None,
    database: Database | None = None,
    *,
    options: ExecutionOptions | None = None,
    pool_size: int | None = None,
    database_kwargs: Mapping | None = None,
    subsample_count: int = 100,
    io_budget: float = 0.02,
    confidence: float = 0.95,
    planner_config=None,
    include_errors: bool = True,
    **pool_kwargs,
):
    """Open a connection (or a connection pool) to the AQP middleware.

    The documented public entry point: every session knob is an explicit
    keyword here (no ad-hoc kwarg spread), engine construction goes through
    the single ``database_kwargs`` passthrough dict, and ``pool_size`` turns
    the call into a pool factory.

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
            ``chunk_rows``, ``optimize``, ...); mutually exclusive with
            ``connector`` and ``database``.
        subsample_count: number of subsamples carried by newly built samples.
        io_budget: default fraction of a large table the planner may touch.
        confidence: confidence level of reported error estimates.
        planner_config: full planner configuration (overrides ``io_budget``).
        include_errors: whether rewritten queries also compute error columns.
    """
    if database_kwargs is not None:
        if connector is not None or database is not None:
            raise ConfigurationError(
                "database_kwargs builds a fresh engine; it cannot be combined "
                "with an explicit connector or database"
            )
        database = Database(**dict(database_kwargs))
    session_kwargs = {
        "subsample_count": subsample_count,
        "io_budget": io_budget,
        "confidence": confidence,
        "planner_config": planner_config,
        "include_errors": include_errors,
    }
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
        default_options=options,
        **session_kwargs,
    )
    return VerdictConnection(session)


class VerdictConnection:
    """A DB-API-shaped connection over one middleware session."""

    def __init__(self, session: VerdictSession) -> None:
        self.session = session
        self._closed = False
        # Weak tracking (like sqlite3): close() sweeps cursors that are
        # still alive, but an abandoned cursor — e.g. each one made by the
        # connection.execute() shorthand — is collectable immediately, so a
        # long-lived connection does not accumulate result buffers.
        self._cursors: weakref.WeakSet[Cursor] = weakref.WeakSet()

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, release_backend: bool = True) -> None:
        """Close every open cursor and release backend resources (idempotent).

        ``release_backend=False`` (used by the connection pool when recycling
        a member) closes the connection and its session but leaves the shared
        backend open for the pool's other connections.
        """
        if self._closed:
            return
        self._closed = True
        for cursor in list(self._cursors):
            cursor.close()
        self.session.close(release_backend=release_backend)

    def __enter__(self) -> VerdictConnection:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # -- DB-API surface --------------------------------------------------------

    def cursor(self, options: ExecutionOptions | None = None) -> Cursor:
        """Open a new cursor (optionally with its own default options)."""
        self._check_open()
        cursor = Cursor(self, options=options)
        self._cursors.add(cursor)
        return cursor

    def commit(self) -> None:
        """No-op: the middleware auto-commits every statement."""
        self._check_open()

    def rollback(self) -> None:
        """No-op: the middleware has no transactions to roll back."""
        self._check_open()

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

    # -- convenience ------------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> Cursor:
        """Shorthand: open a cursor, execute, return the cursor."""
        cursor = self.cursor()
        cursor.execute(sql, params, options=options)
        return cursor


class Cursor:
    """A DB-API-shaped cursor bound to one connection.

    After ``execute``, :attr:`description` describes the visible result
    columns, :attr:`rowcount` is the number of buffered rows (-1 for
    non-SELECT statements) and :attr:`last_result` exposes the full
    :class:`~repro.core.answer.ApproximateResult` — error estimates,
    confidence intervals, the rewritten SQL — for applications that want
    more than plain rows.
    """

    arraysize = 1

    def __init__(
        self, connection: VerdictConnection, options: ExecutionOptions | None = None
    ) -> None:
        self.connection = connection
        self.options = options
        self._closed = False
        # Deadline token of the in-flight execute (read by cancel() from
        # another thread); None while idle.
        self._active_deadline: QueryDeadline | None = None
        # Set by cancel() and cleared by the next execute: fetches on a
        # cancelled cursor must fail deterministically, even when the cancel
        # raced an already-completed execute (see cancel()).
        self._cancelled = False
        self.last_result: ApproximateResult | None = None
        self.description: list[tuple] | None = None
        self.rowcount = -1
        # None = result installed but rows not yet materialized (lazy).
        self._rows: list[tuple] | None = []
        self._position = 0

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._rows = []
        self.description = None
        self.connection._cursors.discard(self)

    def __enter__(self) -> Cursor:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    # -- execution -------------------------------------------------------------

    @staticmethod
    def _as_template(sql) -> str | PreparedTemplate:
        """Accept SQL text, a PreparedTemplate, or a whole PreparedStatement."""
        if isinstance(sql, PreparedStatement):
            return sql.template
        return sql

    def execute(
        self,
        sql: str | PreparedTemplate | PreparedStatement,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> Cursor:
        """Execute one statement, binding ``params`` to its placeholders.

        The same template text with different parameter values re-uses every
        cache below (analysis, sample plan, rewrite, engine statement/plan),
        so dashboard-style repeated queries pay execution cost only.
        """
        self._check_open()
        self._reset_result()
        # A new statement re-arms a previously cancelled cursor.
        self._cancelled = False
        # Always build a cancellation token so cancel() works even without a
        # configured timeout; the session arms its expiry from the effective
        # options' timeout_seconds.
        deadline = QueryDeadline()
        self._active_deadline = deadline
        try:
            result = self.connection.session.execute(
                self._as_template(sql), params, options or self.options, deadline=deadline
            )
        finally:
            self._active_deadline = None
        self._install_result(result)
        return self

    def cancel(self) -> None:
        """Request cancellation of the statement currently executing.

        Safe to call from another thread (that is the point: the executing
        thread is blocked inside :meth:`execute`).  The running query stops
        at its next cooperative checkpoint with
        :class:`~repro.errors.QueryCancelledError`.

        The cursor is also marked cancelled regardless of timing: a cancel
        that *races* the query's completion (the deadline token was already
        retired, rows may be half-fetched) used to leave the cursor silently
        consumable from an arbitrary position.  Now every fetch after a
        cancel raises :class:`~repro.errors.InterfaceError` until the next
        ``execute`` re-arms the cursor, so callers see one deterministic
        outcome instead of a position-dependent row stream.
        """
        self._cancelled = True
        deadline = self._active_deadline
        if deadline is not None:
            deadline.cancel()

    def executemany(
        self,
        sql: str | PreparedTemplate | PreparedStatement,
        seq_of_params: Sequence[Sequence | Mapping],
        options: ExecutionOptions | None = None,
    ) -> Cursor:
        """Execute one template once per parameter set.

        The template is prepared a single time; each execution binds fresh
        values.  For SELECTs the cursor is left on the *last* result (like
        most drivers, ``executemany`` is intended for DML).
        """
        self._check_open()
        self._reset_result()
        self._cancelled = False
        session = self.connection.session
        sql = self._as_template(sql)
        template = sql if isinstance(sql, PreparedTemplate) else session.prepare(sql)
        results = session.executemany(template, seq_of_params, options or self.options)
        if results:
            self._install_result(results[-1])
        return self

    def _reset_result(self) -> None:
        """Forget the previous statement's result.

        Called before every execution so a failed statement never leaves the
        prior statement's rows masquerading as its own (and an empty
        ``executemany`` batch leaves the cursor result-less).
        """
        self.last_result = None
        self.description = None
        self._rows = []
        self.rowcount = -1
        self._position = 0

    def _install_result(self, result: ApproximateResult) -> None:
        self.last_result = result
        names = result.column_names()
        if names:
            self.description = [
                (name, None, None, None, None, None, None) for name in names
            ]
            # Rows are materialized lazily on first fetch: the row count is
            # known from the columnar result, and an application that only
            # reads `last_result` (or nothing) never pays the tuple
            # conversion.
            self._rows = None
            self.rowcount = result.num_rows
        else:
            self.description = None
            self._rows = []
            self.rowcount = -1
        self._position = 0

    # -- fetching ---------------------------------------------------------------

    def _check_result(self) -> None:
        self._check_open()
        if self._cancelled:
            raise InterfaceError(
                "cursor was cancelled; execute a new statement before fetching"
            )
        if self.last_result is None:
            raise InterfaceError("no statement has been executed on this cursor")

    def _materialized(self) -> list[tuple]:
        if self._rows is None:
            self._rows = self.last_result.fetchall()
        return self._rows

    def fetchone(self) -> tuple | None:
        self._check_result()
        rows = self._materialized()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple]:
        self._check_result()
        count = self.arraysize if size is None else size
        rows = self._materialized()[self._position : self._position + count]
        self._position += len(rows)
        return rows

    def fetchall(self) -> list[tuple]:
        self._check_result()
        rows = self._materialized()[self._position :]
        self._position = len(self._materialized())
        return rows

    def __iter__(self) -> Iterator[tuple]:
        self._check_result()
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- no-op DB-API conformance ------------------------------------------------

    def setinputsizes(self, sizes) -> None:  # pragma: no cover - PEP 249 stub
        pass

    def setoutputsize(self, size, column=None) -> None:  # pragma: no cover - PEP 249 stub
        pass


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
        self,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> ApproximateResult:
        """Run the prepared statement with the given parameter values."""
        return self.session.execute(self.template, params, options)

    def executemany(
        self,
        seq_of_params: Sequence[Sequence | Mapping],
        options: ExecutionOptions | None = None,
    ) -> list[ApproximateResult]:
        """Run once per parameter set, returning every result."""
        return [self.execute(params, options) for params in seq_of_params]


__all__ = [
    "Cursor",
    "PreparedStatement",
    "VerdictConnection",
    "apilevel",
    "connect",
    "paramstyle",
    "threadsafety",
]

"""A connection pool handing out sessions over one shared engine.

``repro.connect(pool_size=N)`` (or :class:`ConnectionPool` directly) builds a
bounded pool of :class:`~repro.api.connection.VerdictConnection`\\ s that all
attach to **one** backend engine: the pool members share the engine's
catalog, samples and caches, so a service
can serve many concurrent requests without paying a session bring-up per
request — the deployment shape the paper's "middleware in front of the
warehouse" story implies.

Semantics:

* **min/max sizing** — ``min_size`` connections are created eagerly; up to
  ``max_size`` exist at once.  A checkout beyond ``max_size`` waits up to
  ``checkout_timeout`` seconds, then raises
  :class:`~repro.errors.PoolTimeoutError` (a retryable load signal).
* **health check on checkout** — a member whose session was closed behind
  the pool's back, or whose backend no longer answers a health probe, is
  recycled instead of handed out (``stats["health_failures"]``).
* **idle recycling** — members idle longer than ``max_idle_seconds`` (or
  older than ``max_lifetime_seconds``) are disposed at checkout and on
  :meth:`prune`, never dropping below ``min_size`` during pruning.
* **returning** — ``pooled.close()`` (or leaving the ``pool.connection()``
  context) returns the member; it never tears down the shared engine.
  Closing the pool itself disposes every member and releases the backend
  once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from collections.abc import Iterator, Mapping, Sequence

from repro.api.connection import VerdictConnection
from repro.api.options import ExecutionOptions
from repro.api.session import VerdictSession
from repro.connectors.base import Connector
from repro.errors import ConfigurationError, InterfaceError, PoolTimeoutError
from repro.health import HealthReport
from repro.sqlengine.engine import Database


@dataclass
class _PoolEntry:
    """One pool member plus the bookkeeping its recycling policy needs."""

    connection: VerdictConnection
    created_at: float
    idle_since: float = field(default=0.0)


class ConnectionPool:
    """A bounded pool of middleware connections over one shared engine.

    Args:
        connector: backend driver shared by every member session; omitted
            means the pool owns a fresh in-process engine (or the given
            ``database``).
        database: engine shared by every member (each gets its own builtin
            connector over it).
        min_size: connections created eagerly and kept through pruning.
        max_size: hard cap on simultaneously existing connections.
        checkout_timeout: default seconds a checkout waits for a free
            member before raising :class:`~repro.errors.PoolTimeoutError`.
        max_idle_seconds: members idle longer are recycled (None = never).
        max_lifetime_seconds: members older are recycled at checkout
            (None = never).
        health_check_on_checkout: probe each member's backend health before
            handing it out; failing members are replaced transparently.
        options: default :class:`ExecutionOptions` for every member.
        session_kwargs: forwarded to each member's
            :class:`~repro.api.session.VerdictSession` (``subsample_count``,
            ``planner_config``).
    """

    def __init__(
        self,
        connector: Connector | None = None,
        database: Database | None = None,
        *,
        min_size: int = 1,
        max_size: int = 4,
        checkout_timeout: float = 5.0,
        max_idle_seconds: float | None = None,
        max_lifetime_seconds: float | None = None,
        health_check_on_checkout: bool = True,
        options: ExecutionOptions | None = None,
        session_kwargs: Mapping | None = None,
    ) -> None:
        if max_size < 1:
            raise ConfigurationError("max_size must be at least 1")
        if not 0 <= min_size <= max_size:
            raise ConfigurationError("min_size must satisfy 0 <= min_size <= max_size")
        if checkout_timeout <= 0:
            raise ConfigurationError("checkout_timeout must be positive")
        self.min_size = min_size
        self.max_size = max_size
        self.checkout_timeout = checkout_timeout
        self.max_idle_seconds = max_idle_seconds
        self.max_lifetime_seconds = max_lifetime_seconds
        self.health_check_on_checkout = health_check_on_checkout
        self.options = options
        self._session_kwargs = dict(session_kwargs or {})
        self._connector = connector
        # The engine every member shares.  With an explicit connector the
        # backend is whatever that connector drives; otherwise the pool pins
        # one Database (possibly caller-supplied) and each member session
        # gets its own builtin connector over it.
        self._database = database if connector is None else None
        if connector is None and database is None:
            self._database = Database()
        self._condition = threading.Condition()
        self._idle: deque[_PoolEntry] = deque()
        self._size = 0  # created and not yet disposed (idle + in use)
        self._in_use = 0
        self._closed = False
        self._counters = {
            "created": 0,
            "disposed": 0,
            "checkouts": 0,
            "checkins": 0,
            "checkout_timeouts": 0,
            "recycled": 0,
            "health_failures": 0,
        }
        for _ in range(min_size):
            entry = self._create_entry()
            with self._condition:
                self._size += 1
                entry.idle_since = time.monotonic()
                self._idle.append(entry)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Dispose every member and release the shared backend (idempotent).

        Members currently checked out are disposed when they are returned;
        the backend is closed once, here.
        """
        with self._condition:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._condition.notify_all()
        for entry in idle:
            self._dispose(entry)
            with self._condition:
                self._size -= 1
        # Release the shared backend exactly once (the engine object
        # survives and stays usable).
        if self._connector is not None:
            self._connector.close()
        elif self._database is not None:
            self._database.close()

    def __enter__(self) -> ConnectionPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection pool is closed")

    # -- checkout / checkin -------------------------------------------------------

    def checkout(self, timeout: float | None = None) -> PooledConnection:
        """Borrow a healthy connection, waiting up to ``timeout`` seconds.

        Raises :class:`~repro.errors.PoolTimeoutError` when the pool stays
        exhausted past the deadline.
        """
        effective = self.checkout_timeout if timeout is None else timeout
        deadline = time.monotonic() + effective
        create = False
        with self._condition:
            while True:
                self._check_open()
                entry = self._claim_idle_locked()
                if entry is not None:
                    self._in_use += 1
                    self._counters["checkouts"] += 1
                    return PooledConnection(self, entry)
                if self._size < self.max_size:
                    self._size += 1  # reserve the slot before releasing the lock
                    create = True
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._counters["checkout_timeouts"] += 1
                    raise PoolTimeoutError(
                        f"no pooled connection became available within "
                        f"{effective:.3f}s (size={self._size}, "
                        f"max_size={self.max_size})"
                    )
                self._condition.wait(remaining)
        if create:
            try:
                entry = self._create_entry()
            except BaseException:
                with self._condition:
                    self._size -= 1
                    self._condition.notify()
                raise
            with self._condition:
                self._in_use += 1
                self._counters["checkouts"] += 1
            return PooledConnection(self, entry)

    def _claim_idle_locked(self) -> _PoolEntry | None:
        """Pop the first idle entry that survives recycling + health checks."""
        now = time.monotonic()
        while self._idle:
            entry = self._idle.popleft()
            if self._should_recycle(entry, now):
                self._counters["recycled"] += 1
                self._retire_locked(entry)
                continue
            if not self._is_healthy(entry):
                self._counters["health_failures"] += 1
                self._retire_locked(entry)
                continue
            return entry
        return None

    def _retire_locked(self, entry: _PoolEntry) -> None:
        self._dispose(entry)
        self._size -= 1
        self._condition.notify()

    def _should_recycle(self, entry: _PoolEntry, now: float) -> bool:
        if (
            self.max_idle_seconds is not None
            and now - entry.idle_since > self.max_idle_seconds
        ):
            return True
        return (
            self.max_lifetime_seconds is not None
            and now - entry.created_at > self.max_lifetime_seconds
        )

    def _is_healthy(self, entry: _PoolEntry) -> bool:
        connection = entry.connection
        if connection.closed or connection.session.closed:
            return False
        if not self.health_check_on_checkout:
            return True
        try:
            connection.health_check()
        # repro: ignore[REP004] -- liveness probe: any failure (typed or not,
        # e.g. a backend driver error) means the member is unfit and must be
        # recycled, never surfaced to the checkout caller.
        except Exception:
            return False
        return True

    def checkin(self, entry: _PoolEntry) -> None:
        """Return one entry (called by :meth:`PooledConnection.close`)."""
        with self._condition:
            self._in_use -= 1
            self._counters["checkins"] += 1
            if self._closed or entry.connection.closed:
                self._dispose(entry)
                self._size -= 1
            else:
                entry.idle_since = time.monotonic()
                self._idle.append(entry)
            self._condition.notify()

    @contextmanager
    def connection(self, timeout: float | None = None) -> Iterator[PooledConnection]:
        """``with pool.connection() as conn: ...`` — checkout, then return."""
        pooled = self.checkout(timeout)
        try:
            yield pooled
        finally:
            pooled.close()

    def prune(self) -> int:
        """Dispose idle members past their recycle policy; returns the count.

        Never drops the pool below ``min_size``.  Meant for periodic calls
        from a maintenance thread; checkout performs the same recycling
        opportunistically.
        """
        now = time.monotonic()
        pruned = 0
        with self._condition:
            survivors: deque[_PoolEntry] = deque()
            while self._idle:
                entry = self._idle.popleft()
                if self._size - pruned > self.min_size and self._should_recycle(
                    entry, now
                ):
                    self._counters["recycled"] += 1
                    self._dispose(entry)
                    pruned += 1
                else:
                    survivors.append(entry)
            self._idle = survivors
            self._size -= pruned
            if pruned:
                self._condition.notify_all()
        return pruned

    # -- construction / disposal --------------------------------------------------

    def _create_entry(self) -> _PoolEntry:
        session = VerdictSession(
            connector=self._connector,
            database=self._database,
            default_options=self.options,
            **self._session_kwargs,
        )
        with self._condition:
            self._counters["created"] += 1
        return _PoolEntry(
            connection=VerdictConnection(session), created_at=time.monotonic()
        )

    def _dispose(self, entry: _PoolEntry) -> None:
        """Really close one member — without tearing down the shared engine."""
        self._counters["disposed"] += 1
        try:
            entry.connection.close(release_backend=False)
        # repro: ignore[REP004] -- disposal runs on checkin/teardown paths
        # where raising would leak the slot; a member that fails to close is
        # already being discarded.
        except Exception:  # pragma: no cover - disposal must never propagate
            pass

    # -- observability -------------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Sizing gauges and lifetime counters (one atomic snapshot)."""
        with self._condition:
            return {
                "min_size": self.min_size,
                "max_size": self.max_size,
                "size": self._size,
                "idle": len(self._idle),
                "in_use": self._in_use,
                **dict(self._counters),
            }

    def health(self) -> HealthReport:
        """Backend health with this pool's section attached."""
        if self._connector is not None:
            base = self._connector.health()
        elif self._database is not None:
            base = self._database.health()
        else:  # pragma: no cover - one of the two always exists
            base = HealthReport()
        return replace(base, pool=self.stats)

    # -- conveniences ---------------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> list[tuple]:
        """One-shot: borrow a member, execute, fetch everything, return it."""
        with self.connection() as pooled:
            cursor = pooled.execute(sql, params, options=options)
            return cursor.fetchall()


class PooledConnection:
    """A borrowed pool member.

    Behaves like the wrapped :class:`VerdictConnection` (cursors, execute,
    prepare, health_check, ``session``), except that :meth:`close` returns
    the member to the pool instead of closing it.  After return, every use
    raises :class:`~repro.errors.InterfaceError` — the underlying connection
    may already be serving another borrower.
    """

    def __init__(self, pool: ConnectionPool, entry: _PoolEntry) -> None:
        self._pool = pool
        self._entry = entry
        self._returned = False

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._returned

    def close(self) -> None:
        """Return the member to the pool (idempotent)."""
        if self._returned:
            return
        self._returned = True
        self._pool.checkin(self._entry)

    def detach(self) -> VerdictConnection:
        """Take the connection out of the pool permanently.

        The pool forgets the member (its slot frees up) and the caller owns
        the returned connection's lifecycle from here on.
        """
        self._check_borrowed()
        self._returned = True
        with self._pool._condition:
            self._pool._in_use -= 1
            self._pool._size -= 1
            self._pool._condition.notify()
        return self._entry.connection

    def __enter__(self) -> PooledConnection:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_borrowed(self) -> None:
        if self._returned:
            raise InterfaceError("pooled connection was already returned to the pool")

    # -- delegation -----------------------------------------------------------------

    @property
    def session(self) -> VerdictSession:
        self._check_borrowed()
        return self._entry.connection.session

    def __getattr__(self, name: str):
        # Everything else (cursor, execute, prepare, health_check, commit,
        # rollback, ...) delegates to the wrapped connection while borrowed.
        if name.startswith("_"):
            raise AttributeError(name)
        self._check_borrowed()
        return getattr(self._entry.connection, name)


__all__ = ["ConnectionPool", "PooledConnection"]

"""Asyncio front-end: the same session, awaitable.

``await repro.connect_async(...)`` returns an :class:`AsyncConnection`
wrapping one ordinary :class:`~repro.api.connection.VerdictConnection`.
The async classes are thin off-loop adapters: every cursor behaviour —
buffering, ``executemany``, the cancel contract, open/closed checks — is
the sync cursor's (:class:`~repro.api.connection.CursorCore`).  Every
blocking operation — statement execution, DML (which takes the engine's
writer lock), row materialization, session close — runs on a small private
thread executor via ``loop.run_in_executor``, so an asyncio service can
interleave many in-flight approximate queries with its other I/O without
ever blocking the event loop on the writer lock or a long scan.

The cursor is an async iterator::

    conn = await repro.connect_async()
    cur = conn.cursor()
    await cur.execute("SELECT city, AVG(x) FROM t GROUP BY city")
    async for row in cur:
        ...

``AsyncCursor.cancel()`` stays *synchronous* by design: the whole point of
cancellation is that the executing coroutine is parked awaiting the
executor, so the cancel must not need the loop's cooperation — it flips the
cross-thread cancellation token directly, exactly like the sync cursor.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Mapping, Sequence

from repro.api.connection import Cursor, VerdictConnection, connect
from repro.api.options import ExecutionOptions
from repro.api.session import VerdictSession
from repro.errors import InterfaceError
from repro.health import HealthReport

#: Threads of each connection's private executor.
_EXECUTOR_WORKERS = 4


async def connect_async(
    connector=None,
    database=None,
    *,
    options: ExecutionOptions | None = None,
    **connect_kwargs,
) -> AsyncConnection:
    """Open an :class:`AsyncConnection` (the awaitable ``repro.connect``).

    Accepts the same arguments as :func:`repro.connect` except the pool
    knobs (compose a pool yourself, or run one ``AsyncConnection`` per task
    over a shared ``database``).  Construction itself — which may build an
    engine — runs off-loop too.
    """
    if "pool_size" in connect_kwargs:
        raise InterfaceError(
            "connect_async does not pool; share a database= between "
            "AsyncConnections or use repro.connect(pool_size=...) from threads"
        )
    loop = asyncio.get_running_loop()
    executor = ThreadPoolExecutor(
        max_workers=_EXECUTOR_WORKERS, thread_name_prefix="repro-aio"
    )
    try:
        connection = await loop.run_in_executor(
            executor,
            lambda: connect(connector, database, options=options, **connect_kwargs),
        )
    except BaseException:
        executor.shutdown(wait=False)
        raise
    return AsyncConnection(connection, executor)


class AsyncConnection:
    """An asyncio wrapper over one synchronous middleware connection.

    Not thread-safe (like any asyncio object) but safe to share between
    tasks on one loop: each blocking call is a single executor job and the
    underlying session serializes on its own locks.
    """

    def __init__(
        self, connection: VerdictConnection, executor: ThreadPoolExecutor
    ) -> None:
        self._connection = connection
        self._executor = executor
        self._closed = False

    async def _run(self, fn, *args):
        """One blocking call on the executor; the connection must be open."""
        self._check_open()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def session(self) -> VerdictSession:
        return self._connection.session

    async def close(self) -> None:
        """Close the wrapped connection off-loop, then retire the executor."""
        if self._closed:
            return
        try:
            await self._run(self._connection.close)
        finally:
            self._closed = True
            self._executor.shutdown(wait=False)

    async def __aenter__(self) -> AsyncConnection:
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("async connection is closed")

    # -- DB-API-shaped surface ---------------------------------------------------

    def cursor(self, options: ExecutionOptions | None = None) -> AsyncCursor:
        """Open an async cursor (synchronous: no I/O happens until execute)."""
        self._check_open()
        return AsyncCursor(self, self._connection.cursor(options))

    async def execute(
        self,
        sql: str,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> AsyncCursor:
        """Shorthand: open a cursor, await its execute, return the cursor."""
        cursor = self.cursor()
        await cursor.execute(sql, params, options=options)
        return cursor

    async def prepare(self, sql: str):
        """Prepare a statement off-loop (parsing + analysis are CPU work)."""
        return await self._run(self._connection.prepare, sql)

    async def health_check(self) -> HealthReport:
        return await self._run(self._connection.health_check)

    async def commit(self) -> None:
        self._check_open()

    async def rollback(self) -> None:
        self._check_open()


class AsyncCursor:
    """Awaitable cursor; also an async iterator over result rows.

    Wraps one sync :class:`~repro.api.connection.Cursor`; every fetch runs
    on the connection's executor (the first fetch materializes rows from the
    columnar result, which is real work for large answers).
    """

    def __init__(self, connection: AsyncConnection, cursor: Cursor) -> None:
        self._connection = connection
        self._cursor = cursor

    # -- passthrough state --------------------------------------------------------

    @property
    def description(self):
        return self._cursor.description

    @property
    def rowcount(self) -> int:
        return self._cursor.rowcount

    @property
    def last_result(self):
        return self._cursor.last_result

    @property
    def arraysize(self) -> int:
        return self._cursor.arraysize

    @arraysize.setter
    def arraysize(self, value: int) -> None:
        self._cursor.arraysize = value

    @property
    def closed(self) -> bool:
        return self._cursor.closed

    # -- execution ----------------------------------------------------------------

    async def execute(
        self,
        sql,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> AsyncCursor:
        """Execute one statement off-loop.

        DML acquires the engine's writer lock on the executor thread, so a
        slow write never stalls the event loop — other tasks keep running
        and may cancel this statement meanwhile.
        """
        await self._connection._run(self._cursor.execute, sql, params, options)
        return self

    async def executemany(
        self,
        sql,
        seq_of_params: Sequence[Sequence | Mapping],
        options: ExecutionOptions | None = None,
    ) -> AsyncCursor:
        await self._connection._run(self._cursor.executemany, sql, seq_of_params, options)
        return self

    def cancel(self) -> None:
        """Cancel the in-flight execute (synchronous and loop-independent).

        Callable from any task or thread while another coroutine awaits
        :meth:`execute` or :meth:`executemany`; the sync cursor's cancel
        contract applies unchanged.
        """
        self._cursor.cancel()

    # -- fetching -----------------------------------------------------------------

    async def fetchone(self):
        return await self._connection._run(self._cursor.fetchone)

    async def fetchmany(self, size: int | None = None):
        return await self._connection._run(self._cursor.fetchmany, size)

    async def fetchall(self):
        return await self._connection._run(self._cursor.fetchall)

    def __aiter__(self) -> AsyncCursor:
        return self

    async def __anext__(self):
        row = await self.fetchone()
        if row is None:
            raise StopAsyncIteration
        return row

    # -- lifecycle ----------------------------------------------------------------

    async def close(self) -> None:
        """Close the wrapped cursor off-loop (it may drop large result buffers).

        A cursor already closed (directly, or because the connection closed
        and retired the executor with it) is a no-op, so this never touches
        a shut-down executor.
        """
        if self._cursor.closed:
            return
        await self._connection._run(self._cursor.close)

    async def __aenter__(self) -> AsyncCursor:
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = ["AsyncConnection", "AsyncCursor", "connect_async"]

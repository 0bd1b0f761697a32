"""One DB-API script, three cursors: in-process, asyncio and remote.

The in-process, asyncio and socket cursors share one cursor core
(:class:`repro.api.connection.CursorCore`); only the transport differs.  The
same script runs against each of them — description, rowcount, the fetch
family, iteration, ``executemany``, the cancel contract and the closed-state
errors — so a difference between transports is a test failure, not a
footnote.  The asyncio cursor is driven from synchronous code through a
small proxy that runs each coroutine to completion on a private loop.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
import pytest

import repro
import repro.client
from repro import Database, ExecutionOptions
from repro.api import AsyncConnection, AsyncCursor
from repro.errors import InterfaceError, QueryCancelledError

EXACT = ExecutionOptions(mode="exact")
ROWS = [(k, float(k)) for k in range(10)]
TRANSPORTS = ["local", "asyncio", "remote"]


def make_engine(**kwargs) -> Database:
    engine = Database(seed=3, **kwargs)
    engine.register_table(
        "t", {"k": np.arange(10), "v": np.arange(10, dtype=float)}
    )
    return engine


class SyncProxy:
    """Drives an asyncio connection or cursor from synchronous code."""

    def __init__(self, target, loop: asyncio.AbstractEventLoop) -> None:
        self._target = target
        self._loop = loop

    def _wrap(self, value):
        if isinstance(value, (AsyncConnection, AsyncCursor)):
            return SyncProxy(value, self._loop)
        return value

    def __getattr__(self, name: str):
        value = getattr(self._target, name)
        if inspect.iscoroutinefunction(value):
            return lambda *a, **k: self._wrap(self._loop.run_until_complete(value(*a, **k)))
        if callable(value):
            return lambda *a, **k: self._wrap(value(*a, **k))
        return value

    def __setattr__(self, name: str, value) -> None:
        if name.startswith("_"):
            object.__setattr__(self, name, value)
        else:
            setattr(self._target, name, value)

    def __iter__(self) -> Iterator:
        async def collect():
            return [row async for row in self._target]

        return iter(self._loop.run_until_complete(collect()))


@contextmanager
def connection_to(transport: str, engine: Database):
    """A DB-API connection of the given transport over ``engine``."""
    if transport == "local":
        connection = repro.connect(database=engine)
        yield connection
        connection.close()
    elif transport == "asyncio":
        loop = asyncio.new_event_loop()
        try:
            connection = loop.run_until_complete(repro.connect_async(database=engine))
            yield SyncProxy(connection, loop)
            loop.run_until_complete(connection.close())
        finally:
            loop.close()
    else:
        server = repro.serve(database=engine, port=0, pool_size=1)
        try:
            connection = repro.client.connect(*server.address, timeout=10.0)
            yield connection
            connection.close()
        finally:
            server.shutdown()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_dbapi_script(transport):
    engine = make_engine()
    try:
        with connection_to(transport, engine) as connection:
            run_script(connection)
    finally:
        engine.close()


def run_script(connection) -> None:
    cursor = connection.cursor()
    with pytest.raises(InterfaceError):
        cursor.fetchone()  # nothing executed yet

    # description, rowcount and the fetch family
    cursor.execute("SELECT k, v FROM t ORDER BY k", options=EXACT)
    assert [column[0] for column in cursor.description] == ["k", "v"]
    assert cursor.rowcount == 10
    assert cursor.fetchone() == ROWS[0]
    assert cursor.fetchmany(3) == ROWS[1:4]
    cursor.arraysize = 2
    assert cursor.fetchmany() == ROWS[4:6]
    assert cursor.fetchall() == ROWS[6:]
    assert cursor.fetchone() is None
    assert cursor.fetchmany(4) == [] and cursor.fetchall() == []

    # iteration
    cursor.execute("SELECT k, v FROM t ORDER BY k", options=EXACT)
    assert list(cursor) == ROWS

    # executemany: one statement per parameter set, the last result kept
    cursor.executemany(
        "INSERT INTO t (k, v) VALUES (?, ?)", [(10, 10.0), (11, 11.0)], options=EXACT
    )
    assert cursor.description is None and cursor.rowcount == -1
    assert cursor.fetchall() == []
    cursor.executemany(
        "SELECT count(*) AS n FROM t WHERE k >= ?", [(0,), (10,)], options=EXACT
    )
    assert cursor.rowcount == 1 and cursor.fetchall() == [(2,)]
    cursor.executemany("SELECT count(*) AS n FROM t WHERE k >= ?", [], options=EXACT)
    assert cursor.description is None
    with pytest.raises(InterfaceError):
        cursor.fetchone()  # an empty batch leaves no result

    # cancel, then every fetch fails until the next execute
    cursor.execute("SELECT k FROM t ORDER BY k", options=EXACT)
    assert cursor.fetchone() == (0,)
    cursor.cancel()
    for fetch in (
        cursor.fetchone,
        lambda: cursor.fetchmany(2),
        cursor.fetchall,
        lambda: list(cursor),
    ):
        with pytest.raises(InterfaceError):
            fetch()

    # a new statement re-arms the cursor
    cursor.execute("SELECT count(*) AS n FROM t", options=EXACT)
    assert cursor.fetchone() == (12,)
    assert cursor.fetchone() is None

    # closed cursor
    cursor.close()
    cursor.close()  # idempotent
    assert cursor.closed
    with pytest.raises(InterfaceError):
        cursor.execute("SELECT count(*) AS n FROM t", options=EXACT)
    with pytest.raises(InterfaceError):
        cursor.fetchone()

    # closed connection
    other = connection.execute("SELECT k FROM t ORDER BY k", options=EXACT)
    connection.commit()
    connection.rollback()
    connection.close()
    connection.close()  # idempotent
    assert connection.closed
    with pytest.raises(InterfaceError):
        other.fetchone()
    with pytest.raises(InterfaceError):
        other.execute("SELECT count(*) AS n FROM t", options=EXACT)
    with pytest.raises(InterfaceError):
        connection.cursor()
    with pytest.raises(InterfaceError):
        connection.commit()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_cancel_stops_executemany(transport):
    # Every executor checkpoint sleeps, so each statement takes ~0.1 s and
    # the twenty of them ~2 s; the cancel must end the batch, not one of it.
    engine = make_engine(
        fault_injection={"executor.checkpoint": {"kind": "sleep", "seconds": 0.02, "times": None}}
    )
    try:
        with connection_to(transport, engine) as connection:
            cursor = connection.cursor()
            canceller = threading.Timer(0.1, cursor.cancel)
            started = time.perf_counter()
            canceller.start()
            try:
                with pytest.raises(QueryCancelledError):
                    cursor.executemany(
                        "SELECT sum(v) AS s FROM t WHERE k > ?",
                        [(index,) for index in range(20)],
                        options=EXACT,
                    )
            finally:
                canceller.cancel()
            assert time.perf_counter() - started < 1.0
            with pytest.raises(InterfaceError):
                cursor.fetchone()
            cursor.execute("SELECT k FROM t WHERE k = ?", (3,), options=EXACT)
            assert cursor.fetchall() == [(3,)]
    finally:
        engine.close()

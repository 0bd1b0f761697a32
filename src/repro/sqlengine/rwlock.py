"""A small reader/writer lock for the engine's statement execution.

Concurrent sessions share one :class:`~repro.sqlengine.engine.Database`.
SELECTs may run fully in parallel (scans are read-only and numpy releases
the GIL for the bulk of the work), but a DML/DDL statement mutates table
columns and the catalog in several steps — a scan overlapping an append could
observe two columns of the same table at different lengths.  The engine
therefore takes the read side around SELECT execution and the write side
around every catalog-mutating statement.

The lock is deliberately simple: no writer preference (statement streams in
this codebase are read-heavy and short), reentrant on the write side, and
read acquisitions by the thread currently holding the write side are no-ops
(``CREATE TABLE ... AS SELECT`` and ``INSERT ... SELECT`` execute a SELECT
while holding the write side).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """Shared/exclusive lock with a reentrant exclusive side."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_thread: int | None = None
        self._writer_depth = 0

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer_thread == me:
                return  # the writing thread may read its own writes
            while self._writer_thread is not None:
                self._cond.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer_thread == me:
                return
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer_thread == me:
                self._writer_depth += 1
                return
            while self._writer_thread is not None or self._active_readers:
                self._cond.wait()
            self._writer_thread = me
            self._writer_depth = 1

    def release_write(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer_thread = None
                self._cond.notify_all()

    @contextmanager
    def reading(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def writing(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

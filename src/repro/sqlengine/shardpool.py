"""Persistent worker processes over shared-memory column shards.

``Database(parallel_exec=N)`` with ``N >= 2`` owns one :class:`ShardPool`:
``N`` long-lived worker processes connected by pipes, plus a publish-once
shared-memory store of table columns.  The flow per eligible query is

1. :meth:`ShardPool.ensure_published` — copy the table's columns into one
   ``multiprocessing.shared_memory`` segment **once per table version**:
   numeric columns as raw buffers, object columns as their int64 dictionary
   codes (the dictionary itself crosses the pipe once, at publish time).
   Re-publishing happens only when the table's version counter (bumped by
   every DML) or the catalog's schema version moves — the same snapshots the
   session layer uses for staleness.
2. :meth:`ShardPool.publish_plan` — the coordinator's frozen dispatch spec
   (predicate/aggregate/group-key ASTs, join shape) is
   pickled into its own tiny shared-memory segment **once per statement and
   catalog version**.  Workers attach and unpickle it on first use and cache
   the spec, so repeated executions of a prepared statement re-derive
   nothing worker-side.
3. :meth:`ShardPool.run_tasks` — one tiny task message per worker.  With a
   published plan the message is just ``{plan, segment, the shard's row
   ranges, bound params}`` (the ranges follow zone pruning, which bound
   parameters decide); workers map the segments, slice their shard *zero-copy*,
   replay the serial filter (and, for join tasks, probe the broadcast build
   side with the serial hash-join kernel), compute the partial aggregates
   (:mod:`repro.sqlengine.partialagg`) and send back the per-group states.
   Column data never crosses a pipe after publication.

Object columns are reconstructed worker-side as ``dictionary[codes]``; the
dictionary stores *normalized* strings, so a column is only usable in
workers when reconstruction is faithful — every value ``str`` or ``None``
(checked once at publish, recorded per column).  Queries touching an
unfaithful object column fall back to serial execution.

Lifecycle: workers are daemons (interpreter exit can never orphan them) and
``close()`` — reached from ``VerdictSession.close()`` via the connector and
``Database.close()`` — stops them and unlinks every live segment.  The
class-level :func:`ShardPool.live_segment_names` registry lets tests and CI
assert nothing leaked.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.reduction
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.faults import InjectedFault
from repro.sqlengine import partialagg
from repro.sqlengine.encoding import NULL_SENTINEL, unescape_key
from repro.sqlengine.expressions import Frame, LazyCodes, evaluate

try:  # pragma: no cover - platform probe
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

SEGMENT_PREFIX = "repro_shm"
_segment_counter = itertools.count()


class ShardPoolError(Exception):
    """The pool is unusable for this dispatch; callers fall back to serial."""


class _WorkerDied(Exception):
    """Internal: one worker's pipe went dead mid-exchange (respawn + retry)."""


class CircuitBreaker:
    """Dispatch circuit over the shard pool: closed → open → half-open.

    After ``threshold`` *consecutive* dispatch failures the circuit opens and
    every query takes the serial path with zero dispatch overhead (no
    publication checks, no pickling, no pipe traffic).  Once ``cooldown``
    seconds have passed, the next :meth:`allow` admits a single half-open
    probe; its outcome either closes the circuit again or re-opens it for
    another cool-down.  Thread-safe; transitions are reported through
    ``on_transition(old_state, new_state)`` so the engine can expose them in
    ``Database.stats`` and ``Database.health()``.
    """

    STATES = ("closed", "open", "half_open")

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 5.0,
        on_transition=None,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def allow(self) -> bool:
        """Whether a dispatch may be attempted right now.

        In the open state this is one lock-protected comparison — the
        "zero dispatch overhead" serial path.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if time.monotonic() - self._opened_at >= self.cooldown:
                    self._transition("half_open")
                    return True  # exactly one probe crosses the open circuit
                return False
            return False  # half_open: a probe is already in flight

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != "closed":
                self._transition("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or (
                self._state == "closed" and self._failures >= self.threshold
            ):
                self._opened_at = time.monotonic()
                self._transition("open")

    def _transition(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if self._on_transition is not None:
            try:
                self._on_transition(old_state, new_state)
            # repro: ignore[REP004] -- stats observers are best-effort; a
            # broken callback must not break the breaker's state machine.
            except Exception:  # pragma: no cover - observers must not break dispatch
                pass


def shared_memory_available() -> bool:
    return shared_memory is not None


def _attach_segment(name: str):
    """Attach an existing segment without double-registering it for cleanup.

    The creating (coordinator) process owns unlinking; worker-side
    attachments must not register with the resource tracker or the tracker
    reports spurious leaks at interpreter shutdown (fixed by ``track=False``
    in Python 3.13; unregistered manually before that).
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    # Suppress registration instead of unregistering afterwards: forked
    # workers share one tracker, whose cache is a *set* — two workers
    # attaching the same segment collapse to one registration, and the
    # second unregister then KeyErrors inside the tracker process.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _decode_dictionary(dictionary: np.ndarray) -> np.ndarray:
    """Raw values per dictionary entry (NULL sentinel back to ``None``)."""
    decoded = np.empty(len(dictionary), dtype=object)
    for index, entry in enumerate(dictionary):
        decoded[index] = None if entry == NULL_SENTINEL else unescape_key(str(entry))
    return decoded


@dataclass
class PublishedTable:
    """Coordinator-side record of one published table version."""

    key: tuple
    segment: object
    meta: dict
    num_rows: int
    faithful: frozenset
    #: True once the backing shm file is known to be gone (chaos unlink):
    #: cleanup then only closes the mapping instead of double-unlinking.
    lost: bool = field(default=False)


@dataclass
class PublishedPlan:
    """Coordinator-side record of one published dispatch-spec segment."""

    key: tuple
    segment: object
    size: int


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _worker_main(connection) -> None:  # pragma: no cover - separate process
    """Worker loop: publish/task/release/stop messages over one pipe."""
    segments: dict[str, dict] = {}
    rng = np.random.default_rng(0)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "publish":
            _, name, meta = message
            segments[name] = {"meta": meta, "segment": None, "columns": {}}
            connection.send(("ok", None))
            continue
        if kind == "plan":
            _, name, size = message
            segments[name] = {
                "meta": {"plan_size": size}, "segment": None, "columns": {},
                "spec": None,
            }
            connection.send(("ok", None))
            continue
        if kind == "release":
            for name in message[1]:
                entry = segments.pop(name, None)
                if entry and entry["segment"] is not None:
                    entry["segment"].close()
            continue
        if kind == "task":
            try:
                state = _run_task(segments, message[1], rng)
                connection.send(("ok", state))
            # repro: ignore[REP004] -- worker main loop: every task failure
            # (including KeyboardInterrupt-class) must be reported over the
            # pipe as an "err" reply; dying would desynchronize the
            # request/response pairing for the whole pool.
            except BaseException as error:  # noqa: BLE001 - report, don't die
                connection.send(("err", f"{type(error).__name__}: {error}"))
            continue
    for entry in segments.values():
        if entry["segment"] is not None:
            entry["segment"].close()
    connection.close()


def _worker_columns(segments: dict, name: str) -> tuple[dict, dict]:
    entry = segments.get(name)
    if entry is None:
        raise ShardPoolError(f"segment {name!r} was never published to this worker")
    if entry["segment"] is None:
        entry["segment"] = _attach_segment(name)
    if not entry["columns"]:
        meta = entry["meta"]
        buffer = entry["segment"].buf
        rows = meta["rows"]
        for column, info in meta["columns"].items():
            if info["kind"] == "numeric":
                array = np.ndarray(
                    rows, dtype=np.dtype(info["dtype"]), buffer=buffer,
                    offset=info["offset"],
                )
                entry["columns"][column] = {"values": array, "codes": None}
            else:
                codes = np.ndarray(
                    rows, dtype=np.int64, buffer=buffer, offset=info["offset"]
                )
                dictionary = info["dictionary"]
                entry["columns"][column] = {
                    "codes": codes,
                    "dictionary": dictionary,
                    "decoded": _decode_dictionary(dictionary),
                }
    return entry["meta"], entry["columns"]


def _slice_ranges(array: np.ndarray, ranges: list[tuple[int, int]]) -> np.ndarray:
    parts = [array[start:stop] for start, stop in ranges]
    if not parts:
        return array[:0]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def build_shard_frame(columns: dict, task: dict) -> Frame:
    """Assemble the shard's frame from column stores + the task's row ranges.

    Shared between the worker processes (columns = shm views) and the
    in-thread ``parallel_exec=1`` path (columns = the table's own arrays) so
    both execute literally the same code against the same layout.
    """
    binding = task["binding"]
    ranges = task["ranges"]
    frame = Frame()
    for name in task["columns"]:
        store = columns[name]
        if store["codes"] is None:
            frame.add_column(binding, name, _slice_ranges(store["values"], ranges))
        else:
            codes = _slice_ranges(store["codes"], ranges)
            if "values" in store and store["values"] is not None:
                values = _slice_ranges(store["values"], ranges)
            else:
                values = store["decoded"][codes]
            frame.add_column(
                binding, name, values,
                codes=LazyCodes.presolved(codes, store["dictionary"]),
            )
    if not frame.entries():
        frame.num_rows = sum(stop - start for start, stop in ranges)
    return frame


def _join_shard_frame(
    probe: Frame, join: dict, build_columns: dict, rng, params
) -> Frame:
    """Replay the serial single-join build over one probe shard.

    The order mirrors ``executor._build_frame`` / ``_build_join`` exactly:
    probe-side pushed conjuncts filter the shard, the (broadcast) build side
    is materialized whole and filtered with its own pushed conjuncts, both
    equi keys are evaluated, and ``hash_join_indices`` emits its canonical
    left-major pairs.  Those pairs are the serial join's pairs restricted to
    this shard's probe rows in the same relative order — so concatenating
    shard results in shard order reproduces the serial joined row order
    bit for bit (the build side and its table-level dictionaries are
    identical in every shard).
    """
    from repro.sqlengine import executor, functions

    def context_for(frame: Frame) -> functions.EvaluationContext:
        return functions.EvaluationContext(
            num_rows=frame.num_rows, rng=rng, params=params
        )

    if join.get("probe_predicate") is not None:
        mask = evaluate(join["probe_predicate"], probe, context_for(probe))
        probe = probe.filter(mask)
    build = build_shard_frame(
        build_columns,
        {
            "binding": join["binding"],
            "columns": join["columns"],
            "ranges": [(0, join["build_rows"])],
        },
    )
    if join.get("build_predicate") is not None:
        mask = evaluate(join["build_predicate"], build, context_for(build))
        build = build.filter(mask)
    left_expr, right_expr = join["left_key"], join["right_key"]
    left_key = evaluate(left_expr, probe, context_for(probe))
    right_key = evaluate(right_expr, build, context_for(build))
    left_indices, right_indices = executor.hash_join_indices(
        [left_key],
        [right_key],
        [probe.codes_for(left_expr.name, left_expr.table)],
        [build.codes_for(right_expr.name, right_expr.table)],
        prefer_smaller_build=True,
    )
    return Frame.concat(probe.take(left_indices), build.take(right_indices))


def run_shard_task(
    columns: dict, task: dict, rng, build_columns: dict | None = None
) -> partialagg.ShardState:
    """Filter (and possibly join) one shard, compute its partial-agg state."""
    from repro.sqlengine import functions

    frame = build_shard_frame(columns, task)
    join = task.get("join")
    if join is not None:
        frame = _join_shard_frame(frame, join, build_columns, rng, task.get("params"))
    context = functions.EvaluationContext(
        num_rows=frame.num_rows, rng=rng, params=task.get("params")
    )
    for predicate in task["predicates"]:
        # The filter stages mirror the serial order (pushed conjuncts at the
        # scan, residual WHERE after the join): per-value object semantics
        # may only raise for rows an earlier stage already removed.
        mask = evaluate(predicate, frame, context)
        frame = frame.filter(mask)
        context = functions.EvaluationContext(
            num_rows=frame.num_rows, rng=rng, params=task.get("params")
        )
    return partialagg.compute_shard_state(
        frame, task["group_columns"], task["specs"], context
    )


def _worker_plan(segments: dict, name: str) -> dict:
    """Attach + unpickle a published dispatch spec (cached per segment)."""
    entry = segments.get(name)
    if entry is None:
        raise ShardPoolError(f"plan {name!r} was never published to this worker")
    if entry.get("spec") is None:
        if entry["segment"] is None:
            entry["segment"] = _attach_segment(name)
        size = entry["meta"]["plan_size"]
        entry["spec"] = pickle.loads(bytes(entry["segment"].buf[:size]))
    return entry["spec"]


def _run_task(segments: dict, task: dict, rng) -> partialagg.ShardState:
    if task.get("plan") is not None:
        # Cross-process plan cache: everything statement-derived comes from
        # the published spec; the task itself carries only segment names,
        # the shard's row ranges and this execution's bound parameter values.
        spec = _worker_plan(segments, task["plan"])
        merged = dict(spec)
        merged.update(task)
        task = merged
    _, columns = _worker_columns(segments, task["segment"])
    build_columns = None
    if task.get("join") is not None:
        _, build_columns = _worker_columns(segments, task["join_segment"])
    return run_shard_task(columns, task, rng, build_columns)


# ---------------------------------------------------------------------------
# coordinator-side pool
# ---------------------------------------------------------------------------


class ShardPool:
    """A fixed set of worker processes plus the published-segment store."""

    _registry_lock = threading.Lock()
    _live_segments: set[str] = set()

    @classmethod
    def live_segment_names(cls) -> set[str]:
        """Names of every not-yet-unlinked segment (leak checking)."""
        with cls._registry_lock:
            return set(cls._live_segments)

    def __init__(
        self,
        workers: int,
        on_event=None,
        retry_backoff: float = 0.02,
        retry_backoff_cap: float = 0.25,
        seed: int = 0,
    ) -> None:
        if shared_memory is None:  # pragma: no cover - platform guard
            raise ShardPoolError("multiprocessing.shared_memory is unavailable")
        self.workers = max(2, int(workers))
        self.lock = threading.Lock()
        self.broken = False
        self._started = False
        self._connections: list = []
        self._processes: list = []
        self._published: dict[str, PublishedTable] = {}
        self._plans: dict[tuple, PublishedPlan] = {}
        self._on_event = on_event
        self._retry_backoff = float(retry_backoff)
        self._retry_backoff_cap = float(retry_backoff_cap)
        self._rng = np.random.default_rng(seed)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()

    def _event(self, name: str) -> None:
        """Report a supervision event (engine wires this to ``bump_stat``)."""
        if self._on_event is not None:
            try:
                self._on_event(name)
            # repro: ignore[REP004] -- supervision events are telemetry; a
            # failing observer must not turn a survivable worker event into
            # a dispatch failure.
            except Exception:  # pragma: no cover - observers must not break dispatch
                pass

    # -- lifecycle -----------------------------------------------------------

    def _spawn_worker(self) -> tuple:
        parent, child = self._context.Pipe()
        process = self._context.Process(target=_worker_main, args=(child,), daemon=True)
        process.start()
        child.close()
        return parent, process

    def _ensure_started(self) -> None:
        if self._started:
            return
        for _ in range(self.workers):
            parent, process = self._spawn_worker()
            self._connections.append(parent)
            self._processes.append(process)
        self._started = True

    def alive_workers(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for process in self._processes if process.is_alive())

    def published_count(self) -> int:
        return len(self._published)

    def _respawn(self, index: int) -> None:
        """Replace one worker and re-publish every live segment to it.

        New workers only need the publication *metadata* (segment name +
        layout); the column bytes already live in shared memory, so recovery
        cost is a fork plus a few small pipe messages.
        """
        try:
            self._connections[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        old_process = self._processes[index]
        if old_process.is_alive():
            old_process.kill()
        old_process.join(timeout=2)
        parent, process = self._spawn_worker()
        self._connections[index] = parent
        self._processes[index] = process
        self._event("worker_respawns")
        try:
            for published in self._published.values():
                parent.send(("publish", published.key[-1], published.meta))
                if not parent.poll(30):  # pragma: no cover - fork wedged
                    raise ShardPoolError("respawned worker did not ack publication")
                parent.recv()
            for plan in self._plans.values():
                parent.send(("plan", plan.segment.name, plan.size))
                if not parent.poll(30):  # pragma: no cover - fork wedged
                    raise ShardPoolError("respawned worker did not ack plan")
                parent.recv()
        except (OSError, EOFError, ShardPoolError) as error:  # pragma: no cover
            self.broken = True
            raise ShardPoolError(
                f"could not republish to respawned worker: {error}"
            ) from error

    def _revive_dead_workers(self) -> None:
        """Reap and replace any worker that died since the last dispatch."""
        if not self._started:
            return
        for index, process in enumerate(self._processes):
            if not process.is_alive():
                self._respawn(index)

    def _retry_sleep(self, attempt: int) -> None:
        """Bounded exponential backoff with jitter before a task retry."""
        base = min(self._retry_backoff * (2**attempt), self._retry_backoff_cap)
        time.sleep(base + float(self._rng.random()) * self._retry_backoff)

    def close(self) -> None:
        """Stop workers and unlink every live segment (idempotent).

        Shutdown escalates: cooperative stop + ``join``, then ``terminate()``
        (SIGTERM), then ``kill()`` (SIGKILL, which ends even a stopped or
        wedged worker).  Segment unlinking sits in a ``finally`` so no
        ``/dev/shm`` segment outlives the pool no matter how shutdown went.
        """
        self.broken = True
        try:
            for connection in self._connections:
                try:
                    connection.send(("stop",))
                except (OSError, ValueError):
                    pass
            for process in self._processes:
                process.join(timeout=1)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5)
                    self._event("worker_force_kills")
            for connection in self._connections:
                try:
                    connection.close()
                except OSError:  # pragma: no cover
                    pass
        finally:
            self._connections = []
            self._processes = []
            for published in list(self._published.values()):
                self._unlink(published)
            self._published = {}
            for plan in list(self._plans.values()):
                self._unlink_plan(plan)
            self._plans = {}

    def _unlink(self, published: PublishedTable) -> None:
        try:
            published.segment.close()
            if not published.lost:
                published.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        with self._registry_lock:
            self._live_segments.discard(published.key[-1])

    def _unlink_orphan(self, segment) -> None:
        """Destroy a segment that never reached a tracked store.

        The publication paths create the segment first and hand ownership to
        ``self._published`` / ``self._plans`` last; if anything in between
        raises (a worker pipe dying mid-broadcast, an injected publish
        fault), the segment would otherwise outlive the pool — ``close()``
        only unlinks what the tracked stores know about.
        """
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        with self._registry_lock:
            self._live_segments.discard(segment.name)

    # -- chaos actions (fault-injection targets) -----------------------------

    def _chaos_kill_worker(self) -> None:
        """Failpoint action: SIGKILL one live worker (supervision recovers)."""
        for process in self._processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=2)
                return

    def _chaos_unlink_segment(self) -> None:
        """Failpoint action: delete one published shm file out from under us."""
        for published in self._published.values():
            if not published.lost:
                try:
                    published.segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
                published.lost = True
                with self._registry_lock:
                    self._live_segments.discard(published.key[-1])
                return

    # -- publication ---------------------------------------------------------

    def ensure_published(
        self, table, catalog_version: int, faults=None
    ) -> tuple[PublishedTable | None, bool]:
        """Publish (or reuse) the table's current version.

        Returns ``(published, fresh)`` where ``fresh`` says whether a new
        segment was created (the caller's ``shard_publications`` counter —
        the zero-per-query-pickling proof is ``dispatches >> publications``).
        The key carries the catalog schema version and the table's own
        mutation counter: any DDL or any DML against this table produces a
        fresh key, the stale segment is unlinked and the new version
        published — readers can never consume stale shards.
        """
        if self.broken:
            return None, False
        name = table.name.lower()
        key = (name, catalog_version, table.version)
        published = self._published.get(name)
        if published is not None and published.key[:3] == key:
            return published, False
        self._ensure_started()
        self._revive_dead_workers()
        if published is not None:
            self._broadcast(("release", [published.key[-1]]))
            self._unlink(published)
            self._published.pop(name, None)
        if faults is not None:
            faults.fire("shardpool.publish")
        published = self._publish(table, key)
        if published is not None:
            self._published[name] = published
        return published, True

    def _publish(self, table, key: tuple) -> PublishedTable | None:
        rows = table.num_rows
        layouts: dict[str, dict] = {}
        worker_columns: dict[str, dict] = {}
        offset = 0
        faithful: set[str] = set()
        for column in table.column_names:
            array = table.column(column)
            if array.dtype == object:
                encoded = table.dictionary_codes(column)
                codes, dictionary = encoded
                if all(value is None or type(value) is str for value in array):
                    faithful.add(column)
                layouts[column] = {
                    "kind": "coded", "offset": offset, "nbytes": codes.nbytes,
                    "source": codes, "dictionary": dictionary,
                }
                offset += codes.nbytes
            else:
                layouts[column] = {
                    "kind": "numeric", "dtype": array.dtype.str, "offset": offset,
                    "nbytes": array.nbytes, "source": array,
                }
                offset += array.nbytes
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, offset),
                name=f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_segment_counter)}",
            )
        except OSError as error:  # pragma: no cover - /dev/shm exhausted
            raise ShardPoolError(f"cannot create shared memory: {error}") from error
        with self._registry_lock:
            self._live_segments.add(segment.name)
        try:
            meta_columns: dict[str, dict] = {}
            for column, layout in layouts.items():
                source = layout.pop("source")
                if layout["kind"] == "coded":
                    view = np.ndarray(
                        rows, dtype=np.int64, buffer=segment.buf, offset=layout["offset"]
                    )
                else:
                    view = np.ndarray(
                        rows, dtype=np.dtype(layout["dtype"]), buffer=segment.buf,
                        offset=layout["offset"],
                    )
                view[:] = source
                meta_columns[column] = layout
            meta = {"rows": rows, "columns": meta_columns}
            self._broadcast(("publish", segment.name, meta))
        except BaseException:
            # Ownership never transferred to self._published: unlink here or
            # the segment outlives the pool (close() would not know it).
            self._unlink_orphan(segment)
            raise
        return PublishedTable(
            key=key + (segment.name,), segment=segment, meta=meta, num_rows=rows,
            faithful=frozenset(faithful),
        )

    def _broadcast(self, message) -> None:
        for connection in self._connections:
            try:
                connection.send(message)
            except (OSError, ValueError) as error:
                self.broken = True
                raise ShardPoolError(f"worker pipe failed: {error}") from error
        if message[0] in ("publish", "plan"):
            self._collect(len(self._connections))

    # -- plan cache ----------------------------------------------------------

    #: FIFO bound on live plan-spec segments: each is tiny (a pickled task
    #: spec), but an unbounded statement stream must not accrete /dev/shm
    #: files for the life of the pool.
    MAX_PLAN_SEGMENTS = 32

    def plan_published(self, key: tuple) -> str | None:
        """Segment name of a still-live published plan, or None."""
        published = self._plans.get(key)
        return None if published is None else published.segment.name

    def publish_plan(self, key: tuple, payload: bytes) -> tuple[str, bool]:
        """Publish one frozen dispatch spec (idempotent per ``key``).

        Returns ``(segment_name, fresh)``.  The payload crosses into shared
        memory exactly once; afterwards every dispatch of the statement ships
        only segment names, row ranges and bound parameters.  ``key`` must
        already encode statement identity and catalog/table versions — the
        pool does no invalidation of its own beyond the FIFO bound.
        """
        if self.broken:
            raise ShardPoolError("pool is closed")
        published = self._plans.get(key)
        if published is not None:
            return published.segment.name, False
        self._ensure_started()
        self._revive_dead_workers()
        while len(self._plans) >= self.MAX_PLAN_SEGMENTS:
            self._release_plan(next(iter(self._plans)))
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(payload)),
                name=f"{SEGMENT_PREFIX}_{os.getpid()}_plan{next(_segment_counter)}",
            )
        except OSError as error:  # pragma: no cover - /dev/shm exhausted
            raise ShardPoolError(f"cannot create shared memory: {error}") from error
        with self._registry_lock:
            self._live_segments.add(segment.name)
        try:
            segment.buf[: len(payload)] = payload
            self._broadcast(("plan", segment.name, len(payload)))
        except BaseException:
            # A broadcast failure before ownership reaches self._plans would
            # leak the spec segment past close(); destroy it on the spot.
            self._unlink_orphan(segment)
            raise
        self._plans[key] = PublishedPlan(key=key, segment=segment, size=len(payload))
        return segment.name, True

    def _release_plan(self, key: tuple) -> None:
        published = self._plans.pop(key, None)
        if published is None:
            return
        try:
            self._broadcast(("release", [published.segment.name]))
        except ShardPoolError:  # pragma: no cover - eviction is best-effort
            pass
        self._unlink_plan(published)

    def _unlink_plan(self, published: PublishedPlan) -> None:
        try:
            published.segment.close()
            published.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        with self._registry_lock:
            self._live_segments.discard(published.segment.name)

    # -- dispatch ------------------------------------------------------------

    #: Hard cap on how long a collect waits for one worker without a deadline.
    WORKER_TIMEOUT_SECONDS = 300.0

    def run_tasks(
        self, tasks: list[dict], deadline=None, faults=None
    ) -> list[partialagg.ShardState]:
        """Run one task per worker and return the shard states in task order.

        Supervision: dead workers are reaped and respawned before dispatch;
        a task whose worker dies (or errors) is retried exactly once on a
        healthy worker after a short jittered backoff.  Only a retry failure
        marks the dispatch as failed — and even then via
        :class:`ShardPoolError`, which the executor turns into a serial
        fallback.  ``deadline`` bounds the collect: expiry (or a
        cross-thread cancel) respawns every worker with an outstanding
        response — keeping the request/response pipe pairing intact — and
        re-raises the typed error.
        """
        if self.broken:
            raise ShardPoolError("pool is closed")
        self._ensure_started()
        self._revive_dead_workers()
        if len(tasks) > len(self._connections):
            raise ShardPoolError("more tasks than workers")
        if faults is not None:
            faults.fire(
                "shardpool.dispatch",
                actions={
                    "kill_worker": self._chaos_kill_worker,
                    "unlink_segment": self._chaos_unlink_segment,
                },
            )
        # Serialize every task before sending the first one: an unpicklable
        # payload (exotic placeholder parameters) must fail cleanly, not
        # after some workers already received work — that would desynchronize
        # the request/response pairing on the pipes.
        try:
            payloads = [
                multiprocessing.reduction.ForkingPickler.dumps(("task", task))
                for task in tasks
            ]
        except Exception as error:  # noqa: BLE001 - any pickling failure
            raise ShardPoolError(f"task not picklable: {error}") from error

        results: list = [None] * len(tasks)
        failed: list[int] = []
        sent: list[int] = []
        for index, payload in enumerate(payloads):
            if self._send_payload(index, payload):
                sent.append(index)
            else:
                failed.append(index)  # worker already respawned; retried below
        if faults is not None:
            try:
                faults.fire("shardpool.collect")
            except InjectedFault as error:
                for index in sent:
                    self._respawn(index)
                raise ShardPoolError(f"injected collect failure: {error}") from error
        for position, index in enumerate(sent):
            try:
                status, payload = self._recv(index, deadline)
            except _WorkerDied:
                self._respawn(index)
                failed.append(index)
                continue
            except (QueryTimeoutError, QueryCancelledError):
                # Every worker from here on still owes a response; replacing
                # them keeps the pipes request/response-synchronized.
                for pending_index in sent[position:]:
                    self._respawn(pending_index)
                raise
            if status == "err":
                failed.append(index)
            else:
                results[index] = payload

        for attempt, index in enumerate(sorted(failed)):
            self._retry_sleep(attempt)
            self._revive_dead_workers()
            self._event("shard_task_retries")
            if not self._send_payload(index, payloads[index]):
                raise ShardPoolError("worker unavailable for retry dispatch")
            try:
                status, payload = self._recv(index, deadline)
            except _WorkerDied as death:
                self._respawn(index)
                raise ShardPoolError(f"shard task failed after retry: {death}") from death
            except (QueryTimeoutError, QueryCancelledError):
                self._respawn(index)
                raise
            if status == "err":
                raise ShardPoolError(f"worker error (after retry): {payload}")
            results[index] = payload
        return results

    def _send_payload(self, index: int, payload) -> bool:
        """Send one pre-pickled task; on pipe failure respawn and report False."""
        try:
            self._connections[index].send_bytes(bytes(payload))
            return True
        except (OSError, ValueError):
            self._respawn(index)
            return False

    def _recv(self, index: int, deadline=None) -> tuple:
        """Await one worker response, honouring the query deadline.

        Polls in short steps so a timeout or a cross-thread cancel is
        noticed within ~50ms; raises :class:`_WorkerDied` when the pipe goes
        dead (EOF from a killed worker arrives immediately, so dead workers
        never cost the full poll budget).
        """
        connection = self._connections[index]
        waited = 0.0
        while True:
            if deadline is not None:
                deadline.check()
            step = 0.05 if deadline is not None else 1.0
            try:
                if connection.poll(step):
                    return connection.recv()
            except (EOFError, OSError) as error:
                raise _WorkerDied(f"worker {index} died: {error}") from error
            waited += step
            if waited >= self.WORKER_TIMEOUT_SECONDS:  # pragma: no cover - wedged worker
                raise _WorkerDied(f"worker {index} unresponsive for {waited:.0f}s")

    def _collect(self, count: int) -> list:
        """Collect publish acks from the first ``count`` workers."""
        results = []
        for index in range(count):
            try:
                status, payload = self._recv(index)
            except _WorkerDied as error:
                self.broken = True
                raise ShardPoolError(str(error)) from error
            if status == "err":  # pragma: no cover - publish never errors today
                raise ShardPoolError(f"worker error: {payload}")
            results.append(payload)
        return results


def table_column_store(table, columns: list[str]) -> dict:
    """In-process column store with the worker-side layout.

    The ``parallel_exec=1`` in-thread path (and the A/B tests) run
    :func:`run_shard_task` against the table's own arrays through this
    adapter — the raw object values are used directly, so no faithfulness
    constraint applies in-thread.
    """
    store: dict[str, dict] = {}
    for name in columns:
        array = table.column(name)
        if array.dtype == object:
            codes, dictionary = table.dictionary_codes(name)
            store[name] = {"values": array, "codes": codes, "dictionary": dictionary}
        else:
            store[name] = {"values": array, "codes": None}
    return store

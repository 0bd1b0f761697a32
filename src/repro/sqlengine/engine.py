"""The built-in relational database: catalog + executor + DDL/DML handling.

:class:`Database` is the "underlying database" of the reproduction.  It
accepts SQL text (SELECT, CREATE TABLE [AS SELECT], DROP TABLE, INSERT) and
returns :class:`~repro.sqlengine.resultset.ResultSet` objects, exactly as an
off-the-shelf engine behind a JDBC driver would.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cache import LRUCache
from repro.errors import CatalogError, ExecutionError
from repro.faults import as_injector
from repro.health import HealthReport
from repro.sqlengine import functions, parser, shardpool, sqlast as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.executor import DEFAULT_MIN_SHARD_ROWS, Executor
from repro.sqlengine.expressions import Frame, evaluate
from repro.sqlengine.planner import SelectPlan, ordering_target, plan_select
from repro.sqlengine.resultset import ResultSet
from repro.sqlengine.rwlock import ReadWriteLock
from repro.sqlengine.table import Table


#: Capacity of the statement cache and of the plan cache (entries each).
STATEMENT_CACHE_SIZE = 256

_EMPTY_TYPES = {
    "int": np.int64,
    "integer": np.int64,
    "bigint": np.int64,
    "double": np.float64,
    "float": np.float64,
    "decimal": np.float64,
    "real": np.float64,
    "varchar": object,
    "string": object,
    "text": object,
    "char": object,
    "boolean": bool,
}


class Database:
    """An in-process columnar SQL database.

    Args:
        seed: seed for the engine's random generator (``rand()``); passing a
            fixed seed makes query results involving randomness reproducible.
        optimize: enable the logical planner (predicate pushdown, projection
            pruning, zone-map chunk skipping, dictionary-coded keys) plus the
            statement and plan caches.  ``optimize=False`` is the naive A/B
            escape hatch: every call re-parses and executes without any
            planner advice, producing identical results.
        chunk_rows: storage chunk size (rows per chunk / zone map) for tables
            created through this engine; None uses the storage default.
        parallel_exec: process-sharded aggregation.  ``True`` uses one worker
            process per CPU core, ``N >= 2`` sets the count explicitly, and
            ``None``/``False``/``0`` disable sharding.  ``1`` is the
            in-thread mode: eligible queries run through the shard-split /
            partial-aggregate / merge machinery inside the calling thread
            (two shards, no processes) — the A/B-testable core.  With
            ``N >= 2`` a persistent worker-process pool is spawned lazily;
            table columns are published once per table version into
            ``multiprocessing.shared_memory`` segments (never pickled per
            query) and eligible grouped/scalar aggregations are merged from
            per-shard partial states, bit-identically to serial execution.
            Everything ineligible falls back to the serial path; see
            ``stats['parallel_exec_dispatches'/'parallel_exec_fallbacks'/
            'shard_publications']``.  ``close()`` (or context-manager exit)
            stops the workers and unlinks every segment.  In process mode
            a query whose (pruned) input cannot fill at least two shards of
            :attr:`min_shard_rows` rows
            (:data:`repro.sqlengine.executor.DEFAULT_MIN_SHARD_ROWS`) runs
            serially instead of dispatching at a loss; the in-thread mode
            ignores that floor (it exists to exercise the merge algebra on
            small fixtures).
        fault_injection: optional failpoint configuration — a mapping of
            site name to :class:`repro.faults.FaultSpec` (or spec dict), or
            a ready :class:`repro.faults.FaultInjector`.  Inert in
            production (None); the chaos suite uses it to inject worker
            deaths, segment loss, connector failures, slow scans and
            timeouts deterministically.

    Fixed, not configurable: the statement and plan caches hold
    :data:`STATEMENT_CACHE_SIZE` entries each, and :attr:`circuit` (the
    shard-dispatch circuit breaker) uses the defaults of
    :class:`~repro.sqlengine.shardpool.CircuitBreaker` — open after three
    consecutive failures, one half-open probe after five seconds.  Tests that
    need other values assign ``min_shard_rows`` / ``circuit.threshold`` /
    ``circuit.cooldown`` on the instance.
    """

    def __init__(
        self,
        seed: int | None = None,
        optimize: bool = True,
        chunk_rows: int | None = None,
        parallel_exec: int | bool | None = None,
        fault_injection=None,
    ) -> None:
        self.catalog = Catalog(chunk_rows=chunk_rows)
        self._rng = np.random.default_rng(seed)
        self.optimize = optimize
        if parallel_exec is True:
            self.exec_workers = os.cpu_count() or 1
        elif parallel_exec in (None, False):
            self.exec_workers = 0
        else:
            self.exec_workers = max(0, int(parallel_exec))
        if self.exec_workers >= 2 and not shardpool.shared_memory_available():
            self.exec_workers = 1  # pragma: no cover - platform fallback
        # Process-mode dispatch admission floor (rows per shard); 0 disables.
        self.min_shard_rows = DEFAULT_MIN_SHARD_ROWS
        self._shard_pool: shardpool.ShardPool | None = None
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Fast-path observability: how often sharded aggregation dispatched
        # or fell back and how often the statement/plan caches hit.  The
        # session layer additionally mirrors its rewrite-cache hits here (see
        # ``Connector.record_stat``), so one dict answers "did this query
        # re-parse / re-plan / re-rewrite?".  Consumed by tests and
        # benchmarks; purely informational.
        self.stats: dict[str, int] = {
            "parallel_exec_dispatches": 0,
            "parallel_exec_fallbacks": 0,
            "shard_publications": 0,
            # Round-8 dispatch tiers and the cross-process plan cache: how
            # many dispatches were joins / used expression group keys, and
            # how often a dispatch reused an already-published plan spec
            # (hits >> publications is the prepared-statement proof that
            # re-executions ship no plan state).
            "parallel_exec_join_dispatches": 0,
            "parallel_exec_expr_key_dispatches": 0,
            "plan_cache_shm_hits": 0,
            "plan_cache_shm_publications": 0,
            "statement_cache_hits": 0,
            "statement_cache_misses": 0,
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            # Joins answered through a table's unique-key index instead of
            # hashing both inputs, and index builds (at most one per table,
            # column and table version; none at load).
            "key_index_joins": 0,
            "key_index_builds": 0,
            # Round-7 resilience counters: worker supervision, dispatch
            # retries, circuit transitions and degradation events.
            "worker_respawns": 0,
            "shard_task_retries": 0,
            "dispatch_failures": 0,
            "circuit_opened": 0,
            "circuit_closed": 0,
            "circuit_half_open_probes": 0,
            "circuit_short_circuits": 0,
        }
        # Resilience wiring: the (usually inert) fault injector and the
        # dispatch circuit breaker shared by every executor of this engine.
        self.fault_injector = as_injector(fault_injection, seed=seed or 0)
        self.circuit = shardpool.CircuitBreaker(
            on_transition=self._record_circuit_transition
        )
        # Reader/writer lock: SELECTs take the shared side (and still run in
        # parallel with each other), catalog-mutating statements take the
        # exclusive side — a scan can never observe a half-applied append or
        # a mid-flight CREATE/DROP.
        self._statement_lock = ReadWriteLock()
        # Coarser lock exported to the session layer: multi-statement
        # critical sections (sample builds, metadata-table rebuilds) wrap
        # themselves in it so two connections sharing this engine cannot
        # interleave their read-modify-write sequences.
        self.session_lock = threading.RLock()
        # Monotonic data version: bumped by every DML/DDL statement and every
        # programmatic load.  Sessions snapshot (catalog.version,
        # data_version) to decide when their row-count / cardinality /
        # sample-metadata caches — and zone-map-derived planner advice — must
        # be re-read because *another* connection changed the data.
        self.data_version = 0
        # SELECT text -> parsed statement.  Parsing is pure syntax, so entries
        # never go stale; the LRU bound caps memory under ad-hoc traffic.
        self._statement_cache: LRUCache[str, ast.Statement] = LRUCache(
            maxsize=STATEMENT_CACHE_SIZE
        )
        # SQL text -> plan, filed under the catalog schema version it was
        # planned against: plans bake in column sets, so any
        # CREATE/DROP/register makes them unreachable.
        self._plan_cache: LRUCache[str, SelectPlan] = LRUCache(
            maxsize=STATEMENT_CACHE_SIZE
        )

    # -- programmatic data loading --------------------------------------------

    def register_table(
        self, name: str, columns: Mapping[str, Sequence] | Table, replace: bool = True
    ) -> Table:
        """Register an in-memory table built from a column mapping (or Table)."""
        if isinstance(columns, Table):
            table = columns if columns.name == name else columns.copy(name)
        else:
            table = Table(name, columns, chunk_rows=self.catalog.chunk_rows)
        with self._statement_lock.writing():
            self.catalog.register(table, replace=replace)
            self.data_version += 1
        return table

    def append_columns(self, name: str, columns: Mapping[str, Sequence]) -> None:
        """Append a columnar batch to an existing table.

        The bulk-ingest entry point (``INSERT`` reaches the same
        :meth:`Table.append_columns`): one exclusive-lock acquisition and one
        ``data_version`` bump per batch, atomic — a batch the table rejects
        changes nothing.
        """
        with self._statement_lock.writing():
            self.catalog.get(name).append_columns(columns)
            self.data_version += 1

    def table(self, name: str) -> Table:
        """Return the named table (raises CatalogError when missing)."""
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
        return self.catalog.has(name)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    # -- SQL execution ---------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence | Mapping | None = None,
        deadline=None,
        parallel: bool | None = None,
    ) -> ResultSet:
        """Parse and execute one SQL statement, returning its result set.

        DDL and DML statements return an empty result set.  With
        ``optimize=True`` a parsed SELECT and its logical plan are cached
        per SQL text, so repeated statements skip both the parser and the
        planner entirely (DDL/DML text is never cached).

        ``params`` binds ``?`` / ``:name`` placeholders in the statement at
        execution time: a sequence for positional, a mapping for named
        parameters.  The caches are keyed on the *template* text, so one
        parameterized statement re-uses its parsed form and plan across every
        parameter set.  Nothing is given up for it: plan-time advice that
        needs a constant (zone-map chunk skipping) is classified with the
        placeholder in the constant's place and resolved against ``params``
        when the chunks are checked, and the run-time fast paths (dictionary
        comparisons, IN-list probes) resolve the bound value per call — a
        bound predicate skips exactly the chunks its literal twin skips.

        ``parallel=False`` pins this one statement to the serial executor
        (the session layer uses it for ``ExecutionOptions.parallel``);
        ``None``/``True`` leave the engine's ``parallel_exec`` setting in
        charge.
        """
        if not self.optimize:
            return self.execute_statement(
                parser.parse(sql), params=params, deadline=deadline, parallel=parallel
            )
        statement = self._cached_statement(sql)
        plan = None
        if isinstance(statement, ast.SelectStatement):
            plan = self._cached_plan(sql, statement)
        return self.execute_statement(
            statement, plan=plan, params=params, deadline=deadline, parallel=parallel
        )

    def execute_statement(
        self,
        statement: ast.Statement,
        plan: SelectPlan | None = None,
        params: Sequence | Mapping | None = None,
        deadline=None,
        parallel: bool | None = None,
    ) -> ResultSet:
        """Execute an already parsed statement."""
        if isinstance(statement, ast.SelectStatement):
            with self._statement_lock.reading():
                return self._executor(
                    params, deadline=deadline, parallel=parallel
                ).execute_select(statement, plan=plan)
        if isinstance(statement, ast.CreateTableStatement):
            with self._statement_lock.writing():
                result = self._execute_create(statement, params)
                self.data_version += 1
                return result
        if isinstance(statement, ast.DropTableStatement):
            with self._statement_lock.writing():
                self.catalog.drop(statement.table_name, if_exists=statement.if_exists)
                self.data_version += 1
            return ResultSet.empty([])
        if isinstance(statement, ast.InsertStatement):
            with self._statement_lock.writing():
                result = self._execute_insert(statement, params)
                self.data_version += 1
                return result
        raise ExecutionError(f"unsupported statement type {type(statement).__name__}")

    def _executor(
        self,
        params: Sequence | Mapping | None = None,
        deadline=None,
        parallel: bool | None = None,
    ) -> Executor:
        return Executor(
            self.catalog,
            self._rng,
            optimize=self.optimize,
            params=params,
            count=self.bump_stat,
            exec_workers=0 if parallel is False else self.exec_workers,
            shard_pool=self._shard_pool_factory,
            deadline=deadline,
            faults=self.fault_injector,
            circuit=self.circuit,
            min_shard_rows=self.min_shard_rows,
        )

    def _shard_pool_factory(self) -> shardpool.ShardPool | None:
        """Lazily create (or recreate) the shared-memory shard pool.

        Lock-guarded so two sessions firing their first eligible queries
        simultaneously cannot double-spawn the workers.  A pool marked broken
        (a worker died or a pipe failed) is closed and replaced on the next
        dispatch, so one bad query does not disable sharding for the rest of
        the process.
        """
        if self.exec_workers < 2:
            return None
        with self._pool_lock:
            if self._shard_pool is not None and self._shard_pool.broken:
                self._shard_pool.close()
                self._shard_pool = None
            if self._shard_pool is None:
                self._shard_pool = shardpool.ShardPool(
                    self.exec_workers, on_event=self.bump_stat
                )
            return self._shard_pool

    def close(self) -> None:
        """Release worker processes and shared memory.

        Long-running processes that create many ``parallel_exec`` engines
        should close each one (or use the engine as a context manager);
        queries issued afterwards simply recreate the pool on demand.  A
        query in flight on another session when the pool shuts down falls
        back to the (bit-identical) sequential path.  Idempotent; closing
        unlinks every shared-memory segment this engine published.
        """
        with self._pool_lock:
            if self._shard_pool is not None:
                self._shard_pool.close()
                self._shard_pool = None

    def __enter__(self) -> Database:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- statement / plan caches -------------------------------------------------

    def consistent_read(self):
        """Hold the shared (read) side of the statement lock over a block.

        Several SELECTs issued inside the block observe one data state: DML
        and DDL from any session wait until the block exits.  Reentrant with
        the per-statement read acquisition, so ordinary ``execute`` calls
        work unchanged inside.
        """
        return self._statement_lock.reading()

    def bump_stat(self, key: str) -> None:
        """Increment one observability counter (thread-safe)."""
        with self._stats_lock:
            self.stats[key] = self.stats.get(key, 0) + 1

    def _record_circuit_transition(self, old_state: str, new_state: str) -> None:
        if new_state == "open":
            self.bump_stat("circuit_opened")
        elif new_state == "half_open":
            self.bump_stat("circuit_half_open_probes")
        elif new_state == "closed":
            self.bump_stat("circuit_closed")

    def health(self) -> HealthReport:
        """Snapshot of the engine's execution health.

        Cheap and lock-light — intended for load balancers and the session
        layer's ``VerdictConnection.health_check()``.  ``status`` is
        ``"degraded"`` while the dispatch circuit is open (queries still
        answer correctly, via the serial path) and ``"ok"`` otherwise.
        Returns a typed :class:`~repro.health.HealthReport`.
        """
        circuit_state = self.circuit.state
        with self._pool_lock:
            pool = self._shard_pool
            workers_alive = pool.alive_workers() if pool is not None else 0
            published = pool.published_count() if pool is not None else 0
            pool_broken = bool(pool.broken) if pool is not None else False
        with self._stats_lock:
            stats = dict(self.stats)
        return HealthReport(
            status="degraded" if circuit_state == "open" else "ok",
            backend=type(self).__name__,
            engine={
                "exec_workers": self.exec_workers,
                "pool_workers_alive": workers_alive,
                "pool_broken": pool_broken,
                "published_tables": published,
                "live_segments": len(shardpool.ShardPool.live_segment_names()),
            },
            circuit={
                "state": circuit_state,
                "consecutive_failures": self.circuit.consecutive_failures,
            },
            stats=stats,
        )

    def _cached_statement(self, sql: str) -> ast.Statement:
        statement = self._statement_cache.get(sql)
        if statement is not None:
            self.bump_stat("statement_cache_hits")
            return statement
        statement = parser.parse(sql)
        if isinstance(statement, ast.SelectStatement):
            # Only SELECTs are filed (and counted): an INSERT's text is a
            # batch of row literals that never repeats, so caching it would
            # only evict statements that do.
            self.bump_stat("statement_cache_misses")
            self._statement_cache.put(sql, statement)
        return statement

    def _cached_plan(self, sql: str, statement: ast.SelectStatement) -> SelectPlan:
        plan = self._plan_cache.get(sql, self.catalog.version)
        if plan is not None:
            self.bump_stat("plan_cache_hits")
            return plan
        self.bump_stat("plan_cache_misses")
        # Plan under the shared lock, and file the plan under the version
        # observed inside it: a concurrent DDL/DML cannot mutate the catalog
        # mid-walk, and a plan can never be stored under a version bumped
        # after it was computed (which would make a stale plan pass the
        # freshness check forever).
        with self._statement_lock.reading():
            version = self.catalog.version
            plan = plan_select(statement, self.catalog)
        self._plan_cache.put(sql, plan, version)
        return plan

    # -- DDL / DML --------------------------------------------------------------

    def _execute_create(
        self,
        statement: ast.CreateTableStatement,
        params: Sequence | Mapping | None = None,
    ) -> ResultSet:
        if self.catalog.has(statement.table_name):
            if statement.if_not_exists:
                return ResultSet.empty([])
            raise CatalogError(f"table {statement.table_name!r} already exists")
        if statement.as_select is not None:
            result = self._executor(params).execute_select(statement.as_select)
            table = self.catalog.new_table(statement.table_name)
            for column_name, array in zip(result.column_names, result.columns()):
                table.add_column(column_name, array)
            # ``... ORDER BY col`` materializes the rows sorted by that
            # column: record the physical clustering so sharded aggregation
            # can cut group-aligned shards (kept only by appends that
            # preserve the order; cleared by any other DML).
            table.clustered_on = _clustering_from_select(
                statement.as_select, result.column_names
            )
            self.catalog.register(table)
            return ResultSet.empty([])
        table = self.catalog.new_table(statement.table_name)
        for column in statement.columns:
            dtype = _EMPTY_TYPES.get(column.type_name.lower(), object)
            table.add_column(column.name, np.array([], dtype=dtype))
        self.catalog.register(table)
        return ResultSet.empty([])

    def _execute_insert(
        self,
        statement: ast.InsertStatement,
        params: Sequence | Mapping | None = None,
    ) -> ResultSet:
        table = self.catalog.get(statement.table_name)
        column_names = statement.columns or table.column_names
        if statement.from_select is not None:
            result = self._executor(params).execute_select(statement.from_select)
            if len(result.column_names) != len(column_names):
                raise ExecutionError("INSERT ... SELECT has the wrong number of columns")
            table.append_columns(dict(zip(column_names, result.columns())))
            return ResultSet.empty([])
        rows = []
        for row_expressions in statement.rows:
            if len(row_expressions) != len(column_names):
                raise ExecutionError("INSERT row has the wrong number of values")
            rows.append(
                tuple(_literal_value(expression, params) for expression in row_expressions)
            )
        table.append_rows(column_names, rows)
        return ResultSet.empty([])


def _clustering_from_select(
    select: ast.SelectStatement, column_names: Sequence[str]
) -> str | None:
    """Clustered column of a ``CREATE TABLE AS SELECT`` result, or None.

    :func:`planner.ordering_target` supplies the shape rule; here the name
    must additionally match exactly one *result* column (which covers
    ``SELECT *`` expansions).
    The executor resolves the reference against the output alias or an
    identically valued input column — an ambiguous mismatch fails the query
    before any table is created — so the matching output column holds the
    sort key and is non-decreasing, NULLs last.
    """
    target = ordering_target(select)
    if target is None:
        return None
    matches = [name for name in column_names if name.lower() == target]
    return target if len(matches) == 1 else None


def _literal_value(
    expression: ast.Expression, params: Sequence | Mapping | None = None
) -> object:
    """Evaluate a constant expression appearing in an INSERT ... VALUES row."""
    frame = Frame(num_rows=1)
    frame.add_column(None, "__dummy", np.zeros(1, dtype=np.int64))
    context = functions.EvaluationContext(
        num_rows=1, rng=np.random.default_rng(0), params=params
    )
    value = evaluate(expression, frame, context)[0]
    if isinstance(value, np.generic):
        value = value.item()
    return value

"""Query executor: evaluates SELECT statements over the catalog.

The executor is deliberately a straightforward, vectorised implementation of
relational semantics: build a frame from the FROM clause (scans, derived
tables and hash joins), filter it with WHERE, group and aggregate, evaluate
the select list, then apply HAVING / ORDER BY / DISTINCT / LIMIT.  It exists
so the middleware has a realistic "underlying database" that executes the
rewritten SQL text exactly as written.

Joins take one of two paths that emit the same pairs in the same order
(left-major, right ascending).  When an equi pair has a column of a
base-table scan on one side that is a unique numeric key
(:meth:`Table.key_index`, cached per table version) and a numeric key on the
other, each probe key is looked up in that sorted index — a sample joined to
a dimension table then costs the sample, not the dimension table.  Every
other join hashes: both sides' keys are encoded together and the smaller
side is sorted and probed.  ``optimize=False`` and the shard workers always
hash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from repro.errors import CatalogError, ExecutionError, QueryCancelledError, QueryTimeoutError
from repro.faults import InjectedFault
from repro.sqlengine import (
    functions,
    partialagg,
    planner as logical_planner,
    shardpool,
    sqlast as ast,
)
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.encoding import merge_dictionaries, normalize_object_key
from repro.sqlengine.expressions import (
    Frame,
    LazyCodes,
    ScanSource,
    contains_aggregate,
    encode_grouping_key,
    evaluate,
    group_rows_encoded,
)
from repro.sqlengine.planner import SelectPlan
from repro.sqlengine.resultset import ResultSet
from repro.sqlengine.table import KeyIndex, Table, find_sorted
from repro.sqlengine.zonemaps import bind_zone_predicates


# Default process-mode dispatch admission threshold: below this many rows per
# shard, fork/pipe/merge overhead exceeds the per-shard work and dispatching
# loses to the serial path outright (the honestly-recorded 0.74x on 2-core
# boxes).  Setting ``Database.min_shard_rows = 0`` disables the gate.
DEFAULT_MIN_SHARD_ROWS = 2048

# A join's build side is re-materialized (whole) per shard; past this many
# rows the duplicated build work and memory dominate and the query stays
# serial.
JOIN_BUILD_ROW_BOUND = 1 << 18

# Process-unique tokens keying published dispatch specs in the shard pool's
# cross-process plan cache (never reused, so a recycled ``SelectPlan`` can
# never alias another statement's published spec).
_plan_tokens = itertools.count()


@dataclass
class _ShardSpec:
    """Frozen parallel-dispatch spec for one statement at one data version.

    Cached on ``SelectPlan.shard_spec`` (plans are cached 1:1 with their
    statements) and keyed on catalog/table versions, so re-executions of a
    prepared statement skip the whole eligibility derivation — group-key
    classification, aggregate classification.  ``worker_spec`` is the
    statement-derived half of every task; in process mode it is pickled once
    (``payload``) and published into the pool's shared-memory plan cache,
    after which each dispatch ships only segment names, the shard's row
    ranges and bound parameters.

    The row ranges are the one part that may depend on the parameters (zone
    pruning with bound operands): ``layout`` memoises the last
    ``(bound zone predicates, per-shard ranges)`` pair, so a statement whose
    zone operands are all literals — or are re-bound to the same values —
    places its shard boundaries once.
    """

    statement: object
    key: tuple
    worker_spec: dict
    tables: list  # [probe Table] or [probe Table, build Table]
    specs: list
    group_sources: list  # per key: ("column", side, stored_name) | ("expr",)
    zone_predicates: list  # the probe scan's, possibly with placeholder operands
    aligned_column: str | None
    scalar: bool
    is_join: bool
    has_expr_keys: bool
    token: int = field(default_factory=lambda: next(_plan_tokens))
    payload: bytes | None = None
    layout: tuple | None = None

    @property
    def aligned(self) -> bool:
        return self.aligned_column is not None

    def payload_bytes(self) -> bytes:
        if self.payload is None:
            import multiprocessing.reduction

            self.payload = bytes(
                multiprocessing.reduction.ForkingPickler.dumps(self.worker_spec)
            )
        return self.payload


class _JoinCounter:
    """Numbers join nodes in pre-order during frame building.

    The planner numbers joins with the same traversal
    (``planner._joins_preorder``), so ``SelectPlan.join_residuals`` entries
    line up with the joins the executor encounters.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def next(self) -> int:
        index = self.value
        self.value += 1
        return index


class Executor:
    """Evaluates SELECT statements against a catalog.

    With ``optimize=True`` each SELECT is first analyzed by
    :mod:`repro.sqlengine.planner`: single-table WHERE conjuncts are applied
    at the scans (before joins), scans materialize only referenced columns,
    string key columns carry memoized dictionary codes used by grouping,
    joining and sorting, and joins on a unique numeric key probe the table's
    key index.  ``optimize=False`` executes naively; both modes produce
    identical results.
    """

    def __init__(
        self,
        catalog: Catalog,
        rng: np.random.Generator,
        optimize: bool = True,
        params: object | None = None,
        count: Callable[[str], None] | None = None,
        exec_workers: int = 0,
        shard_pool: Callable[[], object] | None = None,
        deadline: object | None = None,
        faults: object | None = None,
        circuit: object | None = None,
        min_shard_rows: int = 0,
    ) -> None:
        self._catalog = catalog
        self._rng = rng
        self._optimize = optimize
        # Observability: the owning Database passes its lock-guarded
        # incrementer (``bump_stat``) so tests and benchmarks can assert
        # which fast path actually ran and concurrent SELECTs over one shared
        # engine never lose increments.
        self._count_stat = count
        # Process-sharded aggregation (``Database(parallel_exec=...)``):
        # 1 = in-thread sharded mode (exercises the partial-aggregation merge
        # with no processes), >= 2 = dispatch to the shared-memory worker
        # pool produced by the lazy factory.
        self._exec_workers = exec_workers
        self._shard_pool = shard_pool
        # Process-mode dispatch admission floor (rows per shard); 0 disables.
        # The in-thread sharded mode ignores it — that mode exists to
        # exercise the merge algebra on small fixtures, not to go fast.
        self._min_shard_rows = min_shard_rows
        # Bound query-parameter values for Placeholder expressions; threaded
        # into every evaluation context (including scalar subqueries and
        # precomputed derived-table plans) so one cached plan serves every
        # parameter set.
        self._params = params
        # Resilience wiring (round 7): the per-query cooperative deadline,
        # the engine's fault injector (inert unless configured) and the
        # dispatch circuit breaker over the shard pool.
        self._deadline = deadline
        self._faults = faults
        self._circuit = circuit

    def _context(self, num_rows: int) -> functions.EvaluationContext:
        return functions.EvaluationContext(
            num_rows=num_rows,
            rng=self._rng,
            params=self._params,
            deadline=self._deadline,
            faults=self._faults,
        )

    def _bound_zones(self, predicates):
        """Zone predicates with placeholder operands resolved for this call."""
        return bind_zone_predicates(predicates, self._context(0).param_value)

    def _checkpoint(self) -> None:
        """Cooperative cancellation point (hot loops call this per unit of work)."""
        if self._faults is not None:
            self._faults.fire("executor.checkpoint")
        if self._deadline is not None:
            self._deadline.check()

    def _count(self, key: str) -> None:
        if self._count_stat is not None:
            self._count_stat(key)

    # -- entry points --------------------------------------------------------

    def execute_select(
        self, statement: ast.SelectStatement, plan: SelectPlan | None = None
    ) -> ResultSet:
        self._checkpoint()
        if self._optimize and plan is None:
            plan = logical_planner.plan_select(statement, self._catalog)
        if self._optimize and self._exec_workers:
            # Process-sharded (or in-thread sharded) partial aggregation:
            # single-table grouped/scalar aggregation over shardable inputs
            # is split into per-shard states and merged bit-identically; any
            # ineligible shape — or a merge that cannot prove exactness —
            # returns None and the serial path below computes the result.
            fast = self._try_parallel_aggregate(statement, plan)
            if fast is not None:
                return fast
        frame = self._build_frame(statement.from_relation, plan)
        context = self._context(frame.num_rows)

        where = plan.residual_where if plan is not None else statement.where
        if where is not None:
            mask = evaluate(where, frame, context, self._scalar_subquery)
            frame = frame.filter(mask)
            context = self._context(frame.num_rows)

        has_aggregates = bool(statement.group_by) or any(
            contains_aggregate(item.expression)
            for item in statement.select_items
            if not isinstance(item.expression, ast.Star)
        )
        if statement.having is not None and not has_aggregates:
            has_aggregates = True

        if has_aggregates:
            return self._execute_grouped(statement, frame, context, plan)
        return self._execute_plain(statement, frame, context)

    def _scalar_subquery(self, statement: ast.SelectStatement) -> object:
        result = self.execute_select(statement)
        return result.scalar()

    # -- process-sharded aggregation ------------------------------------------

    def _try_parallel_aggregate(
        self, statement: ast.SelectStatement, plan: SelectPlan | None
    ) -> ResultSet | None:
        """Answer a grouped/scalar aggregation via shard merge.

        Three dispatch tiers, all provably bit-identical or refused:

        * single-table aggregation over bare-column *or* deterministic
          expression group keys (expressions are row-local, evaluated
          per-shard and merged on the same normalized key forms the serial
          ``encode_grouping_key`` uses);
        * one INNER single-equi-key hash join whose build side fits
          ``JOIN_BUILD_ROW_BOUND``: the build table is broadcast through the
          shared-memory publish path and joined against each probe shard in
          the serial evaluation order (``hash_join_indices`` emits canonical
          left-major pairs, so shard concatenation reproduces the serial
          joined row order exactly);
        * anything group-aligned — any bare probe group key matching the
          probe table's clustering — which admits every row-local aggregate.

        Eligibility derivation is cached on ``plan.shard_spec`` keyed by
        catalog/table versions, and the frozen worker spec is published once
        into the pool's cross-process plan cache — a repeated
        prepared-statement execution ships only segment names, row ranges and
        bound parameters.  Every other shape returns None and the serial
        path computes the identical result, as does any dispatch where the
        merge raises :class:`~repro.sqlengine.partialagg.ParallelFallback`.
        """
        if plan is None:
            return None
        if (
            self._circuit is not None
            and self._exec_workers >= 2
            and not self._circuit.allow()
        ):
            # Open circuit: the serial path wins before any classification,
            # publication check or pickling work is spent on this query.
            self._count("circuit_short_circuits")
            return None
        spec = self._shard_dispatch_spec(statement, plan)
        if spec is None:
            return None
        shards = self._shard_ranges(spec)
        if shards is None:
            return None
        worker = spec.worker_spec
        in_thread = self._exec_workers == 1
        pool = None
        if not in_thread:
            if self._shard_pool is None:
                return None
            pool = self._shard_pool()
            if pool is None:
                return None

        try:
            if in_thread:
                store = shardpool.table_column_store(spec.tables[0], worker["columns"])
                build_store = None
                join = worker.get("join")
                if join is not None:
                    build_store = shardpool.table_column_store(
                        spec.tables[1], join["columns"]
                    )
                rng = np.random.default_rng(0)
                states = []
                for ranges in shards:
                    task = dict(worker)
                    task["ranges"] = ranges
                    task["params"] = self._params
                    states.append(
                        shardpool.run_shard_task(store, task, rng, build_store)
                    )
            else:
                with pool.lock:
                    published = []
                    for side, table in enumerate(spec.tables):
                        result, fresh = pool.ensure_published(
                            table, self._catalog.version, faults=self._faults
                        )
                        if result is None:
                            self._count("parallel_exec_fallbacks")
                            return None
                        if fresh:
                            self._count("shard_publications")
                        side_columns = (
                            worker["columns"] if side == 0
                            else worker["join"]["columns"]
                        )
                        for column in side_columns:
                            if (
                                table.column_chunks(column)[0].dtype == object
                                and column not in result.faithful
                            ):
                                # Dictionary reconstruction would change the
                                # raw values (non-string objects normalize
                                # lossily).
                                self._count("parallel_exec_fallbacks")
                                return None
                        published.append(result)
                    plan_name, plan_fresh = pool.publish_plan(
                        (spec.token,), spec.payload_bytes()
                    )
                    self._count(
                        "plan_cache_shm_publications"
                        if plan_fresh
                        else "plan_cache_shm_hits"
                    )
                    tasks = [
                        {
                            "plan": plan_name,
                            "segment": published[0].key[-1],
                            "ranges": ranges,
                            "params": self._params,
                        }
                        for ranges in shards
                    ]
                    if len(published) == 2:
                        for task in tasks:
                            task["join_segment"] = published[1].key[-1]
                    states = pool.run_tasks(
                        tasks, deadline=self._deadline, faults=self._faults
                    )
                if self._circuit is not None:
                    self._circuit.record_success()
            merged = partialagg.merge_shard_states(
                states, spec.specs, scalar=spec.scalar, aligned=spec.aligned
            )
        except (QueryTimeoutError, QueryCancelledError):
            raise  # a cancelled query must not silently continue serially
        except partialagg.ParallelFallback:
            self._count("parallel_exec_fallbacks")
            return None
        except (shardpool.ShardPoolError, InjectedFault):
            # Dispatch infrastructure failed (after the pool's own
            # respawn+retry): fall back serially and feed the breaker.
            self._count("parallel_exec_fallbacks")
            self._count("dispatch_failures")
            if pool is not None and self._circuit is not None:
                self._circuit.record_failure()
            return None
        # repro: ignore[REP004] -- a shard raised mid-evaluation (e.g.
        # per-value semantics over a pathological column); the serial path
        # re-runs the query and either raises the canonical typed error or
        # computes the answer, so nothing is swallowed.
        except Exception:
            self._count("parallel_exec_fallbacks")
            return None

        key_dtypes = states[0].key_dtypes if states else []
        if any(state.key_dtypes != key_dtypes for state in states):
            # An expression key promoted to different dtypes on different
            # shards (value-dependent promotion): the serial single-pass
            # dtype is not reproducible from the shard states.
            self._count("parallel_exec_fallbacks")
            return None

        num_groups = merged.num_groups
        post_frame = Frame(num_rows=num_groups)
        for position, source in enumerate(spec.group_sources):
            if source[0] == "column":
                _, side, stored = source
                table = spec.tables[side]
                dtype = table.column_chunks(stored)[0].dtype
                encoded = table.dictionary_codes(stored)
            else:
                # Expression key: the serial path evaluates it over the full
                # frame; the shards' (unanimous) evaluation dtype is that
                # same dtype, and expression keys carry no dictionary codes
                # (matching the serial ``_key_encoding`` ruling).
                dtype = (
                    np.dtype(key_dtypes[position])
                    if position < len(key_dtypes)
                    else np.dtype(object)
                )
                encoded = None
            values = np.empty(num_groups, dtype=dtype)
            for index, rep in enumerate(merged.reps):
                values[index] = rep[position]
            codes = None
            if encoded is not None:
                group_codes = np.fromiter(
                    (rep_code[position] for rep_code in merged.rep_codes),
                    dtype=np.int64,
                    count=num_groups,
                )
                codes = LazyCodes.presolved(group_codes, encoded[1])
            post_frame.add_column(None, f"__group_{position}", values, codes=codes)
        for position, aggregate in enumerate(merged.aggregates):
            post_frame.add_column(None, f"__agg_{position}", aggregate)
        self._count("parallel_exec_dispatches")
        if spec.is_join:
            self._count("parallel_exec_join_dispatches")
        if spec.has_expr_keys:
            self._count("parallel_exec_expr_key_dispatches")
        memo = self._grouped_memo(statement, plan)
        return self._finish_grouped(statement, memo, post_frame, num_groups)

    def _shard_dispatch_spec(
        self, statement: ast.SelectStatement, plan: SelectPlan
    ) -> _ShardSpec | None:
        """The statement's cached dispatch spec, or None when ineligible.

        The derivation — group-key classification, aggregate classification —
        is a pure function of the statement and the (catalog version, table
        versions, worker count) key, so its result (including a negative
        one) is cached on the plan and re-executions of a prepared statement
        skip it entirely.  Shard boundary placement, which zone pruning makes
        parameter-dependent, is :meth:`_shard_ranges`.
        """
        relation = statement.from_relation
        if isinstance(relation, ast.TableRef):
            refs = [relation]
        elif (
            isinstance(relation, ast.Join)
            and relation.join_type == "INNER"
            and relation.condition is not None
            and isinstance(relation.left, ast.TableRef)
            and isinstance(relation.right, ast.TableRef)
        ):
            refs = [relation.left, relation.right]
        else:
            return None
        try:
            tables = [self._catalog.get(ref.name) for ref in refs]
        except CatalogError:
            return None
        key = (
            self._catalog.version,
            self._exec_workers,
            tuple(table.version for table in tables),
        )
        cached = plan.shard_spec
        if cached is not None and cached[0] is statement and cached[1] == key:
            return cached[2]
        spec = self._derive_shard_spec(statement, plan, relation, refs, tables)
        if spec is not None:
            spec.key = key
        plan.shard_spec = (statement, key, spec)
        return spec

    def _derive_shard_spec(
        self,
        statement: ast.SelectStatement,
        plan: SelectPlan,
        relation,
        refs: list,
        tables: list,
    ) -> _ShardSpec | None:
        for item in statement.select_items:
            if isinstance(item.expression, ast.Star):
                return None  # the serial path raises the canonical error
        has_aggregates = (
            bool(statement.group_by)
            or statement.having is not None
            or any(
                contains_aggregate(item.expression)
                for item in statement.select_items
            )
        )
        if not has_aggregates:
            return None

        probe_table = tables[0]
        bindings = [ref.binding_name for ref in refs]
        if len(bindings) == 2 and bindings[0].lower() == bindings[1].lower():
            return None

        def resolve_ref(ref: ast.ColumnRef):
            """(side, stored column) for one reference, or None.

            Unqualified names that resolve on both sides fall back: the
            serial frame tolerates that ambiguity only when both columns
            hold identical data — a data-dependent ruling the workers
            cannot replay.
            """
            if ref.table is not None:
                for side, binding in enumerate(bindings):
                    if ref.table.lower() == binding.lower():
                        column = tables[side].resolve_column(ref.name)
                        return None if column is None else (side, column)
                return None
            matches = [
                (side, column)
                for side, table in enumerate(tables)
                if (column := table.resolve_column(ref.name)) is not None
            ]
            return matches[0] if len(matches) == 1 else None

        needed: list[set] = [set() for _ in tables]

        join_pair = None
        if len(refs) == 2:
            build_table = tables[1]
            if build_table.num_rows > JOIN_BUILD_ROW_BOUND:
                # The build side is re-materialized whole in every shard;
                # past the bound that duplicated work dominates.
                return None
            condition = relation.condition
            if plan.join_residuals is not None:
                # The planner numbered this (single) join 0 in pre-order;
                # single-side ON conjuncts were already pushed to the scans.
                condition = plan.join_residuals.get(0, relation.condition)
            pairs, residual = _split_join_refs(condition, tables, bindings)
            if len(pairs) != 1 or residual is not None:
                return None
            join_pair = pairs[0]
            needed[0].add(probe_table.resolve_column(join_pair[0].name))
            needed[1].add(build_table.resolve_column(join_pair[1].name))

        clustered = probe_table.clustered_on
        group_keys: list = []
        group_sources: list[tuple] = []
        aligned_column = None
        has_expr_keys = False
        for expr in statement.group_by:
            if isinstance(expr, ast.ColumnRef):
                resolved = resolve_ref(expr)
                if resolved is None:
                    return None
                side, column = resolved
                group_keys.append((expr.name, expr.table or bindings[side]))
                group_sources.append(("column", side, column))
                needed[side].add(column)
                if (
                    side == 0
                    and clustered is not None
                    and clustered.lower() == column.lower()
                ):
                    # Any bare clustered probe key makes the sharding
                    # group-aligned: boundaries sit on its value changes, so
                    # no composite group can span two shards (and joined
                    # rows inherit their probe row's shard).
                    aligned_column = column
            else:
                if not _row_local(expr):
                    return None
                column_refs = [
                    node for node in expr.walk()
                    if isinstance(node, ast.ColumnRef)
                ]
                if not column_refs:
                    return None
                for ref in column_refs:
                    resolved = resolve_ref(ref)
                    if resolved is None:
                        return None
                    needed[resolved[0]].add(resolved[1])
                group_keys.append(expr)
                group_sources.append(("expr",))
                has_expr_keys = True
        aligned = aligned_column is not None

        # The serial evaluation order is (pushed scan conjuncts, join,
        # residual WHERE); workers replay exactly that, so a later stage can
        # never evaluate rows an earlier one removed.  The build side skips
        # zone pruning and re-applies its full pushed conjunction instead —
        # zone predicates are classified *from* ``scan.predicates``, so the
        # pruned rows are exactly rows the filter removes anyway.
        scans = [plan.scan_for(binding) for binding in bindings]
        predicates: list[ast.Expression] = []
        probe_predicate = build_predicate = None
        if join_pair is None:
            if scans[0] is not None and scans[0].predicates:
                predicates.append(ast.conjunction(scans[0].predicates))
        else:
            if scans[0] is not None and scans[0].predicates:
                probe_predicate = ast.conjunction(scans[0].predicates)
            if scans[1] is not None and scans[1].predicates:
                build_predicate = ast.conjunction(scans[1].predicates)
        if plan.residual_where is not None:
            predicates.append(plan.residual_where)
        stages = [
            stage for stage in (probe_predicate, build_predicate)
            if stage is not None
        ]
        stages.extend(predicates)
        if any(not _row_local(stage) for stage in stages):
            return None

        def column_dtype(ref: ast.ColumnRef):
            resolved = resolve_ref(ref)
            if resolved is None:
                return None
            side, column = resolved
            return tables[side].column_chunks(column)[0].dtype

        memo = self._grouped_memo(statement, plan)
        specs: list[partialagg.AggSpec] = []
        for node in memo.aggregate_nodes.values():
            spec = partialagg.classify_aggregate(
                node, column_dtype, aligned, _row_local
            )
            if spec is None:
                return None
            specs.append(spec)

        # Columns the shards touch; every reference must resolve here so the
        # worker-side frame never discovers a missing column mid-task.
        referenced: list[ast.Expression] = list(stages)
        for spec in specs:
            referenced.extend(
                argument for argument in spec.args
                if not isinstance(argument, ast.Star)
            )
        for expression in referenced:
            for node in expression.walk():
                if isinstance(node, ast.ColumnRef):
                    resolved = resolve_ref(node)
                    if resolved is None:
                        return None
                    needed[resolved[0]].add(resolved[1])

        worker_spec = {
            "binding": bindings[0],
            "columns": sorted(needed[0]),
            "predicates": predicates,
            "group_columns": group_keys,
            "specs": specs,
        }
        if join_pair is not None:
            worker_spec["join"] = {
                "binding": bindings[1],
                "columns": sorted(needed[1]),
                "probe_predicate": probe_predicate,
                "build_predicate": build_predicate,
                "left_key": join_pair[0],
                "right_key": join_pair[1],
                "build_rows": tables[1].num_rows,
            }
        return _ShardSpec(
            statement=statement,
            key=(),
            worker_spec=worker_spec,
            tables=list(tables),
            specs=specs,
            group_sources=group_sources,
            zone_predicates=scans[0].zone_predicates if scans[0] is not None else [],
            aligned_column=aligned_column,
            scalar=not statement.group_by,
            is_join=join_pair is not None,
            has_expr_keys=has_expr_keys,
        )

    def _shard_ranges(self, spec: _ShardSpec) -> list[list[tuple[int, int]]] | None:
        """Per-shard absolute row ranges for this execution, or None.

        None means the (pruned) input cannot fill two shards of
        ``min_shard_rows`` rows and the query should run serially.
        """
        zones = tuple(self._bound_zones(spec.zone_predicates))
        layout = spec.layout  # read once: concurrent executions may replace it
        if layout is not None and layout[0] == zones:
            return layout[1]
        shards = self._place_shards(spec.tables[0], zones, spec.aligned_column)
        spec.layout = (zones, shards)
        return shards

    def _place_shards(
        self, probe_table: Table, zones: tuple, aligned_column: str | None
    ) -> list[list[tuple[int, int]]] | None:
        # The same zone-map pruning the serial probe scan applies: shards
        # cover the surviving chunks in chunk order, so the concatenated
        # shard row order is the serial frame's row order.
        surviving = probe_table.prune_chunks(zones) if zones else None
        chunk_rows = probe_table.chunk_rows
        if surviving is None:
            total = probe_table.num_rows
            lengths = cumulative = None
        else:
            lengths = (
                np.minimum((surviving + 1) * chunk_rows, probe_table.num_rows)
                - surviving * chunk_rows
            )
            cumulative = np.cumsum(lengths) if len(lengths) else np.zeros(0, dtype=np.int64)
            total = int(lengths.sum()) if len(lengths) else 0

        def to_absolute(virtual: int) -> int:
            if surviving is None:
                return virtual
            position = int(np.searchsorted(cumulative, virtual, side="right"))
            prior = int(cumulative[position - 1]) if position else 0
            return int(surviving[position]) * chunk_rows + (virtual - prior)

        def virtual_ranges(start: int, stop: int) -> list[tuple[int, int]]:
            if start >= stop:
                return []
            if surviving is None:
                return [(start, stop)]
            ranges: list[tuple[int, int]] = []
            position = int(np.searchsorted(cumulative, start, side="right"))
            virtual = start
            while virtual < stop:
                prior = int(cumulative[position - 1]) if position else 0
                chunk_id = int(surviving[position])
                offset = virtual - prior
                span = min(int(lengths[position]) - offset, stop - virtual)
                absolute = chunk_id * chunk_rows + offset
                if ranges and ranges[-1][1] == absolute:
                    # Adjacent surviving chunks: one slice instead of two.
                    ranges[-1] = (ranges[-1][0], absolute + span)
                else:
                    ranges.append((absolute, absolute + span))
                virtual += span
                position += 1
            return ranges

        if self._exec_workers == 1:
            num_shards = 2
        else:
            # One shard per pool worker, but keep every shard above the
            # admission threshold: below it the fork/pipe/merge overhead
            # beats the per-shard work and dispatching loses to the serial
            # path.
            num_shards = max(2, self._exec_workers)
            if self._min_shard_rows > 0:
                if total // self._min_shard_rows < 2:
                    return None
                num_shards = min(num_shards, total // self._min_shard_rows)

        bounds = [total * index // num_shards for index in range(num_shards + 1)]
        if aligned_column is not None and total:
            # Place shard boundaries on key-value changes so no group spans
            # two shards; a wrong promise (duplicate key at merge time) still
            # falls back, so correctness never depends on this metadata.
            encoded_key = probe_table.dictionary_codes(aligned_column)
            key_values = (
                encoded_key[0] if encoded_key is not None
                else probe_table.column(aligned_column)
            )

            def key_equal(a: int, b: int) -> bool:
                left, right = key_values[a], key_values[b]
                if left == right:
                    return True
                try:
                    return bool(np.isnan(left)) and bool(np.isnan(right))
                except TypeError:
                    return False

            adjusted = [0]
            for bound in bounds[1:-1]:
                candidate = max(bound, adjusted[-1])
                while 0 < candidate < total and key_equal(
                    to_absolute(candidate - 1), to_absolute(candidate)
                ):
                    candidate += 1
                adjusted.append(min(candidate, total))
            adjusted.append(total)
            bounds = adjusted
        return [
            virtual_ranges(bounds[index], bounds[index + 1])
            for index in range(num_shards)
        ]

    # -- FROM clause ----------------------------------------------------------

    def _build_frame(
        self,
        relation: ast.Relation | None,
        plan: SelectPlan | None = None,
        joins: _JoinCounter | None = None,
    ) -> Frame:
        if joins is None:
            joins = _JoinCounter()
        if relation is None:
            # SELECT without FROM: a single anonymous row.
            frame = Frame(num_rows=1)
            frame.add_column(None, "__dummy", np.zeros(1, dtype=np.int64))
            return frame
        if isinstance(relation, ast.TableRef):
            table = self._catalog.get(relation.name)
            scan = plan.scan_for(relation.binding_name) if plan is not None else None
            wanted = scan.columns if scan is not None else None
            # Zone-map chunk skipping: evaluate the plan-time-classified
            # conjuncts against per-chunk min/max summaries and materialize
            # only the chunks that could hold a matching row.  Skipped
            # chunks provably contain no matches, so filtering the surviving
            # rows with the full conjunction below is bit-identical to the
            # naive full-column scan.
            surviving = None
            if self._optimize and scan is not None and scan.zone_predicates:
                surviving = table.prune_chunks(self._bound_zones(scan.zone_predicates))
            # Row indices covered by the surviving chunks, built only if an
            # object column's dictionary codes are actually resolved (an
            # all-numeric pruned scan never pays the O(selected rows) array).
            selection_cache: list[np.ndarray] = []

            def chunk_selection() -> np.ndarray:
                if not selection_cache:
                    selection_cache.append(table.chunk_row_indices(surviving))
                return selection_cache[0]

            frame = Frame()
            for column_name in table.column_names:
                if wanted is not None and column_name.lower() not in wanted:
                    continue
                self._checkpoint()  # per-column scan materialization
                if surviving is None:
                    array = table.column(column_name)
                else:
                    array = table.gather_chunks(column_name, surviving)
                codes = None
                if self._optimize and array.dtype == object:
                    if surviving is None:
                        codes = LazyCodes(
                            lambda t=table, n=column_name: t.dictionary_codes(n)
                        )
                    else:
                        def sliced_codes(t=table, n=column_name):
                            full_codes, dictionary = t.dictionary_codes(n)
                            return full_codes[chunk_selection()], dictionary

                        codes = LazyCodes(sliced_codes)
                frame.add_column(relation.binding_name, column_name, array, codes=codes)
            if not frame.entries():
                frame.num_rows = (
                    _chunk_row_count(table, surviving)
                    if surviving is not None
                    else table.num_rows
                )
            mask = self._scan_mask(frame, scan)
            if mask is not None:
                frame = frame.filter(mask)
            frame.source = ScanSource(table, _scan_rows(surviving, chunk_selection, mask))
            return frame
        if isinstance(relation, ast.DerivedTable):
            derived = plan.derived_for(relation.binding_name) if plan is not None else None
            if derived is not None:
                # Execute the planner's rewritten subquery (outer conjuncts
                # folded into its WHERE, unused outputs pruned) with its
                # precomputed plan instead of re-planning per execution.
                result = self.execute_select(derived.statement, plan=derived.plan)
            else:
                result = self.execute_select(relation.query)
            frame = Frame()
            # Reuse the dictionary codes the subquery propagated for its
            # output columns (round 3a): the outer aggregation then groups,
            # joins, sorts and compares on the inherited codes instead of
            # re-encoding the string group keys on every execution.
            encodings = result.encodings() if self._optimize else None
            for position, (column_name, array) in enumerate(
                zip(result.column_names, result.columns())
            ):
                codes = encodings[position] if encodings is not None else None
                frame.add_column(relation.alias, column_name, array, codes=codes)
            if not frame.entries():
                frame.num_rows = result.num_rows
            scan = plan.scan_for(relation.binding_name) if plan is not None else None
            mask = self._scan_mask(frame, scan)
            return frame if mask is None else frame.filter(mask)
        if isinstance(relation, ast.Join):
            return self._build_join(relation, plan, joins)
        raise ExecutionError(f"unsupported relation type {type(relation).__name__}")

    def _scan_mask(self, frame: Frame, scan) -> np.ndarray | None:
        """Row mask of a scan's pushed-down WHERE conjuncts (None: keep all)."""
        if scan is None or not scan.predicates:
            return None
        self._checkpoint()
        predicate = ast.conjunction(scan.predicates)
        context = self._context(frame.num_rows)
        return evaluate(predicate, frame, context, self._scalar_subquery)

    def _build_join(
        self,
        join: ast.Join,
        plan: SelectPlan | None = None,
        joins: _JoinCounter | None = None,
    ) -> Frame:
        if join.join_type not in ("INNER", "CROSS"):
            raise ExecutionError(f"{join.join_type} joins are not supported")
        if joins is None:
            joins = _JoinCounter()
        index = joins.next()
        left = self._build_frame(join.left, plan, joins)
        right = self._build_frame(join.right, plan, joins)
        self._checkpoint()  # before the join's hash-table build
        context = self._context(left.num_rows)

        condition = join.condition
        if plan is not None and plan.join_residuals is not None:
            # Single-side conjuncts were already applied at the scans; only
            # the equi-join/cross-relation residual remains here.
            condition = plan.join_residuals.get(index, join.condition)
        equi_pairs, residual = _split_join_condition(condition, left, right)
        if not equi_pairs:
            left_indices, right_indices = _cross_join_indices(left.num_rows, right.num_rows)
        else:
            left_keys = [
                evaluate(expr, left, context, self._scalar_subquery) for expr, _ in equi_pairs
            ]
            right_context = self._context(right.num_rows)
            right_keys = [
                evaluate(expr, right, right_context, self._scalar_subquery)
                for _, expr in equi_pairs
            ]
            left_encodings = [_key_encoding(expr, left) for expr, _ in equi_pairs]
            right_encodings = [_key_encoding(expr, right) for _, expr in equi_pairs]
            matched = None
            if self._optimize:
                matched = self._key_index_join(
                    equi_pairs, left, right, left_keys, right_keys,
                    left_encodings, right_encodings,
                )
            if matched is not None:
                left_indices, right_indices = matched
            else:
                left_indices, right_indices = hash_join_indices(
                    left_keys,
                    right_keys,
                    left_encodings,
                    right_encodings,
                    prefer_smaller_build=self._optimize,
                )

        joined = Frame.concat(left.take(left_indices), right.take(right_indices))
        if residual is not None:
            joined_context = self._context(joined.num_rows)
            mask = evaluate(residual, joined, joined_context, self._scalar_subquery)
            joined = joined.filter(mask)
        return joined

    def _key_index_join(
        self,
        equi_pairs: list[tuple[ast.ColumnRef, ast.ColumnRef]],
        left: Frame,
        right: Frame,
        left_keys: list[np.ndarray],
        right_keys: list[np.ndarray],
        left_encodings: list,
        right_encodings: list,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The hash join's pairs, found through a table's unique-key index.

        Applies when one equi pair has, on one side, a column of a base-table
        scan that :meth:`Table.key_index` finds unique, and a numeric key on
        the other side; when both sides of the first such pair qualify, the
        side with more rows is indexed.  Each probe key matches at most one
        indexed row, so the lookup is one ``searchsorted`` instead of
        re-encoding both inputs.  The other pairs are compared on the matched
        rows with the hash join's own encoding, and the pairs come out in the
        hash join's canonical order (left-major, right ascending).  Returns
        None when no pair qualifies.
        """
        chosen = None
        for position, (left_ref, right_ref) in enumerate(equi_pairs):
            sides = [
                (side, frame, index)
                for side, frame, ref, probe in (
                    (0, left, left_ref, right_keys[position]),
                    (1, right, right_ref, left_keys[position]),
                )
                if probe.dtype.kind in "iufb"
                and (index := self._scan_key_index(frame, ref)) is not None
            ]
            if sides:
                chosen = position, max(sides, key=lambda entry: entry[1].num_rows)
                break
        if chosen is None:
            return None
        position, (side, indexed, index) = chosen
        self._checkpoint()  # after a possible index build, before probing
        probe = (right_keys if side == 0 else left_keys)[position]
        probe_rows, table_rows = index.lookup(probe.astype(np.float64, copy=False))
        rows = indexed.source.rows
        if rows is None:
            indexed_rows = table_rows
        else:
            # Table rows -> rows of the (pruned, filtered) scan frame.
            kept, indexed_rows = find_sorted(rows, table_rows)
            probe_rows = probe_rows[kept]
        if side == 0:
            left_indices, right_indices = indexed_rows, probe_rows
        else:
            left_indices, right_indices = probe_rows, indexed_rows
        others = [other for other in range(len(equi_pairs)) if other != position]
        if others:
            left_codes, right_codes = _encode_key_pairs(
                [left_keys[other][left_indices] for other in others],
                [right_keys[other][right_indices] for other in others],
                [_sliced_encoding(left_encodings[other], left_indices) for other in others],
                [_sliced_encoding(right_encodings[other], right_indices) for other in others],
            )
            equal = left_codes == right_codes
            left_indices, right_indices = left_indices[equal], right_indices[equal]
        if side == 0:
            # Probed in right order: restore left-major, right ascending within.
            order = np.argsort(left_indices, kind="stable")
            left_indices, right_indices = left_indices[order], right_indices[order]
        self._count("key_index_joins")
        return left_indices, right_indices

    def _scan_key_index(self, frame: Frame, ref: ast.ColumnRef) -> KeyIndex | None:
        """The unique-key index behind a bare base-table scan column, or None."""
        if frame.source is None:
            return None
        table = frame.source.table
        column = table.resolve_column(ref.name)
        if column is None:
            return None
        return table.key_index(
            column, on_build=lambda: self._count("key_index_builds")
        )

    # -- plain (non-aggregate) SELECT -----------------------------------------

    def _execute_plain(
        self,
        statement: ast.SelectStatement,
        frame: Frame,
        context: functions.EvaluationContext,
    ) -> ResultSet:
        column_names: list[str] = []
        columns: list[np.ndarray] = []
        # Lazy dictionary codes of each output column: consumed by DISTINCT
        # (grouping on the existing rank codes instead of re-running
        # ``np.unique``) and propagated on the result set so derived tables
        # hand their string columns to the outer query pre-encoded.
        encodings: list[LazyCodes | None] | None = [] if self._optimize else None
        alias_frame = Frame(num_rows=frame.num_rows)
        for binding, name, array, codes in frame.entries_with_codes():
            alias_frame.add_column(binding, name, array, codes=codes)

        for position, item in enumerate(statement.select_items):
            if isinstance(item.expression, ast.Star):
                for binding, name, array, codes in frame.entries_with_codes():
                    if item.expression.table and (
                        binding is None or binding.lower() != item.expression.table.lower()
                    ):
                        continue
                    column_names.append(name)
                    columns.append(array)
                    if encodings is not None:
                        encodings.append(codes)
                continue
            array = evaluate(item.expression, frame, context, self._scalar_subquery)
            name = item.output_name(position)
            column_names.append(name)
            columns.append(array)
            if encodings is not None:
                encodings.append(_lazy_key_encoding(item.expression, frame))
            alias_frame.add_column(None, name, array)

        order_indices = self._order_indices(statement, alias_frame, context)
        if order_indices is not None:
            columns = [column[order_indices] for column in columns]
            if encodings is not None:
                encodings = [
                    None if encoded is None else encoded.sliced(order_indices)
                    for encoded in encodings
                ]

        result = ResultSet(column_names, columns, encodings=encodings)
        if statement.distinct:
            resolved = (
                [None if encoded is None else encoded.resolve() for encoded in encodings]
                if encodings is not None
                else None
            )
            result = _distinct(result, resolved)
        return _apply_limit(result, statement.limit, statement.offset)

    # -- grouped / aggregate SELECT --------------------------------------------

    def _grouped_memo(
        self, statement: ast.SelectStatement, plan: SelectPlan | None
    ) -> _GroupedMemo:
        """The statement's substitution memo, cached on its plan when possible.

        Building the memo walks every select/HAVING/ORDER BY expression and
        renders SQL keys for the aggregate/group substitutions — pure
        functions of the statement, re-derived identically on every call
        before this cache existed.  Plans are cached per SQL text alongside
        their statements, so repeated executions reuse the memo; the identity
        check guards against callers pairing a plan with a foreign statement.
        """
        if plan is not None:
            memo = plan.grouped_memo
            if memo is not None and memo.statement is statement:
                return memo
            memo = _GroupedMemo.build(statement, self._collect_aggregates)
            plan.grouped_memo = memo
            return memo
        return _GroupedMemo.build(statement, self._collect_aggregates)

    def _execute_grouped(
        self,
        statement: ast.SelectStatement,
        frame: Frame,
        context: functions.EvaluationContext,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
        for item in statement.select_items:
            if isinstance(item.expression, ast.Star):
                raise ExecutionError("'*' cannot be used together with aggregates")
        memo = self._grouped_memo(statement, plan)

        if statement.group_by:
            keys = []
            encoded_keys = []
            key_encodings = []
            for expr in statement.group_by:
                key_array = evaluate(expr, frame, context, self._scalar_subquery)
                keys.append(key_array)
                # Reuse the scan's dictionary codes when present: injective
                # over the full dictionary, so grouping on them is grouping
                # on the normalized values without re-encoding the rows.
                encoded = _key_encoding(expr, frame)
                key_encodings.append(encoded)
                encoded_keys.append(_grouping_encoding(key_array, encoded))
            inverse, num_groups = group_rows_encoded(encoded_keys, frame.num_rows)
        else:
            keys = []
            key_encodings = []
            inverse = np.zeros(frame.num_rows, dtype=np.int64)
            num_groups = 1

        post_frame = Frame(num_rows=num_groups)

        # Representative row index for each group (first occurrence).
        if frame.num_rows:
            representative = np.full(num_groups, frame.num_rows, dtype=np.int64)
            np.minimum.at(representative, inverse, np.arange(frame.num_rows))
        else:
            representative = np.zeros(0, dtype=np.int64)

        for position, (_expr, key_array) in enumerate(zip(statement.group_by, keys)):
            column_name = f"__group_{position}"
            values = key_array[representative] if frame.num_rows else key_array[:0]
            # Carry the key's dictionary codes onto the per-group column
            # (codes of each group's representative row): HAVING/ORDER BY
            # consume them here, and they are propagated to the result set
            # so an outer query over this derived table never re-encodes.
            codes = None
            encoded = key_encodings[position]
            if encoded is not None and len(values) == num_groups:
                group_codes = encoded[0][representative] if frame.num_rows else encoded[0][:0]
                codes = LazyCodes.presolved(group_codes, encoded[1])
            if num_groups and len(values) != num_groups:
                values = np.resize(values, num_groups)
            post_frame.add_column(None, column_name, values, codes=codes)

        aggregate_nodes = memo.aggregate_nodes
        argument_substitutions: dict[str, str] = {}
        if self._optimize and aggregate_nodes:
            argument_substitutions = self._materialize_shared_arguments(
                statement, aggregate_nodes, frame, keys, context
            )
        for position, node in enumerate(aggregate_nodes.values()):
            self._checkpoint()  # per-aggregate checkpoint in grouped evaluation
            post_frame.add_column(
                None,
                f"__agg_{position}",
                self._compute_aggregate(
                    node, frame, context, inverse, num_groups, argument_substitutions
                ),
            )

        return self._finish_grouped(statement, memo, post_frame, num_groups)

    def _finish_grouped(
        self,
        statement: ast.SelectStatement,
        memo: _GroupedMemo,
        post_frame: Frame,
        num_groups: int,
    ) -> ResultSet:
        """Evaluate select items, HAVING, ORDER BY, DISTINCT and LIMIT over
        the per-group frame (``__group_<i>`` / ``__agg_<i>`` columns).

        Shared verbatim between the serial grouped path and the parallel
        merge path: everything downstream of the per-group arrays — alias
        visibility, scalar subqueries, ``rand()`` draws in post-aggregation
        expressions — runs on the coordinator in both, so the two paths can
        only differ in how the per-group arrays were produced.
        """
        post_context = self._context(num_groups)

        column_names: list[str] = []
        columns: list[np.ndarray] = []
        output_encodings: list[LazyCodes | None] | None = [] if self._optimize else None
        for position, item in enumerate(statement.select_items):
            substituted = memo.substituted_items[position]
            array = evaluate(substituted, post_frame, post_context, self._scalar_subquery)
            name = item.output_name(position)
            column_names.append(name)
            columns.append(array)
            if output_encodings is not None:
                output_encodings.append(_lazy_key_encoding(substituted, post_frame))
            post_frame.add_column(None, name, array)

        keep_mask: np.ndarray | None = None
        if memo.substituted_having is not None:
            having = memo.substituted_having
            keep_mask = evaluate(having, post_frame, post_context, self._scalar_subquery)
            keep_mask = keep_mask.astype(bool)

        order_keys: list[tuple[np.ndarray, bool]] = []
        for substituted, ascending in memo.substituted_order:
            order_keys.append(
                (
                    evaluate(substituted, post_frame, post_context, self._scalar_subquery),
                    ascending,
                )
            )

        if keep_mask is not None:
            columns = [column[keep_mask] for column in columns]
            order_keys = [(key[keep_mask], ascending) for key, ascending in order_keys]
            if output_encodings is not None:
                output_encodings = [
                    None if encoded is None else encoded.sliced(keep_mask)
                    for encoded in output_encodings
                ]

        if order_keys:
            order_indices = sort_indices(order_keys)
            columns = [column[order_indices] for column in columns]
            if output_encodings is not None:
                output_encodings = [
                    None if encoded is None else encoded.sliced(order_indices)
                    for encoded in output_encodings
                ]

        result = ResultSet(column_names, columns, encodings=output_encodings)
        if statement.distinct:
            result = _distinct(result)
        return _apply_limit(result, statement.limit, statement.offset)

    def _collect_aggregates(
        self, statement: ast.SelectStatement
    ) -> dict[str, ast.FunctionCall]:
        """Find the innermost aggregate calls referenced anywhere in the query."""
        nodes: dict[str, ast.FunctionCall] = {}
        expressions: list[ast.Expression] = [item.expression for item in statement.select_items]
        if statement.having is not None:
            expressions.append(statement.having)
        expressions.extend(order_item.expression for order_item in statement.order_by)
        for expression in expressions:
            if isinstance(expression, ast.Star):
                continue
            for node in expression.walk():
                if not isinstance(node, ast.FunctionCall):
                    continue
                if not functions.is_aggregate_function(node.name):
                    continue
                if any(contains_aggregate(argument) for argument in node.args):
                    continue
                nodes.setdefault(node.to_sql(), node)
        return nodes

    def _materialize_shared_arguments(
        self,
        statement: ast.SelectStatement,
        aggregate_nodes: dict[str, ast.FunctionCall],
        frame: Frame,
        keys: list[np.ndarray],
        context: functions.EvaluationContext,
    ) -> dict[str, str]:
        """Evaluate subexpressions shared by several aggregate arguments once.

        The rewritten AQP inner query computes several Horvitz–Thompson
        building blocks per subsample id whose arguments share subexpressions
        (``x / prob``, ``1.0 / prob``, non-trivial grouping expressions); the
        naive path re-evaluates each occurrence.  This fuses the aggregation
        input into a single pass: every repeated, deterministic subexpression
        is evaluated once, materialized as a hidden frame column, and the
        aggregate arguments are rewritten to reference it.  Grouping-key
        expressions are seeded for free — their arrays are already computed.
        Expressions containing ``rand()`` or scalar subqueries never
        participate (each occurrence must keep its own evaluation so the RNG
        stream matches the naive path).
        """
        substitutions: dict[str, str] = {}

        def materialize(sql: str, array: np.ndarray) -> None:
            name = f"\x00shared_{len(substitutions)}"
            frame.add_column(None, name, array)
            substitutions[sql] = name

        for expression, key_array in zip(statement.group_by, keys):
            if isinstance(expression, (ast.Literal, ast.ColumnRef, ast.Star)):
                continue  # resolving a column (or broadcasting) is already free
            sql = expression.to_sql()
            if sql not in substitutions and _shareable(expression):
                materialize(sql, key_array)

        counts: dict[str, int] = {}
        nodes_by_sql: dict[str, ast.Expression] = {}
        for node in aggregate_nodes.values():
            for argument in node.args:
                if isinstance(argument, ast.Star):
                    continue
                for sub in argument.walk():
                    if isinstance(sub, (ast.Literal, ast.ColumnRef, ast.Star)):
                        continue
                    sql = sub.to_sql()
                    counts[sql] = counts.get(sql, 0) + 1
                    nodes_by_sql.setdefault(sql, sub)

        # Inner-most first (a contained subexpression renders strictly
        # shorter), so outer shared expressions evaluate through the already
        # materialized columns of their inner ones.
        for sql in sorted(nodes_by_sql, key=len):
            if counts[sql] < 2 or sql in substitutions:
                continue
            expression = nodes_by_sql[sql]
            if not _shareable(expression):
                continue
            substituted = _substitute(expression, substitutions, {})
            materialize(sql, evaluate(substituted, frame, context, self._scalar_subquery))
        return substitutions

    def _compute_aggregate(
        self,
        node: ast.FunctionCall,
        frame: Frame,
        context: functions.EvaluationContext,
        inverse: np.ndarray,
        num_groups: int,
        argument_substitutions: dict[str, str] | None = None,
    ) -> np.ndarray:
        is_star = bool(node.args) and isinstance(node.args[0], ast.Star)
        if is_star or not node.args:
            args: list[np.ndarray] = []
        else:
            arguments = node.args
            if argument_substitutions:
                arguments = [
                    _substitute(argument, argument_substitutions, {})
                    for argument in arguments
                ]
            args = [
                evaluate(argument, frame, context, self._scalar_subquery)
                for argument in arguments
            ]
        return functions.aggregate(
            node.name, args, inverse, num_groups, distinct=node.distinct, is_star=is_star
        )

    def _order_indices(
        self,
        statement: ast.SelectStatement,
        frame: Frame,
        context: functions.EvaluationContext,
    ) -> np.ndarray | None:
        if not statement.order_by:
            return None
        keys = []
        for order_item in statement.order_by:
            encoded = _key_encoding(order_item.expression, frame)
            if encoded is not None:
                # Dictionary codes are rank-preserving, so sorting on them is
                # sorting on the normalized string values.
                keys.append((encoded[0], order_item.ascending))
                continue
            keys.append(
                (
                    evaluate(order_item.expression, frame, context, self._scalar_subquery),
                    order_item.ascending,
                )
            )
        return sort_indices(keys)


def _scan_rows(
    surviving: np.ndarray | None,
    chunk_selection: Callable[[], np.ndarray],
    mask: np.ndarray | None,
) -> Callable[[], np.ndarray] | None:
    """Resolver of a scan frame's table row ids (None: the full table)."""
    if surviving is None and mask is None:
        return None

    def resolve() -> np.ndarray:
        rows = chunk_selection() if surviving is not None else None
        if mask is None:
            return rows
        kept = np.flatnonzero(np.asarray(mask, dtype=bool))
        return kept if rows is None else rows[kept]

    return resolve


def _chunk_row_count(table: Table, chunk_ids: np.ndarray) -> int:
    """Rows covered by the given chunks, without materializing their indices."""
    if not len(chunk_ids):
        return 0
    size = table.chunk_rows
    counts = np.minimum((chunk_ids + 1) * size, table.num_rows) - chunk_ids * size
    return int(counts.sum())


# ---------------------------------------------------------------------------
# join helpers
# ---------------------------------------------------------------------------


def _split_join_condition(
    condition: ast.Expression | None, left: Frame, right: Frame
) -> tuple[list[tuple[ast.Expression, ast.Expression]], ast.Expression | None]:
    """Split an ON condition into equi-join pairs and a residual predicate."""
    if condition is None:
        return [], None
    conjuncts = ast.flatten_and(condition)
    pairs: list[tuple[ast.Expression, ast.Expression]] = []
    residual: list[ast.Expression] = []
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            left_ref, right_ref = conjunct.left, conjunct.right
            if _resolvable(left_ref, left) and _resolvable(right_ref, right):
                pairs.append((left_ref, right_ref))
                continue
            if _resolvable(right_ref, left) and _resolvable(left_ref, right):
                pairs.append((right_ref, left_ref))
                continue
        residual.append(conjunct)
    return pairs, ast.conjunction(residual)


def _resolvable(ref: ast.ColumnRef, frame: Frame) -> bool:
    return frame.has_column(ref.name, ref.table)


def _split_join_refs(
    condition: ast.Expression, tables: list, bindings: list[str]
) -> tuple[list[tuple[ast.ColumnRef, ast.ColumnRef]], ast.Expression | None]:
    """Parent-side mirror of :func:`_split_join_condition`.

    Resolvability is judged against the base-table schemas instead of the
    built frames — every ON reference is in the scans' column sets, so the
    two rulings agree for any dispatchable statement — and the pair order
    and orientation (probe ref first) reproduce the serial split exactly.
    """

    def resolvable(ref: ast.ColumnRef, side: int) -> bool:
        if ref.table is not None and ref.table.lower() != bindings[side].lower():
            return False
        return tables[side].resolve_column(ref.name) is not None

    conjuncts = ast.flatten_and(condition)
    pairs: list[tuple[ast.ColumnRef, ast.ColumnRef]] = []
    residual: list[ast.Expression] = []
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            left_ref, right_ref = conjunct.left, conjunct.right
            if resolvable(left_ref, 0) and resolvable(right_ref, 1):
                pairs.append((left_ref, right_ref))
                continue
            if resolvable(right_ref, 0) and resolvable(left_ref, 1):
                pairs.append((right_ref, left_ref))
                continue
        residual.append(conjunct)
    return pairs, ast.conjunction(residual)


def _cross_join_indices(left_rows: int, right_rows: int) -> tuple[np.ndarray, np.ndarray]:
    left_indices = np.repeat(np.arange(left_rows), right_rows)
    right_indices = np.tile(np.arange(right_rows), left_rows)
    return left_indices, right_indices


def _key_encoding(expr: ast.Expression, frame: Frame):
    """Scan-attached dictionary codes for a bare column key, or None."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    return frame.codes_for(expr.name, expr.table)


def _sliced_encoding(encoded, rows: np.ndarray):
    """A ``(codes, dictionary)`` pair restricted to ``rows`` (None stays None)."""
    return None if encoded is None else (encoded[0][rows], encoded[1])


def _lazy_key_encoding(expr: ast.Expression, frame: Frame):
    """Like :func:`_key_encoding` but without forcing resolution.

    Used when collecting result-set encodings: nothing is encoded unless a
    downstream consumer (an outer query over the derived table) actually
    reads the codes.
    """
    if not isinstance(expr, ast.ColumnRef):
        return None
    return frame.lazy_codes_for(expr.name, expr.table)


def _grouping_encoding(
    values: np.ndarray, encoded: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, int]:
    """``(codes, cardinality)`` for one grouping key column.

    Prefers the scan-attached ``(codes, dictionary)`` pair — codes are
    injective over the dictionary, so grouping on them partitions rows
    exactly like grouping on the values — and falls back to encoding the
    values.  Shared by GROUP BY and DISTINCT so both agree on key semantics.
    """
    if encoded is not None:
        codes, dictionary = encoded
        return codes, max(1, len(dictionary))
    return encode_grouping_key(values)


def _row_local(expression: ast.Expression) -> bool:
    """Whether per-chunk evaluation of ``expression`` equals whole-column
    evaluation (no subqueries, window functions or random draws)."""
    for node in expression.walk():
        if isinstance(node, (ast.ScalarSubquery, ast.WindowFunction)):
            return False
        if isinstance(node, ast.FunctionCall) and (
            functions.is_nondeterministic_function(node.name)
            or functions.is_aggregate_function(node.name)
        ):
            return False
    return True


def hash_join_indices(
    left_keys: list[np.ndarray],
    right_keys: list[np.ndarray],
    left_encodings: list | None = None,
    right_encodings: list | None = None,
    prefer_smaller_build: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Return matching (left, right) row indices for an inner equi-join.

    ``left_encodings``/``right_encodings`` optionally carry per-key
    ``(codes, dictionary)`` pairs from the scans; when both sides of a key
    are encoded, only their dictionaries are merged instead of re-encoding
    every row of both inputs.

    The build (sorted) side is the right input.  With
    ``prefer_smaller_build`` the sides are swapped internally when the left
    input is smaller — sorting the small side instead of the large one — and
    the matches are restored to the canonical (left-major, right ascending
    within) order afterwards, so the emitted pairs are identical either way.
    """
    left_codes, right_codes = _encode_key_pairs(
        left_keys, right_keys, left_encodings, right_encodings
    )
    if prefer_smaller_build and len(left_codes) < len(right_codes):
        right_indices, left_indices = _probe_build_join(right_codes, left_codes)
        # The swapped pass emits right-major order; a stable sort on the left
        # index restores left-major order and keeps right ascending within
        # each left row — exactly what the unswapped pass produces.
        order = np.argsort(left_indices, kind="stable")
        return left_indices[order], right_indices[order]
    return _probe_build_join(left_codes, right_codes)


def _probe_build_join(
    probe_codes: np.ndarray, build_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort the build side, probe it with every probe row, emit match pairs."""
    build_order = np.argsort(build_codes, kind="stable")
    sorted_build = build_codes[build_order]
    starts = np.searchsorted(sorted_build, probe_codes, side="left")
    ends = np.searchsorted(sorted_build, probe_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    probe_indices = np.repeat(np.arange(len(probe_codes)), counts)
    cumulative = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(cumulative, counts)
    positions = np.repeat(starts, counts) + within
    build_indices = build_order[positions]
    return probe_indices, build_indices


# Packed multi-column codes must stay below this bound; past it the packing
# is re-densified instead of silently wrapping around int64.
_MAX_PACKED_CODE = 1 << 62


def _encode_key_pairs(
    left_keys: list[np.ndarray],
    right_keys: list[np.ndarray],
    left_encodings: list | None,
    right_encodings: list | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode multi-column join keys into comparable int64 codes per side.

    Both sides must be encoded consistently; for each key column either both
    sides' precomputed dictionaries are merged (cheap: proportional to the
    number of *distinct* values) or a union dictionary is built from the raw
    rows (the pre-existing fallback).

    Packing is positional (``combined * cardinality + codes``); when the
    running cardinality product would overflow int64 — possible once several
    high-cardinality key columns multiply past 2**63 — the packed prefix is
    re-encoded to dense codes first, so distinct key tuples can never be
    conflated by silent wraparound.
    """
    if not left_keys:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    left_rows = len(left_keys[0])
    right_rows = len(right_keys[0])
    left_combined = np.zeros(left_rows, dtype=np.int64)
    right_combined = np.zeros(right_rows, dtype=np.int64)
    current_cardinality = 1
    for position, (left_key, right_key) in enumerate(zip(left_keys, right_keys)):
        left_encoded = left_encodings[position] if left_encodings else None
        right_encoded = right_encodings[position] if right_encodings else None
        if left_encoded is not None and right_encoded is not None:
            left_codes, right_codes, cardinality = merge_dictionaries(
                left_encoded, right_encoded
            )
        else:
            left_norm = _normalize_key(left_key)
            right_norm = _normalize_key(right_key)
            universe = np.concatenate([left_norm, right_norm])
            _, codes = np.unique(universe, return_inverse=True)
            cardinality = int(codes.max()) + 1 if len(codes) else 1
            left_codes = codes[:left_rows]
            right_codes = codes[left_rows:]
        cardinality = max(1, int(cardinality))
        if current_cardinality > _MAX_PACKED_CODE // cardinality:
            left_combined, right_combined, current_cardinality = _densify_pair(
                left_combined, right_combined
            )
        left_combined = left_combined * cardinality + left_codes
        right_combined = right_combined * cardinality + right_codes
        current_cardinality *= cardinality
    return left_combined, right_combined


def _densify_pair(
    left_combined: np.ndarray, right_combined: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Re-encode two packed code arrays against their joint value universe."""
    left_rows = len(left_combined)
    universe = np.concatenate([left_combined, right_combined])
    _, dense = np.unique(universe, return_inverse=True)
    dense = dense.astype(np.int64, copy=False)
    cardinality = int(dense.max()) + 1 if len(dense) else 1
    return dense[:left_rows], dense[left_rows:], cardinality


def _normalize_key(key: np.ndarray) -> np.ndarray:
    if key.dtype == object:
        return normalize_object_key(key)
    return key.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# expression substitution for post-aggregation evaluation
# ---------------------------------------------------------------------------


class _GroupedMemo:
    """Statement-pure precomputation for grouped execution.

    Grouped execution rewrites every select/HAVING/ORDER BY expression onto
    the post-aggregation frame, using rendered-SQL keys to recognize the
    grouping expressions and aggregate calls (``__group_<i>`` /
    ``__agg_<i>`` columns) and earlier output aliases.  All of that depends
    only on the statement, so it is computed once here and cached on the
    statement's (equally cached) :class:`~repro.sqlengine.planner.SelectPlan`
    — repeated executions of one statement skip the per-call expression
    walking and SQL rendering entirely.  The construction mirrors the
    historical per-call loop exactly (including the order in which aliases
    become visible to later items), so results are bit-identical.
    """

    __slots__ = ("statement", "aggregate_nodes", "substituted_items",
                 "substituted_having", "substituted_order")

    def __init__(self, statement, aggregate_nodes, items, having, order) -> None:
        self.statement = statement
        self.aggregate_nodes = aggregate_nodes
        self.substituted_items = items
        self.substituted_having = having
        self.substituted_order = order

    @classmethod
    def build(cls, statement: ast.SelectStatement, collect_aggregates) -> _GroupedMemo:
        substitutions: dict[str, str] = {}
        name_substitutions: dict[str, str] = {}
        for position, expr in enumerate(statement.group_by):
            column_name = f"__group_{position}"
            substitutions[expr.to_sql()] = column_name
            if isinstance(expr, ast.ColumnRef):
                name_substitutions[expr.name.lower()] = column_name
        aggregate_nodes = collect_aggregates(statement)
        for position, sql_key in enumerate(aggregate_nodes):
            substitutions[sql_key] = f"__agg_{position}"
        items: list[ast.Expression] = []
        for position, item in enumerate(statement.select_items):
            items.append(_substitute(item.expression, substitutions, name_substitutions))
            name = item.output_name(position)
            substitutions[ast.ColumnRef(name).to_sql()] = name
        having = None
        if statement.having is not None:
            having = _substitute(statement.having, substitutions, name_substitutions)
        order = [
            (
                _substitute(order_item.expression, substitutions, name_substitutions),
                order_item.ascending,
            )
            for order_item in statement.order_by
        ]
        return cls(statement, aggregate_nodes, items, having, order)


def _substitute(
    expression: ast.Expression,
    substitutions: dict[str, str],
    name_substitutions: dict[str, str],
) -> ast.Expression:
    """Replace aggregate calls and grouping keys with post-aggregation columns."""

    def visit(node: ast.Expression) -> ast.Expression | None:
        sql_key = node.to_sql()
        if sql_key in substitutions:
            return ast.ColumnRef(substitutions[sql_key])
        if isinstance(node, ast.ColumnRef):
            replacement = name_substitutions.get(node.name.lower())
            if replacement is not None:
                return ast.ColumnRef(replacement)
            return node
        return None

    return ast.transform_expression(expression, visit)


def _shareable(expression: ast.Expression) -> bool:
    """Whether one evaluation of the expression can stand in for several.

    ``rand()`` must draw once per occurrence and scalar subqueries execute
    per evaluation (either may touch the engine's RNG stream), so neither can
    be deduplicated without diverging from the naive path.
    """
    for node in expression.walk():
        if isinstance(node, (ast.ScalarSubquery, ast.WindowFunction)):
            return False
        if isinstance(node, ast.FunctionCall) and functions.is_nondeterministic_function(
            node.name
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# sorting, distinct, limit
# ---------------------------------------------------------------------------


def sort_indices(keys: list[tuple[np.ndarray, bool]]) -> np.ndarray:
    """Stable multi-key sort; each key is (values, ascending).

    Integer and boolean keys are sorted directly: casting them to float64
    (the old behavior) loses precision above 2**53, silently reordering or
    tying large keys.  Descending integer order uses the bitwise complement
    ``~x`` — a strictly decreasing reflection with no overflow (negating
    ``int64 min`` would wrap).
    """
    if not keys:
        return np.arange(0)
    sortable: list[np.ndarray] = []
    for values, ascending in keys:
        if values.dtype == object:
            normalized = normalize_object_key(values)
            _, codes = np.unique(normalized, return_inverse=True)
            key_array = codes.astype(np.int64, copy=False)
            if not ascending:
                key_array = -key_array  # dense codes: negation cannot overflow
        elif values.dtype.kind in "iub":
            key_array = values if ascending else ~values
        else:
            key_array = values.astype(np.float64, copy=False)
            if not ascending:
                key_array = -key_array
        sortable.append(key_array)
    # np.lexsort sorts by the last key first, so reverse the list.
    return np.lexsort(tuple(reversed(sortable)))


def _distinct(
    result: ResultSet,
    encodings: list[tuple[np.ndarray, np.ndarray] | None] | None = None,
) -> ResultSet:
    """Keep the first occurrence of every distinct row.

    ``encodings`` optionally carries the scan-attached ``(codes,
    dictionary)`` pair of each result column: coded columns group on their
    existing rank codes instead of re-running ``np.unique`` over object
    arrays (the codes are injective over the dictionary, so the row
    partition is identical).
    """
    if result.num_rows == 0 or not result.column_names:
        return result
    encoded_keys = [
        _grouping_encoding(column, encodings[position] if encodings is not None else None)
        for position, column in enumerate(result.columns())
    ]
    inverse, num_groups = group_rows_encoded(encoded_keys, result.num_rows)
    representative = np.full(num_groups, result.num_rows, dtype=np.int64)
    np.minimum.at(representative, inverse, np.arange(result.num_rows))
    representative = np.sort(representative)
    return ResultSet(
        result.column_names, [column[representative] for column in result.columns()]
    )


def _apply_limit(result: ResultSet, limit: int | None, offset: int | None) -> ResultSet:
    if limit is None and offset is None:
        return result
    start = offset or 0
    stop = result.num_rows if limit is None else start + limit
    window = slice(start, stop)
    encodings = result.encodings()
    if encodings is not None:
        encodings = [
            None if encoded is None else encoded.sliced(window) for encoded in encodings
        ]
    return ResultSet(
        result.column_names,
        [column[window] for column in result.columns()],
        encodings=encodings,
    )

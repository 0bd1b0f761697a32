"""Query executor: evaluates SELECT statements over the catalog.

The executor is deliberately a straightforward, vectorised implementation of
relational semantics: build a frame from the FROM clause (scans, derived
tables and hash joins), filter it with WHERE, then either evaluate the select
list and apply ORDER BY / DISTINCT / LIMIT, or group, aggregate and run the
statement's tail over the per-group columns (:mod:`repro.sqlengine.tail`,
which the middleware's fold runs too).  It exists
so the middleware has a realistic "underlying database" that executes the
rewritten SQL text exactly as written.

Joins take one of two paths that emit the same pairs in the same order
(left-major, right ascending).  When an equi pair has a column of a
base-table scan on one side that is a unique numeric key
(:meth:`Table.key_index`, cached per table version) and a numeric key on the
other, each probe key is looked up in that sorted index — a sample joined to
a dimension table then costs the sample, not the dimension table.  Every
other join hashes: both sides' keys are coded jointly and the smaller side
is sorted and probed.  ``optimize=False`` always hashes.  Both paths, like
GROUP BY, DISTINCT and ORDER BY, read keys through the one key codec
(:mod:`repro.sqlengine.encoding`), so they agree on when two keys are
equal.  A NULL key matches nothing on either path, except in a pair written
``a = b OR (a IS NULL AND b IS NULL)`` (:func:`sqlast.null_safe_equal`),
which is joined as an equi pair whose NULLs match each other.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.sqlengine import functions, planner as logical_planner, sqlast as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.encoding import (
    encode_join_keys,
    encode_key,
    group_rows_encoded,
    sort_indices,
)
from repro.sqlengine.expressions import (
    Frame,
    LazyCodes,
    ScanSource,
    column_codes,
    evaluate,
    ordinal,
    sort_key,
)
from repro.sqlengine.planner import SelectPlan
from repro.sqlengine.resultset import ResultSet
from repro.sqlengine.table import KeyIndex, find_sorted
from repro.sqlengine.tail import TailPlan, distinct_rows, limit_rows, run_tail


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
        deadline: object | None = None,
        faults: object | None = None,
    ) -> None:
        self._catalog = catalog
        self._rng = rng
        self._optimize = optimize
        # Observability: the owning Database passes its lock-guarded
        # incrementer (``bump_stat``) so tests and benchmarks can assert
        # which fast path actually ran and concurrent SELECTs over one shared
        # engine never lose increments.
        self._count_stat = count
        # Bound query-parameter values for Placeholder expressions; threaded
        # into every evaluation context (including scalar subqueries and
        # precomputed derived-table plans) so one cached plan serves every
        # parameter set.
        self._params = params
        # Resilience wiring: the per-query cooperative deadline and the
        # engine's fault injector (inert unless configured).
        self._deadline = deadline
        self._faults = faults

    def _context(self, num_rows: int) -> functions.EvaluationContext:
        return functions.EvaluationContext(
            num_rows=num_rows,
            rng=self._rng,
            params=self._params,
            deadline=self._deadline,
            faults=self._faults,
        )

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
        frame = self._build_frame(statement.from_relation, plan)
        context = self._context(frame.num_rows)

        where = plan.residual_where if plan is not None else statement.where
        if where is not None:
            mask = evaluate(where, frame, context, self._scalar_subquery)
            frame = frame.filter(mask)
            context = self._context(frame.num_rows)

        grouped = plan.grouped if plan is not None else logical_planner.is_grouped(statement)
        if grouped:
            return self._execute_grouped(statement, frame, context, plan)
        return self._execute_plain(statement, frame, context)

    def _scalar_subquery(self, statement: ast.SelectStatement) -> object:
        result = self.execute_select(statement)
        return result.scalar()

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
            binding = relation.binding_name
            scan = plan.scan_for(binding) if plan is not None else None
            names = scan.names if scan is not None else None
            frame = Frame()
            for column_name in table.column_names if names is None else names:
                self._checkpoint()  # per-column scan materialization
                array = table.column(column_name)
                codes = None
                if self._optimize and array.dtype == object:
                    codes = LazyCodes(
                        lambda t=table, n=column_name: t.dictionary_codes(n),
                        lambda t=table, n=column_name: t.cached_dictionary_codes(n),
                    )
                frame.add_column(binding, column_name, array, codes=codes)
            if not frame.num_columns:
                frame.num_rows = table.num_rows
            mask = self._scan_mask(frame, scan)
            if mask is not None:
                frame = frame.filter(mask)
            frame.source = ScanSource(table, _scan_rows(mask))
            return frame
        if isinstance(relation, ast.DerivedTable):
            # The subquery runs as written under its own plan, computed once
            # with the outer plan (past the nesting cap it is planned per call).
            derived = plan.derived_for(relation.binding_name) if plan is not None else None
            result = self.execute_select(relation.query, plan=derived)
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
            if not frame.num_columns:
                frame.num_rows = result.num_rows
            scan = plan.scan_for(relation.binding_name) if plan is not None else None
            mask = self._scan_mask(frame, scan)
            return frame if mask is None else frame.filter(mask)
        if isinstance(relation, ast.Join):
            return self._build_join(relation, plan, joins)
        raise ExecutionError(f"unsupported relation type {type(relation).__name__}")

    def _scan_mask(self, frame: Frame, scan) -> np.ndarray | None:
        """Row mask of a scan's pushed-down WHERE conjuncts (None: keep all)."""
        if scan is None or scan.predicate is None:
            return None
        self._checkpoint()
        context = self._context(frame.num_rows)
        return evaluate(scan.predicate, frame, context, self._scalar_subquery)

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
        equi_pairs, null_safe, residual = _split_join_condition(condition, left, right)
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
            left_encodings = [column_codes(expr, left) for expr, _ in equi_pairs]
            right_encodings = [column_codes(expr, right) for _, expr in equi_pairs]
            matched = None
            if self._optimize:
                matched = self._key_index_join(
                    equi_pairs, null_safe, left, right, left_keys, right_keys,
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
                    null_safe=null_safe,
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
        null_safe: list[bool],
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
        None when no pair qualifies.  An index holds no NULL, so the indexed
        pair matches the same rows whether or not it is NULL-safe.
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
        probe_rows, table_rows = index.lookup(probe)
        rows = indexed.source.rows
        if rows is None:
            indexed_rows = table_rows
        else:
            # Table rows -> rows of the (filtered) scan frame.
            kept, indexed_rows = find_sorted(rows, table_rows)
            probe_rows = probe_rows[kept]
        if side == 0:
            left_indices, right_indices = indexed_rows, probe_rows
        else:
            left_indices, right_indices = probe_rows, indexed_rows
        others = [other for other in range(len(equi_pairs)) if other != position]
        if others:
            left_codes, right_codes = encode_join_keys(
                [left_keys[other][left_indices] for other in others],
                [right_keys[other][right_indices] for other in others],
                [_sliced_encoding(left_encodings[other], left_indices) for other in others],
                [_sliced_encoding(right_encodings[other], right_indices) for other in others],
                [null_safe[other] for other in others],
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

        order_indices = self._order_indices(statement, alias_frame, context, columns)
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
            result = distinct_rows(result, resolved)
        return limit_rows(result, statement.limit, statement.offset)

    # -- grouped / aggregate SELECT --------------------------------------------

    def _grouped_memo(
        self, statement: ast.SelectStatement, plan: SelectPlan | None
    ) -> _GroupedMemo:
        """The statement's grouped-execution memo, cached on its plan when
        possible.

        Building the memo (the tail plan and the aggregate-argument fusion)
        walks every select/HAVING/ORDER BY expression and aggregate argument
        and renders SQL keys for the substitutions — pure functions of the
        statement.  Plans are cached per SQL text alongside
        their statements, so repeated executions reuse the memo and render
        nothing; the identity check guards against callers pairing a plan
        with a foreign statement.
        """
        if plan is not None:
            memo = plan.grouped_memo
            if memo is not None and memo.statement is statement:
                return memo
            memo = _GroupedMemo(statement, share=self._optimize)
            plan.grouped_memo = memo
            return memo
        return _GroupedMemo(statement, share=self._optimize)

    def _execute_grouped(
        self,
        statement: ast.SelectStatement,
        frame: Frame,
        context: functions.EvaluationContext,
        plan: SelectPlan | None = None,
    ) -> ResultSet:
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
                encoded = column_codes(expr, frame)
                key_encodings.append(encoded)
                encoded_keys.append(encode_key(key_array, encoded))
            # ``representative`` is each group's first row.
            inverse, representative = group_rows_encoded(encoded_keys, frame.num_rows)
            num_groups = len(representative)
        else:
            keys = []
            key_encodings = []
            inverse = np.zeros(frame.num_rows, dtype=np.int64)
            num_groups = 1
            representative = np.zeros(min(1, frame.num_rows), dtype=np.int64)

        group_columns: list[tuple[np.ndarray, LazyCodes | None]] = []
        for position, key_array in enumerate(keys):
            values = key_array[representative]
            # Carry the key's dictionary codes onto the per-group column
            # (codes of each group's representative row): HAVING/ORDER BY
            # consume them here, and they are propagated to the result set
            # so an outer query over this derived table never re-encodes.
            codes = None
            encoded = key_encodings[position]
            if encoded is not None and len(values) == num_groups:
                codes = LazyCodes.presolved(encoded[0][representative], encoded[1])
            if num_groups and len(values) != num_groups:
                values = np.resize(values, num_groups)
            group_columns.append((values, codes))

        # Subexpressions shared by several aggregate arguments are evaluated
        # once, as hidden columns the arguments read (see _GroupedMemo).
        for position, name in memo.seeded_keys:
            frame.add_column(None, name, keys[position])
        for name, expression in memo.shared:
            frame.add_column(
                None, name, evaluate(expression, frame, context, self._scalar_subquery)
            )
        aggregate_columns: list[np.ndarray] = []
        for node, arguments, is_star in memo.aggregates:
            self._checkpoint()  # per-aggregate checkpoint in grouped evaluation
            args = [
                evaluate(argument, frame, context, self._scalar_subquery)
                for argument in arguments
            ]
            aggregate_columns.append(
                functions.aggregate(
                    node.name, args, inverse, num_groups, distinct=node.distinct,
                    is_star=is_star,
                )
            )

        return run_tail(
            memo.tail, group_columns, aggregate_columns, self._context(num_groups),
            self._scalar_subquery,
        )

    def _order_indices(
        self,
        statement: ast.SelectStatement,
        frame: Frame,
        context: functions.EvaluationContext,
        columns: list[np.ndarray],
    ) -> np.ndarray | None:
        if not statement.order_by:
            return None
        keys = []
        for item in statement.order_by:
            position = ordinal(item.expression, len(columns))
            if position is not None:
                keys.append((columns[position], item.ascending))
            else:
                keys.append(
                    (sort_key(item.expression, frame, context, self._scalar_subquery),
                     item.ascending)
                )
        return sort_indices(keys)


def _scan_rows(mask: np.ndarray | None) -> Callable[[], np.ndarray] | None:
    """Resolver of a scan frame's table row ids (None: the full table)."""
    if mask is None:
        return None
    return lambda: np.flatnonzero(np.asarray(mask, dtype=bool))


# ---------------------------------------------------------------------------
# join helpers
# ---------------------------------------------------------------------------


def _split_join_condition(
    condition: ast.Expression | None, left: Frame, right: Frame
) -> tuple[list[tuple[ast.Expression, ast.Expression]], list[bool], ast.Expression | None]:
    """Split an ON condition into equi-join pairs and a residual predicate.

    Returns ``(pairs, null_safe, residual)``; ``null_safe[i]`` marks a pair
    written as :func:`~repro.sqlengine.sqlast.null_safe_equal`, whose NULL
    keys match each other.
    """
    if condition is None:
        return [], [], None
    conjuncts = ast.flatten_and(condition)
    pairs: list[tuple[ast.Expression, ast.Expression]] = []
    null_safe: list[bool] = []
    residual: list[ast.Expression] = []
    for conjunct in conjuncts:
        operands = ast.null_safe_operands(conjunct)
        safe = operands is not None
        if not safe and isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            operands = conjunct.left, conjunct.right
        if operands is not None:
            first, second = operands
            if isinstance(first, ast.ColumnRef) and isinstance(second, ast.ColumnRef):
                if not (_resolvable(first, left) and _resolvable(second, right)):
                    first, second = second, first
                if _resolvable(first, left) and _resolvable(second, right):
                    pairs.append((first, second))
                    null_safe.append(safe)
                    continue
        residual.append(conjunct)
    return pairs, null_safe, ast.conjunction(residual)


def _resolvable(ref: ast.ColumnRef, frame: Frame) -> bool:
    return frame.has_column(ref.name, ref.table)


def _cross_join_indices(left_rows: int, right_rows: int) -> tuple[np.ndarray, np.ndarray]:
    left_indices = np.repeat(np.arange(left_rows), right_rows)
    right_indices = np.tile(np.arange(right_rows), left_rows)
    return left_indices, right_indices


def _sliced_encoding(encoded, rows: np.ndarray):
    """A ``(codes, dictionary)`` pair restricted to ``rows`` (None stays None)."""
    return None if encoded is None else (encoded[0][rows], encoded[1])


def _lazy_key_encoding(expr: ast.Expression, frame: Frame):
    """Like :func:`~repro.sqlengine.expressions.column_codes` but without
    forcing resolution.

    Used when collecting result-set encodings: nothing is encoded unless a
    downstream consumer (an outer query over the derived table) actually
    reads the codes.
    """
    if not isinstance(expr, ast.ColumnRef):
        return None
    return frame.lazy_codes_for(expr.name, expr.table)


def hash_join_indices(
    left_keys: list[np.ndarray],
    right_keys: list[np.ndarray],
    left_encodings: list | None = None,
    right_encodings: list | None = None,
    prefer_smaller_build: bool = False,
    null_safe: list[bool] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return matching (left, right) row indices for an inner equi-join.

    ``left_encodings``/``right_encodings`` optionally carry per-key
    ``(codes, dictionary)`` pairs from the scans; when both sides of a key
    are encoded, only their dictionaries are merged instead of re-encoding
    every row of both inputs.

    A row whose key is NULL in any column matches nothing (as ``=`` in a
    WHERE clause), except in the key columns marked in ``null_safe``, where
    NULL matches NULL: :func:`~repro.sqlengine.encoding.encode_join_keys`
    gives those rows codes that match nothing, so the pair order is kept.

    The build (sorted) side is the right input.  With
    ``prefer_smaller_build`` the sides are swapped internally when the left
    input is smaller — sorting the small side instead of the large one — and
    the matches are restored to the canonical (left-major, right ascending
    within) order afterwards, so the emitted pairs are identical either way.
    """
    left_codes, right_codes = encode_join_keys(
        left_keys, right_keys, left_encodings, right_encodings, null_safe
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


# ---------------------------------------------------------------------------
# expression substitution for post-aggregation evaluation
# ---------------------------------------------------------------------------


class _GroupedMemo:
    """Every statement-pure decision of grouped execution: the statement's
    :class:`~repro.sqlengine.tail.TailPlan` and the fusion of its aggregates'
    arguments.

    With ``share`` (the optimized engine) the aggregation input is fused.
    The rewritten AQP inner query computes several Horvitz–Thompson
    building blocks per subsample id whose arguments share subexpressions
    (``x / prob``, ``1.0 / prob``, non-trivial grouping expressions), which
    the naive path evaluates once per occurrence.  Every repeated,
    deterministic subexpression is instead evaluated once per call, in
    ``shared`` order (inner-most first), as a hidden input-frame column, and
    the aggregate arguments read it.  A non-trivial grouping key seeds its
    hidden column (``seeded_keys``) from the key array already computed.
    Expressions holding ``rand()`` or a scalar subquery never take part:
    each occurrence keeps its own evaluation, so the RNG stream matches the
    naive path.

    All of that depends only on the statement, so it is computed once here
    and cached on the statement's (equally cached)
    :class:`~repro.sqlengine.planner.SelectPlan`: a repeated execution walks
    no expression and renders no SQL, it only evaluates.
    """

    __slots__ = ("statement", "tail", "seeded_keys", "shared", "aggregates")

    def __init__(self, statement: ast.SelectStatement, share: bool) -> None:
        self.statement = statement
        self.tail = TailPlan(statement)
        self.seeded_keys: list[tuple[int, str]] = []
        self.shared: list[tuple[str, ast.Expression]] = []
        hidden: dict[str, str] = {}
        if share and self.tail.aggregates:
            self.seeded_keys, self.shared, hidden = _shared_arguments(
                statement, self.tail.aggregates
            )
        # (call, its arguments over the shared columns, count(*)?)
        self.aggregates: list[tuple[ast.FunctionCall, list[ast.Expression], bool]] = []
        for node in self.tail.aggregates:
            is_star = bool(node.args) and isinstance(node.args[0], ast.Star)
            arguments = [] if is_star else [
                _substitute(argument, hidden) if hidden else argument
                for argument in node.args
            ]
            self.aggregates.append((node, arguments, is_star))


def _shared_arguments(
    statement: ast.SelectStatement, aggregate_nodes: list[ast.FunctionCall]
) -> tuple[list[tuple[int, str]], list[tuple[str, ast.Expression]], dict[str, str]]:
    """Which subexpressions of the aggregate arguments to evaluate once.

    Returns ``(seeded_keys, shared, substitutions)``: the grouping keys that
    seed a hidden column (key position, column name), the shared
    subexpressions to evaluate in that order (column name, expression over
    the earlier hidden columns), and rendered SQL -> hidden column name.
    """
    substitutions: dict[str, str] = {}
    seeded_keys: list[tuple[int, str]] = []
    shared: list[tuple[str, ast.Expression]] = []

    def hidden_name(sql: str) -> str:
        name = f"\x00shared_{len(substitutions)}"
        substitutions[sql] = name
        return name

    for position, expression in enumerate(statement.group_by):
        if isinstance(expression, (ast.Literal, ast.ColumnRef, ast.Star)):
            continue  # resolving a column (or broadcasting) is already free
        sql = expression.to_sql()
        if sql not in substitutions and _shareable(expression):
            seeded_keys.append((position, hidden_name(sql)))

    counts: dict[str, int] = {}
    nodes_by_sql: dict[str, ast.Expression] = {}
    for node in aggregate_nodes:
        for argument in node.args:
            if isinstance(argument, ast.Star):
                continue
            for sub in argument.walk():
                if isinstance(sub, (ast.Literal, ast.ColumnRef, ast.Star)):
                    continue
                sql = sub.to_sql()
                counts[sql] = counts.get(sql, 0) + 1
                nodes_by_sql.setdefault(sql, sub)

    # Inner-most first (a contained subexpression renders strictly shorter),
    # so outer shared expressions evaluate through the hidden columns of
    # their inner ones.
    for sql in sorted(nodes_by_sql, key=len):
        if counts[sql] < 2 or sql in substitutions:
            continue
        expression = nodes_by_sql[sql]
        if not _shareable(expression):
            continue
        substituted = _substitute(expression, substitutions)
        shared.append((hidden_name(sql), substituted))
    return seeded_keys, shared, substitutions


def _substitute(expression: ast.Expression, substitutions: dict[str, str]) -> ast.Expression:
    """Replace each subexpression rendered as a key of ``substitutions`` with
    the hidden column it names."""

    def visit(node: ast.Expression) -> ast.Expression | None:
        column = substitutions.get(node.to_sql())
        return None if column is None else ast.ColumnRef(column)

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

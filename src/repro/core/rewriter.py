"""AQP Rewriter: turns an exact aggregate query into its approximate form.

A query is split by aggregate kind (Section 2.2) into at most three parts,
none of which carries the statement's tail:

* the **mean-like part** follows Appendix G, split between the backend and
  the middleware.  The backend runs one statement over the chosen sample
  tables that, for every (grouping keys, subsample id) combination, computes
  the Horvitz–Thompson building blocks of each aggregate plus the
  subsample's size: ``GROUP BY <keys>, vdb_sid``, nothing beyond ``SUM`` and
  ``COUNT`` (and the statistic itself for ``stddev``-like aggregates).  One
  function, :func:`_building_blocks`, renders them, for this statement and
  for the variational table of a nested query alike.  The
  **answer** is the full-sample estimate (the per-subsample partial sums
  added back together — for ``sum``/``count`` this is exactly the
  Horvitz–Thompson estimator, for ``avg`` the ratio estimator); the
  **error** is the variational-subsampling standard error
  ``stddev(est_i) * sqrt(avg(sub_size)) / sqrt(sum(sub_size))`` where
  ``est_i`` is the i-th subsample's own estimate of the aggregate
  (Theorem 2).  For totals (``sum``/``count``) the subsample's partial sum
  is scaled by the number of subsamples ``b`` to make it a full-group
  estimate;
* the **count-distinct part** counts the distinct values per group over a
  hashed sample;
* the **extreme part** runs min / max exactly, per group, over the base
  tables.

Every part returns sufficient statistics only: no estimate and no error is
computed in SQL.  The middleware's :class:`SubsampleFold` is the one place
the answer is put together: it folds the mean-like rows, scales the distinct
counts by the hashed sample's ratio and gives them their binomial error,
stitches the parts to their groups on the key codec, and then runs the
statement's tail — select-list arithmetic over aggregates of any kind,
HAVING, ORDER BY, LIMIT and OFFSET — once, through the engine's own
:func:`~repro.sqlengine.tail.run_tail`.

Joins of two sample tables combine their subsample ids with ``h(i, j)``
(Theorem 4) and take the smaller of their inclusion probabilities (universe
samples joined on their hash key, Appendix E).  Nested aggregate
queries (Section 5.2) first turn the derived table into its variational
table — the original inner query grouped additionally by the subsample id,
each aggregate replaced by its per-subsample full-group estimate — and the
statement the backend runs aggregates that variational table per (group,
subsample id); the fold combines those rows as for a flat query.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.query_info import MEAN_LIKE, QueryAnalysis, classify_aggregate
from repro.core.sample_planner import SamplePlan
from repro.errors import ExecutionError, RewriteError
from repro.sampling.params import PROBABILITY_COLUMN, SID_COLUMN, SampleInfo
from repro.sqlengine import sqlast as ast
from repro.sqlengine.encoding import (
    encode_join_keys,
    encode_key,
    encode_object_array,
    group_rows_encoded,
)
from repro.sqlengine.expressions import LazyCodes, contains_aggregate, divide
from repro.sqlengine.functions import (
    EvaluationContext,
    as_float,
    group_counts,
    group_dispersions,
    group_sums,
    is_nondeterministic_function,
)
from repro.sqlengine.resultset import ResultSet
from repro.sqlengine.tail import TailPlan, run_tail


SID_ALIAS = "vdb_sid"
SUB_SIZE_ALIAS = "vdb_sub_size"
ROWS_ALIAS = "vdb_rows"

@dataclass
class RewriteOutput:
    """The statements the backend runs and the fold that makes them one answer.

    ``parts`` are the Section 2.2 parts, at most one per aggregate kind, in
    the order the fold reads their rows (``fold.parts`` names each one's
    kind); ``statement`` is the first of them.
    """

    parts: list[ast.SelectStatement]
    fold: SubsampleFold
    group_columns: list[str] = field(default_factory=list)
    estimate_columns: dict[str, str | None] = field(default_factory=dict)

    @property
    def statement(self) -> ast.SelectStatement:
        return self.parts[0]


@dataclass
class PreparedRewrite:
    """A rewrite and each part's SQL as the connector renders it.

    Produced once per (query shape, sample plan) and then reused verbatim,
    so repetitions only pay execution cost: cache hits execute the stored
    text instead of re-rendering the AST.
    """

    output: RewriteOutput
    sql: list[str]

    @cached_property
    def text(self) -> str:
        """The parts' SQL as one text (``rewritten_sql``), joined once."""
        return ";\n".join(self.sql)


class AqpRewriter:
    """Rewrites supported queries into their variational-subsampling form."""

    def __init__(self, include_errors: bool = True) -> None:
        self.include_errors = include_errors

    # -- public entry points ------------------------------------------------------

    def rewrite(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, plan: SamplePlan
    ) -> RewriteOutput:
        """Split a supported query into its parts and the fold that joins them.

        Every aggregate — of the select list, HAVING or ORDER BY — goes to
        the part of its kind (Section 2.2):

        * mean-like ones to one per-(group, subsample) statement over the
          samples.  Queries whose only fact source is an aggregate derived
          table use the nested rewrite (Section 5.2).  Queries that also
          reference base tables at the outer level (e.g. flattened comparison
          subqueries) use the flat/join rewrite: the base tables are replaced
          by samples while the derived table — typically a small aggregate
          over a dimension-sized group — is computed exactly;
        * ``count(DISTINCT)`` ones to one per-group statement over the hashed
          sample, which counts and does not scale: the fold divides by the
          sample's kept share of the rows outside its census
          (:attr:`SampleInfo.key_ratio`);
        * min / max to one exact per-group statement over the base tables.

        No part has HAVING, ORDER BY, LIMIT or OFFSET: the fold stitches the
        parts' groups and applies the statement's tail once, over them all.
        """
        builder = _FoldBuilder(statement, analysis, self.include_errors)
        fold = builder.build_fold()
        parts: list[ast.SelectStatement] = []
        if builder.plans_of("mean_like"):
            part, fold.subsample_count, fold.weighted = self._mean_like_part(
                builder, analysis, plan
            )
            parts.append(part)
            fold.parts.append("mean_like")
        distinct = builder.per_group_statement("count_distinct")
        if distinct is not None:
            relation, sampled = _substitute_relations(distinct.from_relation, plan)
            parts.append(dataclasses.replace(distinct, from_relation=relation))
            fold.parts.append("count_distinct")
            hashed = [info.key_ratio for _, info in sampled if info.sample_type == "hashed"]
            fold.distinct_ratio = min([1.0, *hashed])
        extreme = builder.per_group_statement("extreme")
        if extreme is not None:
            parts.append(extreme)
            fold.parts.append("extreme")
        return RewriteOutput(
            parts=parts,
            fold=fold,
            group_columns=builder.group_output_names,
            estimate_columns=builder.estimate_columns,
        )

    def rewrite_count_distinct(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, plan: SamplePlan
    ) -> RewriteOutput:
        """Rewrite a query whose aggregates are all count(DISTINCT ...).

        This is :meth:`rewrite`: the query's one part counts each group's
        distinct values in the hashed (universe) sample and the fold scales
        them.  Kept by name for callers that time this kind of query.
        """
        return self.rewrite(statement, analysis, plan)

    # -- the mean-like part -------------------------------------------------------

    def _mean_like_part(
        self, builder: _FoldBuilder, analysis: QueryAnalysis, plan: SamplePlan
    ) -> tuple[ast.SelectStatement, int, bool]:
        """The per-(group, sid) statement, its subsample count ``b`` and
        whether its rows are weighted sample tuples (False for the outer
        level of a nested query, whose rows are per-group estimates)."""
        statement = builder.statement
        derived = statement.from_relation
        if analysis.is_nested_aggregate and isinstance(derived, ast.DerivedTable):
            variational_table, subsample_count = build_variational_derived_table(
                derived.query, plan
            )
            # The statement now aggregates complete per-subsample group
            # estimates, so no Horvitz–Thompson scaling applies at this level.
            part = builder.subsample_statement(
                ast.DerivedTable(query=variational_table, alias=derived.alias),
                probability=None,
                sid=ast.ColumnRef(SID_ALIAS, table=derived.alias),
                sub_size=ast.func("sum", ast.ColumnRef(ROWS_ALIAS, table=derived.alias)),
            )
            return part, subsample_count, False
        new_relation, sampled = _substitute_relations(statement.from_relation, plan)
        if not sampled:
            raise RewriteError("the sample plan does not use any sample table")
        subsample_count = sampled[0][1].subsample_count
        part = builder.subsample_statement(
            new_relation,
            probability=_probability_expression(sampled),
            sid=_sid_expression(sampled, subsample_count),
        )
        return part, subsample_count, True


def build_variational_derived_table(
    inner_statement: ast.SelectStatement, plan: SamplePlan
) -> tuple[ast.SelectStatement, int]:
    """Build the variational table of an aggregate derived table (Section 5.2).

    The result selects the derived table's original output columns (each
    aggregate replaced by its per-subsample full-group estimate), plus
    ``vdb_sid`` (the subsample id) and ``vdb_rows`` (the number of sample rows
    contributing to the row).  It is obtained in a single scan by grouping
    the original inner query additionally by the subsample id (Equation 6).
    """
    if inner_statement.having is not None or inner_statement.limit is not None or (
        inner_statement.offset is not None
    ):
        # Each keeps or drops whole groups, which a table of per-(group,
        # subsample) rows cannot decide.
        raise RewriteError("a derived table's HAVING, LIMIT or OFFSET is not approximated")
    new_relation, sampled = _substitute_relations(inner_statement.from_relation, plan)
    if not sampled:
        raise RewriteError("the sample plan does not use any sample table")
    subsample_count = sampled[0][1].subsample_count
    probability = _probability_expression(sampled)
    sid = _sid_expression(sampled, subsample_count)

    select_items: list[ast.SelectItem] = []
    for index, item in enumerate(inner_statement.select_items):
        name = item.output_name(index)
        expression = item.expression
        if contains_aggregate(expression):
            if not isinstance(expression, ast.FunctionCall):
                raise RewriteError(
                    "derived-table select items must be bare aggregates or grouping columns"
                )
            # The subsample's own estimate of the full group: a total's
            # partial sum times b (each subsample holds about 1/b of the
            # sample rows), a mean's ratio, a statistic as it is.
            value, *denominator = _building_blocks(expression, probability)
            kind = MEAN_LIKE[expression.name.lower()]
            if kind == "total":
                value = ast.BinaryOp("*", ast.Literal(subsample_count), value)
            elif kind == "mean":
                value = ast.BinaryOp("/", value, denominator[0])
            select_items.append(ast.SelectItem(value, alias=name))
        else:
            select_items.append(ast.SelectItem(expression, alias=name))
    select_items.append(ast.SelectItem(sid, alias=SID_ALIAS))
    select_items.append(ast.SelectItem(ast.func("count", ast.Star()), alias=ROWS_ALIAS))

    variational = ast.SelectStatement(
        select_items=select_items,
        from_relation=new_relation,
        where=inner_statement.where,
        group_by=list(inner_statement.group_by) + [sid],
    )
    return variational, subsample_count


# ---------------------------------------------------------------------------
# relation substitution, probability and sid expressions
# ---------------------------------------------------------------------------


def _substitute_relations(
    relation: ast.Relation | None, plan: SamplePlan
) -> tuple[ast.Relation | None, list[tuple[str, SampleInfo]]]:
    """Replace base tables with their chosen samples; keep binding names stable."""
    sampled: list[tuple[str, SampleInfo]] = []

    def visit(node: ast.Relation | None) -> ast.Relation | None:
        if node is None:
            return None
        if isinstance(node, ast.TableRef):
            info = plan.sample_for(node.name)
            if info is None:
                return node
            binding = node.binding_name
            sampled.append((binding, info))
            return ast.TableRef(name=info.sample_table, alias=binding)
        if isinstance(node, ast.Join):
            return dataclasses.replace(node, left=visit(node.left), right=visit(node.right))
        if isinstance(node, ast.DerivedTable):
            return node
        raise RewriteError(f"cannot substitute relation of type {type(node).__name__}")

    return visit(relation), sampled


def _probability_expression(sampled: list[tuple[str, SampleInfo]]) -> ast.Expression:
    """Joint inclusion probability of a joined row of the sampled relations.

    With a single sampled relation this is simply its probability column.
    With several sampled relations the planner only ever allows *universe*
    (hashed) samples joined on their hash key, whose inclusions are perfectly
    correlated: a joined row survives iff the key's hash is below every
    table's ratio, so the joint probability is the smallest of the per-table
    probabilities (Appendix E), not their product.
    """
    columns = [ast.ColumnRef(PROBABILITY_COLUMN, table=binding) for binding, _info in sampled]
    if len(columns) == 1:
        return columns[0]
    return ast.func("least", *columns)


def _sid_expression(sampled: list[tuple[str, SampleInfo]], subsample_count: int) -> ast.Expression:
    """Combine the subsample ids of the sampled relations with h(i, j) (Theorem 4)."""
    expression: ast.Expression | None = None
    for binding, _info in sampled:
        column: ast.Expression = ast.ColumnRef(SID_COLUMN, table=binding)
        if expression is None:
            expression = column
        else:
            expression = _h_expression(expression, column, subsample_count)
    assert expression is not None
    return expression


def _h_expression(left: ast.Expression, right: ast.Expression, subsample_count: int) -> ast.Expression:
    root = int(round(math.sqrt(subsample_count)))
    if root * root != subsample_count:
        raise RewriteError(
            f"joining samples requires a perfect-square subsample count, got {subsample_count}"
        )
    left_bucket = ast.func(
        "floor", ast.BinaryOp("/", ast.BinaryOp("-", left, ast.Literal(1)), ast.Literal(root))
    )
    right_bucket = ast.func(
        "floor", ast.BinaryOp("/", ast.BinaryOp("-", right, ast.Literal(1)), ast.Literal(root))
    )
    return ast.BinaryOp(
        "+",
        ast.BinaryOp("+", ast.BinaryOp("*", left_bucket, ast.Literal(root)), right_bucket),
        ast.Literal(1),
    )


def _building_blocks(
    node: ast.FunctionCall, probability: ast.Expression | None
) -> list[ast.Expression]:
    """A mean-like aggregate's building blocks over one subsample's rows.

    Over sample tuples, with ``probability`` each row's inclusion
    probability ``p``, they are Horvitz–Thompson sums: a total's
    ``sum(x / p)`` (a count's weight ``sum(1.0 / p)``), a mean's numerator
    ``sum(x / p)`` and the weight as its denominator.  With ``probability``
    None the rows are already per-group estimates (the outer level of a
    nested query) and the blocks are plain: ``sum(x)`` (``count(x)``), or
    ``sum(x)`` and ``count(x)``.  A weight counts only the rows whose ``x``
    is not NULL, ``sum(CASE WHEN x IS NOT NULL THEN 1.0 / p END)``, unless
    the count is ``count(*)``.  A statistic is its own block.  Any other
    aggregate, a DISTINCT one included, raises :class:`RewriteError`.
    """
    name = node.name.lower()
    if classify_aggregate(node) != "mean_like":
        raise RewriteError(f"aggregate {node.to_sql()!r} is not mean-like")
    kind = MEAN_LIKE[name]
    if kind == "statistic":
        return [dataclasses.replace(node)]
    if not node.args:
        if name != "count":
            raise RewriteError(f"aggregate {name!r} requires an argument")
        node = ast.func("count", ast.Star())
    argument = node.args[0]
    if probability is None:
        if name == "count":
            return [ast.func("count", argument)]
        blocks = [ast.func("sum", argument), ast.func("count", argument)]
    else:
        weight: ast.Expression = ast.BinaryOp("/", ast.Literal(1.0), probability)
        if not isinstance(argument, ast.Star):
            weight = ast.CaseWhen([(ast.IsNull(argument, negated=True), weight)])
        if name == "count":
            return [ast.func("sum", weight)]
        numerator = ast.func("sum", ast.BinaryOp("/", argument, probability))
        blocks = [numerator, ast.func("sum", weight)]
    return blocks[:1] if kind == "total" else blocks


# ---------------------------------------------------------------------------
# the parts and the fold that makes them one answer
# ---------------------------------------------------------------------------


@dataclass
class _AggregatePlan:
    """One aggregate of the statement and the columns its part returns for it.

    ``kind`` is how the fold reads it: ``total`` / ``mean`` / ``statistic``
    for a mean-like aggregate (:data:`~repro.core.query_info.MEAN_LIKE`),
    else ``count_distinct`` or ``extreme``, the kind of its part.
    ``denominator_alias`` names a mean's denominator.
    """

    node: ast.FunctionCall
    kind: str
    value_alias: str
    denominator_alias: str | None = None

    @property
    def part(self) -> str:
        return self.kind if self.kind in ("count_distinct", "extreme") else "mean_like"

    @property
    def is_count(self) -> bool:
        return self.kind == "total" and self.node.name.lower() == "count"


@dataclass
class SubsampleFold:
    """Makes the rows of a query's parts (Section 2.2) into its one answer.

    ``parts`` names the kind of each part's rows, in the order they are
    passed to :meth:`apply`.  The mean-like part returns one row per (group,
    subsample) with the subsample's size ``sub`` and each aggregate's
    building blocks ``v`` (and ``den`` for a mean).  Per group, with
    ``f = sqrt(avg(sub)) / sqrt(sum(sub))`` (Theorem 2) and ``b`` subsamples:

    * weighted total (``count``/``sum`` over sample tuples): ``sum(v)``, with
      error ``(b * stddev(v)) * f`` — ``b * v`` is one subsample's own
      estimate of the total;
    * mean: ``sum(v) / sum(den)``, with error ``stddev(v / den) * f``;
    * unweighted total (over a variational table) and statistic:
      ``sum(v * sub) / sum(sub)``, with error ``stddev(v) * f``.

    The count-distinct part returns one row per group with each aggregate's
    distinct count ``v`` in a hashed sample that keeps each value with
    probability ``tau`` (``distinct_ratio``).  Its estimate is ``v / tau``,
    and its error ``sqrt(v * (1 - tau)) / tau`` is the binomial spread of the
    kept share of the domain; with ``tau = 1`` the count is the answer as it
    is.  Divided in float64, as the engine and SQLite divide by a literal
    ``tau``, these are bit for bit what the SQL would compute.  The extreme
    part returns one exact row per group.  Groups are
    numbered by first appearance over the first part (mean-like, else
    count-distinct); every other part is aligned to them on the key codec,
    NULL meeting only NULL and 1 meeting 1.0, and a group it lacks reads
    NULL there.

    Then the statement's tail runs once over the G stitched rows, the
    engine's own :func:`~repro.sqlengine.tail.run_tail`: select-list
    arithmetic over aggregates of any kind, HAVING, ORDER BY, LIMIT and
    OFFSET, with each requested error column passed through after its
    estimate.  Groups are numbered through the engine's key codec, summed
    and dispersed by its aggregate kernels and combined with its division
    rule, operation for operation as a ``GROUP BY`` over these rows would
    be, so on the built-in engine a mean-like answer is bit-identical to
    running the combination as SQL.

    With no mean-like row at all, a grouped query has no group and an
    ungrouped one has one row: every ``count`` estimates 0, every other
    mean-like estimate and every mean-like error is NULL (no sample row
    gives no spread).

    ``tail`` is the statement's tail plan, its aggregate columns numbered
    as ``aggregates``; ``errors`` names the aggregate behind each of its
    pass-through (error) columns.
    """

    group_aliases: list[str]
    aggregates: list[_AggregatePlan]
    tail: TailPlan
    errors: list[int] = field(default_factory=list)
    weighted: bool = True
    subsample_count: int = 1
    distinct_ratio: float = 1.0
    parts: list[str] = field(default_factory=list)

    def apply(
        self,
        *parts: ResultSet,
        params: Mapping[str, object] | Sequence | None = None,
        subquery: Callable[[ast.SelectStatement], object] | None = None,
    ) -> ResultSet:
        """The answer (with error columns) from the rows of each part.

        ``params`` binds the tail's placeholders; ``subquery`` answers a
        scalar subquery in it (HAVING ``sum(x) > (SELECT ...)``).
        """
        inverse, groups, keys, untyped = self._number_groups(parts[0])
        wanted = set(self.errors)
        estimates: dict[int, np.ndarray] = {}
        errors: dict[int, np.ndarray] = {}
        key_values = [values for values, _codes in keys]
        for position, (kind, rows) in enumerate(zip(self.parts, parts)):
            if kind == "mean_like":
                self._combine(rows, inverse, groups, wanted, estimates, errors)
                continue
            if position == 0:
                at = np.full(groups, -1, dtype=np.int64)
                at[inverse] = np.arange(rows.num_rows)
            else:
                at = self._align(rows, key_values, groups)
            for index, plan in enumerate(self.aggregates):
                if plan.kind != kind:
                    continue
                value = rows.column(plan.value_alias)
                if kind == "count_distinct":
                    value, error = self._scale_distinct(value)
                    if index in wanted:
                        errors[index] = _take(error, at)
                estimates[index] = _take(value, at)
        columns = [estimates[index] for index in range(len(self.aggregates))]
        columns += [errors[index] for index in self.errors]
        context = EvaluationContext(groups, rng=None, params=params)
        return run_tail(
            self.tail, keys, columns, context, subquery,
            rank=_number_ranks if untyped else None,
        )

    def _number_groups(
        self, rows: ResultSet
    ) -> tuple[np.ndarray, int, list[tuple[np.ndarray, LazyCodes | None]], bool]:
        """Each row's group, numbered by first appearance, the group count,
        each group's keys with their codes, and whether the backend returned
        untyped values.

        A key's codes rank the normalized strings as the engine ranks a
        coded column; they come from the backend when it attached them.  A
        backend that returns untyped values (SQLite: even count(*) arrives
        as python objects) orders a column of numbers by value, so such a
        key gets no codes and the tail ranks it with :func:`_number_ranks`.
        """
        num_rows = rows.num_rows
        untyped = all(column.dtype == object for column in rows.columns())
        if not self.group_aliases:
            return np.zeros(num_rows, dtype=np.int64), 1, [], untyped
        encodings = rows.encodings()
        names = rows.column_names
        keys = [rows.column(alias) for alias in self.group_aliases]
        dictionaries = []
        coded = []
        for alias, values in zip(self.group_aliases, keys):
            lazy = encodings[names.index(alias)] if encodings else None
            encoded = lazy.resolve() if lazy is not None else None
            if encoded is None and values.dtype == object:
                encoded = encode_object_array(values)
            dictionaries.append(encoded)
            coded.append(encode_key(values, encoded))
        inverse, first = group_rows_encoded(coded, num_rows)
        columns: list[tuple[np.ndarray, LazyCodes | None]] = []
        for values, encoded in zip(keys, dictionaries):
            values = values[first]
            codes = None
            if encoded is not None and not (untyped and _number_ranks(values) is not None):
                codes = LazyCodes.presolved(encoded[0][first], encoded[1])
            columns.append((values, codes))
        return inverse, len(first), columns, untyped

    def _align(self, rows: ResultSet, keys: list[np.ndarray], groups: int) -> np.ndarray:
        """For each group, the row of a per-group part that holds it, or -1.

        The keys meet through the key codec with NULL as a key like any
        other: NULL meets only NULL, never the string ``'None'``, and an int
        meets a float of the same value.
        """
        at = np.full(groups, -1, dtype=np.int64)
        if not self.group_aliases:
            at[:] = 0 if rows.num_rows else -1
            return at
        if groups == 0 or rows.num_rows == 0:
            return at
        group_codes, row_codes = encode_join_keys(
            keys,
            [rows.column(alias) for alias in self.group_aliases],
            null_safe=[True] * len(keys),
        )
        order = np.argsort(row_codes, kind="stable")
        ranked = row_codes[order]
        found = np.minimum(np.searchsorted(ranked, group_codes), len(ranked) - 1)
        hit = ranked[found] == group_codes
        at[hit] = order[found[hit]]
        return at

    @cached_property
    def _mean_like(self) -> list[tuple[int, _AggregatePlan]]:
        return [
            (index, plan) for index, plan in enumerate(self.aggregates)
            if plan.part == "mean_like"
        ]

    def _scale_distinct(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A distinct count's estimate ``v / tau`` and its binomial error."""
        ratio = self.distinct_ratio
        values = as_float(counts)
        error = np.sqrt(values * (1.0 - ratio)) / ratio
        return (values / ratio if ratio < 1.0 else counts), error

    def _combine(
        self,
        rows: ResultSet,
        inverse: np.ndarray,
        groups: int,
        wanted: set[int],
        estimates: dict[int, np.ndarray],
        errors: dict[int, np.ndarray],
    ) -> None:
        """Each mean-like aggregate's estimate, and the errors in ``wanted``.

        Every ``sum`` and every ``stddev`` is equal bit for bit to its own
        aggregate (:func:`~repro.sqlengine.functions.group_sums`,
        :func:`~repro.sqlengine.functions.group_dispersions`).
        """
        plans = self._mean_like
        if rows.num_rows == 0 and not self.group_aliases:
            for index, plan in plans:
                estimates[index] = np.full(1, 0.0 if plan.is_count else np.nan)
                if index in wanted:
                    errors[index] = np.full(1, np.nan)
            return
        sizes = as_float(rows.column(SUB_SIZE_ALIAS))
        summed = [sizes]  # what to sum per group; [0] is sum(sub)
        blocks: list[tuple[int, _AggregatePlan, int]] = []
        spread_inputs: list[np.ndarray] = []
        for index, plan in plans:
            value = as_float(rows.column(plan.value_alias))
            blocks.append((index, plan, len(summed)))
            if plan.kind == "mean":
                denominator = as_float(rows.column(plan.denominator_alias))
                summed += [value, denominator]
                spread_of = divide(value, denominator)
            elif plan.kind == "total" and self.weighted:
                summed.append(value)
                spread_of = value
            else:
                summed.append(value * sizes)
                spread_of = value
            if index in wanted:
                spread_inputs.append(spread_of)
        sums = group_sums(summed, inverse, groups)
        total_size = sums[0]

        for index, plan, at in blocks:
            if plan.kind == "mean":
                estimates[index] = divide(sums[at], sums[at + 1])
            elif plan.kind == "total" and self.weighted:
                estimates[index] = sums[at]
            else:
                estimates[index] = divide(sums[at], total_size)

        if spread_inputs:
            # avg(sub), as the aggregate computes it from sum(sub).
            average_size = divide(total_size, group_counts(sizes, inverse, groups))
            factor = divide(np.sqrt(average_size), np.sqrt(total_size))
            spreads = iter(group_dispersions("stddev", spread_inputs, inverse, groups))
            for index, plan, _at in blocks:
                if index not in wanted:
                    continue
                spread = next(spreads)
                if plan.kind == "total" and self.weighted:
                    # b * v_i is subsample i's own estimate of the total.
                    spread = float(self.subsample_count) * spread
                errors[index] = spread * factor


def _take(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``values[at]``, NULL where ``at`` is -1: NaN in a numeric column
    (an int column becomes float64), None in any other."""
    missing = at < 0
    if not missing.any():
        taken: np.ndarray = values[at]
        return taken
    if values.dtype.kind in "iubf":
        taken = np.full(len(at), np.nan)
    else:
        taken = np.full(len(at), None, dtype=object)
    taken[~missing] = values[at[~missing]]
    return taken


def _number_ranks(values: np.ndarray) -> np.ndarray | None:
    """Sort codes of an object column holding only numbers and NULLs: the
    numbers' ranks by value (as floats), NULL first, as SQL sorts them.
    None when a value is not a number."""
    if not all(
        value is None or (isinstance(value, (int, float)) and not isinstance(value, bool))
        for value in values
    ):
        return None
    key = encode_key(np.array([np.nan if value is None else float(value) for value in values]))
    ranks: np.ndarray = np.where(key.codes == key.null_code, -1, key.codes)
    return ranks


class _FoldBuilder:
    """Builds a query's parts and the fold of their rows.

    Every aggregate of the statement gets one :class:`_AggregatePlan`,
    numbered in the order the analysis found them (select list, HAVING,
    ORDER BY), and ``vdb_val_<i>`` names its column in its part.

    Args:
        statement: the user's query.
        analysis: its :func:`~repro.core.query_info.analyze` result, which
            holds each aggregate's kind.
        include_errors: whether to emit ``*_err`` columns.
    """

    def __init__(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, include_errors: bool
    ) -> None:
        self.statement = statement
        self.include_errors = include_errors
        self.group_aliases: dict[str, str] = {
            expr.to_sql(): f"vdb_g{position}" for position, expr in enumerate(statement.group_by)
        }
        self.group_output_names: list[str] = []
        self.estimate_columns: dict[str, str | None] = {}
        self._aggregates: dict[str, _AggregatePlan] = {}
        for found in analysis.aggregates:
            key = found.sql_key
            if key in self._aggregates:
                continue
            if found.kind == "unsupported":
                raise RewriteError(f"aggregate {found.node.name!r} is not supported")
            index = len(self._aggregates)
            kind = MEAN_LIKE[found.node.name.lower()] if found.kind == "mean_like" else found.kind
            self._aggregates[key] = _AggregatePlan(
                node=found.node, kind=kind, value_alias=f"vdb_val_{index}",
                denominator_alias=f"vdb_den_{index}" if kind == "mean" else None,
            )

    def plans_of(self, part: str) -> list[_AggregatePlan]:
        return [plan for plan in self._aggregates.values() if plan.part == part]

    # -- the statements the backend runs ---------------------------------------------------

    def _group_items(self) -> list[ast.SelectItem]:
        return [
            ast.SelectItem(expr, alias=self.group_aliases[expr.to_sql()])
            for expr in self.statement.group_by
        ]

    def per_group_statement(self, part: str) -> ast.SelectStatement | None:
        """The statement of a per-group part (count-distinct or extreme):
        the group keys and the part's aggregates, with no tail."""
        plans = self.plans_of(part)
        if not plans:
            return None
        items = self._group_items() + [
            ast.SelectItem(dataclasses.replace(plan.node), alias=plan.value_alias)
            for plan in plans
        ]
        return dataclasses.replace(
            self.statement, select_items=items, having=None, order_by=[], limit=None, offset=None
        )

    def subsample_statement(
        self,
        from_relation: ast.Relation | None,
        probability: ast.Expression | None,
        sid: ast.Expression,
        sub_size: ast.Expression | None = None,
    ) -> ast.SelectStatement:
        """The mean-like part: one row per (group, sid).

        With a ``probability`` the rows are sample tuples with
        Horvitz–Thompson weights ``1 / probability``; without, they are
        already per-group estimates (the outer level of a nested query).
        ``sub_size`` is the subsample size column, ``count(*)`` by default.
        """
        select_items = self._group_items()
        # The subsample id is a grouping key only: the fold never reads it.
        select_items.append(
            ast.SelectItem(sub_size or ast.func("count", ast.Star()), alias=SUB_SIZE_ALIAS)
        )
        for plan in self.plans_of("mean_like"):
            aliases = (plan.value_alias, plan.denominator_alias)
            select_items += [
                ast.SelectItem(block, alias=alias)
                for block, alias in zip(_building_blocks(plan.node, probability), aliases)
            ]
        return ast.SelectStatement(
            select_items=select_items,
            from_relation=from_relation,
            where=self.statement.where,
            group_by=list(self.statement.group_by) + [sid],
        )

    # -- the fold of their rows ---------------------------------------------------------------

    def build_fold(self) -> SubsampleFold:
        """The fold, its ``parts`` left for the caller to fill in.

        Its tail is the statement's, with an error column passed through
        after each select item that is a mean-like or count-distinct
        aggregate as it stands.
        """
        passthrough: list[tuple[int, str]] = []
        error_keys: list[str] = []
        for index, item in enumerate(self.statement.select_items):
            name = item.output_name(index)
            if not contains_aggregate(item.expression):
                self.group_output_names.append(name)
                continue
            key = item.expression.to_sql()
            error_name = None
            plan = self._aggregates.get(key)
            if plan is not None and self.include_errors and plan.kind != "extreme":
                error_name = f"{name}_err"
                passthrough.append((index, error_name))
                error_keys.append(key)
            self.estimate_columns[name] = error_name
        try:
            tail = TailPlan(self.statement, passthrough)
        except ExecutionError as error:
            raise RewriteError(str(error)) from error
        _check_foldable(tail)
        numbered = [node.to_sql() for node in tail.aggregates]
        return SubsampleFold(
            group_aliases=[self.group_aliases[expr.to_sql()] for expr in self.statement.group_by],
            aggregates=[self._aggregates[key] for key in numbered],
            tail=tail,
            errors=[numbered.index(key) for key in error_keys],
        )


def _check_foldable(tail: TailPlan) -> None:
    """Raise :class:`RewriteError` unless the fold can run ``tail``.

    ``rand()`` would need the engine's random stream, so a tail holding it
    is left to exact execution.
    """
    expressions = [term for term, _ascending in tail.order if not isinstance(term, int)]
    expressions += [*tail.items, *filter(None, [tail.having])]
    for expression in expressions:
        for node in expression.walk():
            if isinstance(node, ast.FunctionCall) and is_nondeterministic_function(node.name):
                raise RewriteError(f"cannot fold {expression.to_sql()!r} over aggregates")

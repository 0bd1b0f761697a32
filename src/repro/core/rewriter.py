"""AQP Rewriter: turns an exact aggregate query into its approximate form.

The rewrite follows the two-level structure of Appendix G.  The *inner*
query runs on the chosen sample tables and, for every (grouping keys,
subsample id) combination, computes the Horvitz–Thompson building blocks of
each aggregate plus the subsample's size.  The *outer* query combines them:

* the **answer** is the full-sample estimate (the per-subsample partial sums
  added back together — for ``sum``/``count`` this is exactly the
  Horvitz–Thompson estimator, for ``avg`` the ratio estimator);
* the **error** is the variational-subsampling standard error
  ``stddev(est_i) * sqrt(avg(sub_size)) / sqrt(sum(sub_size))`` where
  ``est_i`` is the i-th subsample's own estimate of the aggregate
  (Theorem 2).  For totals (``sum``/``count``) the subsample's partial sum is
  scaled by the number of subsamples ``b`` to make it a full-group estimate.

Joins of two sample tables combine their subsample ids with ``h(i, j)``
(Theorem 4) and multiply their inclusion probabilities.  Nested aggregate
queries (Section 5.2) first turn the derived table into its variational
table — the original inner query grouped additionally by the subsample id,
each aggregate replaced by its per-subsample full-group estimate — and then
aggregate that variational table at the outer level.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.core.query_info import QueryAnalysis
from repro.core.sample_planner import SamplePlan
from repro.errors import RewriteError
from repro.sampling.params import PROBABILITY_COLUMN, SID_COLUMN, SampleInfo
from repro.sqlengine import sqlast as ast
from repro.sqlengine.expressions import contains_aggregate
from repro.sqlengine.functions import is_aggregate_function


INNER_ALIAS = "vdb_inner"
SID_ALIAS = "vdb_sid"
SUB_SIZE_ALIAS = "vdb_sub_size"
ROWS_ALIAS = "vdb_rows"

_TOTAL_AGGREGATES = frozenset({"count", "sum"})
_MEAN_AGGREGATES = frozenset({"avg", "mean"})
_STATISTIC_AGGREGATES = frozenset(
    {
        "stddev", "stddev_samp", "stddev_pop", "var", "variance", "var_samp", "var_pop",
        "median", "percentile", "quantile", "percentile_disc",
    }
)


@dataclass
class RewriteOutput:
    """The rewritten statement plus the schema of its result."""

    statement: ast.SelectStatement
    group_columns: list[str] = field(default_factory=list)
    estimate_columns: dict[str, str | None] = field(default_factory=dict)
    plan: SamplePlan | None = None
    subsample_count: int = 100

    @property
    def error_columns(self) -> list[str]:
        return [name for name in self.estimate_columns.values() if name]


@dataclass
class PreparedRewrite:
    """Everything the middleware derives from one (query, sample plan) pair.

    Produced once by decomposition + rewriting and then reused verbatim for
    every repetition of the query, so dashboards and repeated workloads only
    pay execution cost — not parse/flatten/analyze/rewrite cost — per call.
    The rendered SQL of each part is kept alongside its statement so cache
    hits execute the stored text directly instead of re-rendering the AST.
    """

    primary: RewriteOutput | None = None
    primary_sql: str | None = None
    distinct: RewriteOutput | None = None
    distinct_sql: str | None = None
    extreme_statement: ast.SelectStatement | None = None
    extreme_sql: str | None = None
    extreme_columns: dict[str, str | None] = field(default_factory=dict)
    group_names: list[str] = field(default_factory=list)
    rewritten_sql_parts: list[str] = field(default_factory=list)


def plan_signature(plan: SamplePlan) -> tuple:
    """Stable identity of a sample plan, for rewrite-cache keys.

    Two plans that assign the same sample table (or lack of one) to every
    base table produce the same rewritten SQL, so the assignment map is the
    whole identity.  Sample *metadata* changes (ratios after an append) move
    the backend version token the cached rewrite is filed under.
    """
    return tuple(
        sorted(
            (table, info.sample_table if info is not None else None)
            for table, info in plan.assignments.items()
        )
    )


class AqpRewriter:
    """Rewrites supported queries into their variational-subsampling form."""

    def __init__(self, include_errors: bool = True) -> None:
        self.include_errors = include_errors

    # -- public entry points ------------------------------------------------------

    def rewrite(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, plan: SamplePlan
    ) -> RewriteOutput:
        """Rewrite a query whose aggregates are all mean-like.

        Queries whose only fact source is an aggregate derived table use the
        nested rewrite (Section 5.2).  Queries that also reference base tables
        at the outer level (e.g. flattened comparison subqueries) use the
        flat/join rewrite: the base tables are replaced by samples while the
        derived table — typically a small aggregate over a dimension-sized
        group — is computed exactly.
        """
        if analysis.is_nested_aggregate and not analysis.outer_base_tables:
            return self._rewrite_nested(statement, analysis, plan)
        return self._rewrite_flat(statement, analysis, plan)

    def rewrite_count_distinct(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, plan: SamplePlan
    ) -> RewriteOutput:
        """Rewrite a query whose aggregates are all count(DISTINCT ...).

        Count-distinct is answered from a hashed (universe) sample: the hash
        partitions the value domain, so the distinct values present in the
        sample are a ``tau`` fraction of the domain and the answer is scaled
        by ``1 / tau``.  The error comes from the binomial variance of the
        observed-domain size.
        """
        new_relation, sampled = _substitute_relations(statement.from_relation, plan)
        ratio = 1.0
        for _binding, info in sampled:
            if info.sample_type == "hashed":
                ratio = min(ratio, info.effective_ratio)
        output = RewriteOutput(statement=statement, plan=plan)
        select_items: list[ast.SelectItem] = []
        for index, item in enumerate(statement.select_items):
            name = item.output_name(index)
            if not contains_aggregate(item.expression):
                select_items.append(ast.SelectItem(item.expression, alias=name))
                output.group_columns.append(name)
                continue
            if not isinstance(item.expression, ast.FunctionCall):
                raise RewriteError("count-distinct items must be bare aggregates")
            scaled: ast.Expression = item.expression
            if ratio < 1.0:
                scaled = ast.BinaryOp("/", item.expression, ast.Literal(float(ratio)))
            select_items.append(ast.SelectItem(scaled, alias=name))
            error_name = None
            if self.include_errors:
                error_name = f"{name}_err"
                error_expr = ast.BinaryOp(
                    "/",
                    ast.func(
                        "sqrt",
                        ast.BinaryOp(
                            "*", item.expression, ast.Literal(max(0.0, 1.0 - ratio))
                        ),
                    ),
                    ast.Literal(float(ratio)),
                )
                select_items.append(ast.SelectItem(error_expr, alias=error_name))
            output.estimate_columns[name] = error_name
        output.statement = dataclasses.replace(
            statement, select_items=select_items, from_relation=new_relation
        )
        return output

    # -- flat and join queries ----------------------------------------------------

    def _rewrite_flat(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, plan: SamplePlan
    ) -> RewriteOutput:
        new_relation, sampled = _substitute_relations(statement.from_relation, plan)
        if not sampled:
            raise RewriteError("the sample plan does not use any sample table")
        subsample_count = sampled[0][1].subsample_count
        probability = _probability_expression(sampled)
        sid = _sid_expression(sampled, subsample_count)
        builder = _TwoLevelBuilder(
            original=statement,
            include_errors=self.include_errors,
            probability=probability,
            sid=sid,
            subsample_count=subsample_count,
            weighted=True,
        )
        inner = builder.build_inner(new_relation, statement.where)
        outer = builder.build_outer(inner)
        return RewriteOutput(
            statement=outer,
            group_columns=builder.group_output_names,
            estimate_columns=builder.estimate_columns,
            plan=plan,
            subsample_count=subsample_count,
        )

    # -- nested aggregate queries (Section 5.2) -------------------------------------

    def _rewrite_nested(
        self, statement: ast.SelectStatement, analysis: QueryAnalysis, plan: SamplePlan
    ) -> RewriteOutput:
        if len(analysis.derived_tables) != 1:
            raise RewriteError("nested rewrite requires exactly one derived table")
        derived = analysis.derived_tables[0]
        variational_table, subsample_count = build_variational_derived_table(
            derived.query, plan
        )
        new_derived = ast.DerivedTable(query=variational_table, alias=derived.alias)

        # The outer query now aggregates complete per-subsample group
        # estimates, so no Horvitz–Thompson scaling applies at this level.
        outer_builder = _TwoLevelBuilder(
            original=statement,
            include_errors=self.include_errors,
            probability=ast.Literal(1.0),
            sid=ast.ColumnRef(SID_ALIAS, table=derived.alias),
            subsample_count=subsample_count,
            weighted=False,
            sub_size_source=ast.func("sum", ast.ColumnRef(ROWS_ALIAS, table=derived.alias)),
        )
        inner = outer_builder.build_inner(new_derived, statement.where)
        outer = outer_builder.build_outer(inner)
        return RewriteOutput(
            statement=outer,
            group_columns=outer_builder.group_output_names,
            estimate_columns=outer_builder.estimate_columns,
            plan=plan,
            subsample_count=subsample_count,
        )


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
            estimator = _subsample_estimate(
                expression, probability, subsample_count, scaled=True
            )
            select_items.append(ast.SelectItem(estimator, alias=name))
        else:
            select_items.append(ast.SelectItem(expression, alias=name))
    select_items.append(ast.SelectItem(sid, alias=SID_ALIAS))
    select_items.append(ast.SelectItem(ast.func("count", ast.Star()), alias=ROWS_ALIAS))

    variational = ast.SelectStatement(
        select_items=select_items,
        from_relation=new_relation,
        where=inner_statement.where,
        group_by=list(inner_statement.group_by) + [sid],
        having=inner_statement.having,
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


def _subsample_estimate(
    node: ast.FunctionCall,
    probability: ast.Expression,
    subsample_count: int,
    scaled: bool,
) -> ast.Expression:
    """A single subsample's estimate of the full-group aggregate.

    With ``scaled=True`` the partial Horvitz–Thompson sums are multiplied by
    the number of subsamples ``b`` (each subsample holds roughly ``1/b`` of
    the sample rows); with ``scaled=False`` the aggregate is taken as is
    (used at the outer level of nested queries where rows are already
    per-group estimates).
    """
    name = node.name.lower()
    inverse_probability = ast.BinaryOp("/", ast.Literal(1.0), probability)
    b = ast.Literal(subsample_count)
    if name == "count":
        if not scaled:
            return ast.func("count", ast.Star())
        return ast.BinaryOp("*", b, ast.func("sum", inverse_probability))
    if not node.args:
        raise RewriteError(f"aggregate {name!r} requires an argument")
    argument = node.args[0]
    scaled_argument = ast.BinaryOp("/", argument, probability)
    if name == "sum":
        if not scaled:
            return ast.func("sum", argument)
        return ast.BinaryOp("*", b, ast.func("sum", scaled_argument))
    if name in _MEAN_AGGREGATES:
        if not scaled:
            return ast.func("avg", argument)
        return ast.BinaryOp(
            "/", ast.func("sum", scaled_argument), ast.func("sum", inverse_probability)
        )
    if name in _STATISTIC_AGGREGATES:
        return dataclasses.replace(node)
    raise RewriteError(f"aggregate {name!r} is not mean-like")


# ---------------------------------------------------------------------------
# the two-level (inner building blocks / outer combination) builder
# ---------------------------------------------------------------------------


@dataclass
class _AggregatePlan:
    """Inner-query columns and outer-query expressions for one aggregate."""

    node: ast.FunctionCall
    kind: str  # 'total' | 'mean' | 'statistic'
    value_alias: str
    extra_alias: str | None = None


class _TwoLevelBuilder:
    """Builds the inner per-subsample query and the outer combining query.

    Args:
        original: the user's (decomposed) query.
        include_errors: whether to emit ``*_err`` columns.
        probability: SQL expression for the joint inclusion probability.
        sid: SQL expression for the (combined) subsample id.
        subsample_count: number of subsamples ``b``.
        weighted: True for the flat/join rewrite (rows are sample tuples with
            Horvitz–Thompson weights); False for the outer level of nested
            queries (rows are already per-group estimates).
        sub_size_source: expression for the subsample size column.
    """

    def __init__(
        self,
        original: ast.SelectStatement,
        include_errors: bool,
        probability: ast.Expression,
        sid: ast.Expression,
        subsample_count: int,
        weighted: bool,
        sub_size_source: ast.Expression | None = None,
    ) -> None:
        self.original = original
        self.include_errors = include_errors
        self.probability = probability
        self.sid = sid
        self.subsample_count = subsample_count
        self.weighted = weighted
        self.sub_size_source = sub_size_source or ast.func("count", ast.Star())

        self.group_aliases: dict[str, str] = {}
        self.group_output_names: list[str] = []
        self.estimate_columns: dict[str, str | None] = {}
        self._aggregates: dict[str, _AggregatePlan] = {}
        self._collect_structure()

    # -- analysis -------------------------------------------------------------------

    def _collect_structure(self) -> None:
        for position, expr in enumerate(self.original.group_by):
            self.group_aliases[expr.to_sql()] = f"vdb_g{position}"

        expressions: list[ast.Expression] = [
            item.expression
            for item in self.original.select_items
            if not isinstance(item.expression, ast.Star)
        ]
        if self.original.having is not None:
            expressions.append(self.original.having)
        expressions.extend(item.expression for item in self.original.order_by)
        for expression in expressions:
            for node in expression.walk():
                if (
                    isinstance(node, ast.FunctionCall)
                    and is_aggregate_function(node.name)
                    and not any(contains_aggregate(argument) for argument in node.args)
                ):
                    key = node.to_sql()
                    if key in self._aggregates:
                        continue
                    index = len(self._aggregates)
                    name = node.name.lower()
                    if name in _TOTAL_AGGREGATES:
                        kind = "total"
                    elif name in _MEAN_AGGREGATES:
                        kind = "mean"
                    elif name in _STATISTIC_AGGREGATES:
                        kind = "statistic"
                    else:
                        raise RewriteError(f"aggregate {name!r} is not mean-like")
                    extra = f"vdb_den_{index}" if kind == "mean" else None
                    self._aggregates[key] = _AggregatePlan(
                        node=node, kind=kind, value_alias=f"vdb_val_{index}", extra_alias=extra
                    )

    # -- inner query -------------------------------------------------------------------

    def build_inner(
        self, from_relation: ast.Relation | None, where: ast.Expression | None
    ) -> ast.SelectStatement:
        select_items: list[ast.SelectItem] = []
        for expr in self.original.group_by:
            select_items.append(ast.SelectItem(expr, alias=self.group_aliases[expr.to_sql()]))
        # The subsample id is a grouping key only: no outer query reads it.
        select_items.append(ast.SelectItem(self.sub_size_source, alias=SUB_SIZE_ALIAS))
        inverse_probability = ast.BinaryOp("/", ast.Literal(1.0), self.probability)
        for plan in self._aggregates.values():
            name = plan.node.name.lower()
            if plan.kind == "total":
                if name == "count":
                    value = (
                        ast.func("sum", inverse_probability)
                        if self.weighted
                        else ast.func("count", ast.Star())
                    )
                else:
                    argument = plan.node.args[0]
                    value = (
                        ast.func("sum", ast.BinaryOp("/", argument, self.probability))
                        if self.weighted
                        else ast.func("sum", argument)
                    )
                select_items.append(ast.SelectItem(value, alias=plan.value_alias))
            elif plan.kind == "mean":
                argument = plan.node.args[0]
                numerator = (
                    ast.func("sum", ast.BinaryOp("/", argument, self.probability))
                    if self.weighted
                    else ast.func("sum", argument)
                )
                denominator = (
                    ast.func("sum", inverse_probability)
                    if self.weighted
                    else ast.func("count", argument)
                )
                select_items.append(ast.SelectItem(numerator, alias=plan.value_alias))
                select_items.append(ast.SelectItem(denominator, alias=plan.extra_alias))
            else:  # statistic
                select_items.append(
                    ast.SelectItem(dataclasses.replace(plan.node), alias=plan.value_alias)
                )
        return ast.SelectStatement(
            select_items=select_items,
            from_relation=from_relation,
            where=where,
            group_by=list(self.original.group_by) + [self.sid],
        )

    # -- outer query --------------------------------------------------------------------

    def build_outer(self, inner: ast.SelectStatement) -> ast.SelectStatement:
        from_relation = ast.DerivedTable(query=inner, alias=INNER_ALIAS)
        sub_size = ast.ColumnRef(SUB_SIZE_ALIAS)
        total_size = ast.func("sum", sub_size)
        average_size = ast.func("avg", sub_size)
        size_factor = ast.BinaryOp(
            "/", ast.func("sqrt", average_size), ast.func("sqrt", total_size)
        )

        combined: dict[str, ast.Expression] = {}
        error_expressions: dict[str, ast.Expression] = {}
        for key, plan in self._aggregates.items():
            value = ast.ColumnRef(plan.value_alias)
            if plan.kind == "total":
                if self.weighted:
                    # Answer: the full Horvitz–Thompson estimate (partial sums
                    # added back together).  Error: each subsample's partial
                    # sum times b is that subsample's own estimate of the
                    # total, so stddev is scaled by b.
                    combined[key] = ast.func("sum", value)
                    spread = ast.BinaryOp(
                        "*", ast.Literal(self.subsample_count), ast.func("stddev", value)
                    )
                else:
                    combined[key] = ast.BinaryOp(
                        "/", ast.func("sum", ast.BinaryOp("*", value, sub_size)), total_size
                    )
                    spread = ast.func("stddev", value)
            elif plan.kind == "mean":
                denominator = ast.ColumnRef(plan.extra_alias)
                combined[key] = ast.BinaryOp(
                    "/", ast.func("sum", value), ast.func("sum", denominator)
                )
                spread = ast.func("stddev", ast.BinaryOp("/", value, denominator))
            else:  # statistic
                combined[key] = ast.BinaryOp(
                    "/", ast.func("sum", ast.BinaryOp("*", value, sub_size)), total_size
                )
                spread = ast.func("stddev", value)
            error_expressions[key] = ast.BinaryOp("*", spread, size_factor)

        select_items: list[ast.SelectItem] = []
        for index, item in enumerate(self.original.select_items):
            name = item.output_name(index)
            expression = item.expression
            key = expression.to_sql()
            if not contains_aggregate(expression):
                select_items.append(
                    ast.SelectItem(ast.ColumnRef(self._group_column_for(expression)), alias=name)
                )
                self.group_output_names.append(name)
                continue
            substituted = _substitute_aggregates(expression, combined)
            select_items.append(ast.SelectItem(substituted, alias=name))
            error_name = None
            if self.include_errors and key in error_expressions:
                error_name = f"{name}_err"
                select_items.append(ast.SelectItem(error_expressions[key], alias=error_name))
            self.estimate_columns[name] = error_name

        having = None
        if self.original.having is not None:
            having = _substitute_aggregates(self.original.having, combined)

        order_by: list[ast.OrderItem] = []
        for order_item in self.original.order_by:
            expression = order_item.expression
            if contains_aggregate(expression):
                expression = _substitute_aggregates(expression, combined)
            elif expression.to_sql() in self.group_aliases:
                expression = ast.ColumnRef(self.group_aliases[expression.to_sql()])
            elif isinstance(expression, ast.ColumnRef):
                expression = self._resolve_outer_column(expression)
            order_by.append(dataclasses.replace(order_item, expression=expression))

        group_by = [
            ast.ColumnRef(self.group_aliases[expr.to_sql()]) for expr in self.original.group_by
        ]
        return ast.SelectStatement(
            select_items=select_items,
            from_relation=from_relation,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=self.original.limit,
            offset=self.original.offset,
        )

    # -- helpers ------------------------------------------------------------------------

    def _group_column_for(self, expression: ast.Expression) -> str:
        key = expression.to_sql()
        if key in self.group_aliases:
            return self.group_aliases[key]
        if isinstance(expression, ast.ColumnRef):
            for group_sql, alias in self.group_aliases.items():
                group_expr = _group_expr_by_sql(self.original.group_by, group_sql)
                if (
                    isinstance(group_expr, ast.ColumnRef)
                    and group_expr.name.lower() == expression.name.lower()
                ):
                    return alias
        raise RewriteError(f"select item {key!r} does not match any grouping expression")

    def _resolve_outer_column(self, column: ast.ColumnRef) -> ast.Expression:
        """Map an ORDER BY column reference onto the outer query's columns."""
        for position, item in enumerate(self.original.select_items):
            if item.output_name(position).lower() == column.name.lower():
                return ast.ColumnRef(item.output_name(position))
        for group_sql, alias in self.group_aliases.items():
            group_expr = _group_expr_by_sql(self.original.group_by, group_sql)
            if (
                isinstance(group_expr, ast.ColumnRef)
                and group_expr.name.lower() == column.name.lower()
            ):
                return ast.ColumnRef(alias)
        return ast.ColumnRef(column.name)


def _group_expr_by_sql(group_by: list[ast.Expression], sql: str) -> ast.Expression | None:
    for expr in group_by:
        if expr.to_sql() == sql:
            return expr
    return None


def _substitute_aggregates(
    expression: ast.Expression, combined: dict[str, ast.Expression]
) -> ast.Expression:
    """Replace each aggregate call with its outer-level combination expression."""
    key = expression.to_sql()
    if key in combined:
        return combined[key]
    if isinstance(expression, (ast.Literal, ast.ColumnRef, ast.Star)):
        return expression
    if isinstance(expression, ast.UnaryOp):
        return dataclasses.replace(
            expression, operand=_substitute_aggregates(expression.operand, combined)
        )
    if isinstance(expression, ast.BinaryOp):
        return dataclasses.replace(
            expression,
            left=_substitute_aggregates(expression.left, combined),
            right=_substitute_aggregates(expression.right, combined),
        )
    if isinstance(expression, ast.FunctionCall):
        return dataclasses.replace(
            expression,
            args=[_substitute_aggregates(argument, combined) for argument in expression.args],
        )
    if isinstance(expression, ast.CaseWhen):
        return dataclasses.replace(
            expression,
            whens=[
                (
                    _substitute_aggregates(condition, combined),
                    _substitute_aggregates(result, combined),
                )
                for condition, result in expression.whens
            ],
            else_result=(
                None
                if expression.else_result is None
                else _substitute_aggregates(expression.else_result, combined)
            ),
        )
    return expression

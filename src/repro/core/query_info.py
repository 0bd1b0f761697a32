"""Query analysis: which aggregates a query computes and whether AQP applies.

The middleware only speeds up the query class of Table 1 (mean-like
aggregates over equi-joined base/derived tables).  Everything else is passed
through to the underlying database unchanged, so the analysis step must
decide — without executing anything — whether the query is supported and how
its aggregates should be decomposed (Section 2.2):

* *mean-like* aggregates (count, sum, avg, stddev, var, quantile) go through
  the variational-subsampling rewrite;
* *count-distinct* aggregates are answered from a hashed (universe) sample;
* *extreme* aggregates (min/max) are computed exactly on the base tables;
* anything else, another DISTINCT aggregate included, makes the query
  unsupported.

Every aggregate counts, wherever it stands: the select list, HAVING and
ORDER BY.  So a ``count(DISTINCT)`` that only filters groups still asks the
planner for a hashed sample, and an unsupported aggregate in the tail sends
the query to exact execution.  :data:`MEAN_LIKE` is the one list of
mean-like names; the rewriter reads from it how the fold combines each one.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

from repro.sqlengine import sqlast as ast
from repro.sqlengine.expressions import contains_aggregate
from repro.sqlengine.functions import is_aggregate_function
from repro.sqlengine.tail import group_reference


#: The mean-like aggregates, each with how the fold combines the estimates
#: of its subsamples: a ``total`` adds them up, a ``mean`` divides summed
#: numerators by summed denominators, a ``statistic`` averages them weighted
#: by subsample size (see :class:`~repro.core.rewriter.SubsampleFold`).
MEAN_LIKE: dict[str, str] = {
    "count": "total", "sum": "total", "avg": "mean", "mean": "mean",
    **dict.fromkeys(
        (
            "stddev", "stddev_samp", "stddev_pop", "var", "variance", "var_samp",
            "var_pop", "median", "percentile", "quantile", "percentile_disc",
        ),
        "statistic",
    ),
}
EXTREME = frozenset({"min", "max"})


@dataclass(frozen=True)
class AggregateRef:
    """One aggregate call found in the select list, HAVING or ORDER BY.

    ``output_name`` names the select item holding it; None for an aggregate
    of the tail.
    """

    node: ast.FunctionCall
    output_name: str | None
    kind: str  # 'mean_like' | 'count_distinct' | 'extreme' | 'unsupported'

    @property
    def sql_key(self) -> str:
        return self.node.to_sql()


@dataclass
class QueryAnalysis:
    """Everything the planner and rewriter need to know about a query."""

    statement: ast.SelectStatement
    aggregates: list[AggregateRef] = field(default_factory=list)
    base_tables: list[ast.TableRef] = field(default_factory=list)
    derived_tables: list[ast.DerivedTable] = field(default_factory=list)
    is_nested_aggregate: bool = False
    supported: bool = True
    unsupported_reason: str = ""

    @property
    def mean_like(self) -> list[AggregateRef]:
        return [agg for agg in self.aggregates if agg.kind == "mean_like"]

    @property
    def count_distinct(self) -> list[AggregateRef]:
        return [agg for agg in self.aggregates if agg.kind == "count_distinct"]


def classify_aggregate(node: ast.FunctionCall) -> str:
    """Classify an aggregate call into the paper's decomposition categories.

    Of the DISTINCT aggregates only ``count`` is estimated; any other, such
    as ``sum(DISTINCT x)``, is unsupported and runs exactly.
    """
    name = node.name.lower()
    if node.distinct:
        return "count_distinct" if name == "count" else "unsupported"
    if name in MEAN_LIKE:
        return "mean_like"
    if name in EXTREME:
        return "extreme"
    return "unsupported"


def analyze(statement: ast.SelectStatement) -> QueryAnalysis:
    """Analyse a parsed SELECT statement.

    The returned analysis marks the query unsupported (rather than raising)
    when it falls outside the Table 1 class, so the caller can pass it
    through to the underlying database unchanged.
    """
    analysis = QueryAnalysis(statement=statement)
    analysis.base_tables = ast.base_tables(statement.from_relation)
    _collect_relations(statement.from_relation, analysis)

    places: list[tuple[ast.Expression, str | None]] = [
        (item.expression, item.output_name(index))
        for index, item in enumerate(statement.select_items)
        if not isinstance(item.expression, ast.Star)
    ]
    if statement.having is not None:
        places.append((statement.having, None))
    places.extend((item.expression, None) for item in statement.order_by)
    for expression, name in places:
        for node in expression.walk():
            if isinstance(node, ast.FunctionCall) and is_aggregate_function(node.name):
                if any(contains_aggregate(argument) for argument in node.args):
                    continue
                analysis.aggregates.append(
                    AggregateRef(node=node, output_name=name, kind=classify_aggregate(node))
                )

    _check_supported(analysis)
    return analysis


#: The owning base table (lower-cased) of each bound column reference, keyed
#: by the ``id()`` of its ``ColumnRef`` node in the bound statement.
ColumnOwners = dict[int, str]


def bind_columns(
    statement: ast.SelectStatement, columns: Mapping[str, Collection[str]]
) -> ColumnOwners:
    """Bind each column reference of ``statement`` to the base table owning it.

    ``columns`` is the catalog: each base table's column names, keyed by
    lower-cased table name.  Each SELECT scope (the statement, each derived
    table's query) binds its own clauses: a qualifier through the scope's
    FROM aliases, an unqualified name through the catalog columns of the
    scope's tables.  A derived table's output, a name that two relations of
    the scope have (as in a self-join) or that none has, and a column of a
    scalar subquery get no owner.
    """
    owners: ColumnOwners = {}
    scopes = [statement]
    while scopes:
        query = scopes.pop()
        # Each relation's binding name -> its base table (None: a derived
        # table) and the names it exposes (None: any, a derived SELECT *).
        relations: dict[str, tuple[str | None, set[str] | None]] = {}
        expressions = [query.where, query.having, *query.group_by]
        expressions += [item.expression for item in (*query.select_items, *query.order_by)]
        pending = [query.from_relation]
        while pending:
            relation = pending.pop()
            if isinstance(relation, ast.Join):
                pending += [relation.left, relation.right]
                expressions.append(relation.condition)
            elif isinstance(relation, ast.TableRef):
                table = relation.name.lower()
                names = {name.lower() for name in columns.get(table, ())}
                relations[relation.binding_name.lower()] = (table, names)
            elif isinstance(relation, ast.DerivedTable):
                scopes.append(relation.query)
                items = relation.query.select_items
                names = {item.output_name(i).lower() for i, item in enumerate(items)}
                relations[relation.alias.lower()] = (None, None if "*" in names else names)
        for expression in filter(None, expressions):
            for node in expression.walk():
                if not isinstance(node, ast.ColumnRef):
                    continue
                if node.table is not None:
                    owner = relations.get(node.table.lower(), (None, None))[0]
                else:
                    name = node.name.lower()
                    matches = [
                        table for table, names in relations.values()
                        if names is None or name in names
                    ]
                    owner = matches[0] if len(matches) == 1 else None
                if owner is not None:
                    owners[id(node)] = owner
    return owners


def _collect_relations(relation: ast.Relation | None, analysis: QueryAnalysis) -> None:
    if isinstance(relation, ast.Join):
        _collect_relations(relation.left, analysis)
        _collect_relations(relation.right, analysis)
    elif isinstance(relation, ast.DerivedTable):
        analysis.derived_tables.append(relation)
        if relation.query.group_by or any(
            not isinstance(item.expression, ast.Star) and contains_aggregate(item.expression)
            for item in relation.query.select_items
        ):
            analysis.is_nested_aggregate = True


def _check_supported(analysis: QueryAnalysis) -> None:
    statement = analysis.statement

    if statement.from_relation is None:
        analysis.supported = False
        analysis.unsupported_reason = "query has no FROM clause"
        return
    if not analysis.aggregates:
        analysis.supported = False
        analysis.unsupported_reason = "query has no aggregate functions"
        return
    if any(agg.kind == "unsupported" for agg in analysis.aggregates):
        names = {agg.node.name for agg in analysis.aggregates if agg.kind == "unsupported"}
        analysis.supported = False
        analysis.unsupported_reason = f"unsupported aggregate functions: {sorted(names)}"
        return
    if not analysis.mean_like and not analysis.count_distinct:
        analysis.supported = False
        analysis.unsupported_reason = "only extreme statistics (min/max) requested"
        return
    if statement.distinct:
        analysis.supported = False
        analysis.unsupported_reason = "SELECT DISTINCT is not approximated"
        return
    if _has_remaining_subquery(statement):
        analysis.supported = False
        analysis.unsupported_reason = (
            "non-comparison subqueries (IN/EXISTS/select-clause) are not approximated"
        )
        return
    if len(analysis.derived_tables) > 1:
        analysis.supported = False
        analysis.unsupported_reason = "queries with multiple derived tables are not approximated"
        return
    if any(
        isinstance(expr, ast.WindowFunction)
        for item in statement.select_items
        if not isinstance(item.expression, ast.Star)
        for expr in item.expression.walk()
    ):
        analysis.supported = False
        analysis.unsupported_reason = "window functions are not approximated"
        return

    # Non-aggregate select items must name grouping keys, otherwise the
    # rewrite cannot reproduce them.
    for item in statement.select_items:
        expression = item.expression
        if isinstance(expression, ast.Star):
            analysis.supported = False
            analysis.unsupported_reason = "SELECT * cannot be combined with approximation"
            return
        if contains_aggregate(expression):
            continue
        if group_reference(expression, statement.group_by) is not None:
            continue
        analysis.supported = False
        analysis.unsupported_reason = (
            f"select item {expression.to_sql()!r} is neither an aggregate nor a grouping column"
        )
        return


def _has_remaining_subquery(statement: ast.SelectStatement) -> bool:
    """True when a scalar subquery is still present in WHERE or the select list.

    Comparison subqueries should already have been flattened into joins by the
    flattener; anything left is unsupported.
    """
    expressions: list[ast.Expression] = []
    if statement.where is not None:
        expressions.append(statement.where)
    expressions.extend(
        item.expression
        for item in statement.select_items
        if not isinstance(item.expression, ast.Star)
    )
    for expression in expressions:
        for node in expression.walk():
            if isinstance(node, ast.ScalarSubquery):
                return True
    return False

"""Query analysis: which aggregates a query computes and whether AQP applies.

The middleware only speeds up the query class of Table 1; everything else is
passed through to the underlying database unchanged.  So the analysis
decides, without executing anything, how a query's aggregates decompose
(Section 2.2) — *mean-like* ones (:data:`MEAN_LIKE`, the one list of them)
through variational subsampling, ``count(DISTINCT)`` from a hashed
(universe) sample, min / max exactly — and whether it approximates at all.
Every aggregate counts, wherever it stands: the select list, HAVING and
ORDER BY.

**The approximable fragment**, stated once: :func:`analyze` sets
``refusal`` to the first rule a statement breaks, the reason its
``plan_description`` gives (``exact execution (<refusal>)``).

* Table 1: a FROM clause; a mean-like or count-distinct aggregate, and
  besides them only min / max (no other DISTINCT aggregate); no ``SELECT
  DISTINCT``, window function, ``*`` or scalar subquery left after
  flattening; at most one derived table, and a base table beside it or in
  it (the nested rewrite's); each non-aggregate select item a grouping
  column; each mean-like aggregate but ``count`` with an argument.
* Derived table, when the FROM clause is one that aggregates (the nested
  rewrite, Section 5.2): no HAVING, LIMIT or OFFSET in it, and each of its
  items a bare mean-like aggregate or a grouping column.
* Tail: the statement has a :class:`~repro.sqlengine.tail.TailPlan` (each
  ORDER BY ordinal names a select item), and no ``rand()`` stands outside
  its aggregates, where the fold would need the engine's random stream.

Whether the chosen samples fit the rewrite is the sample planner's
decision; the rewriter only asserts both.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.sqlengine import sqlast as ast
from repro.sqlengine.expressions import contains_aggregate
from repro.sqlengine.functions import is_aggregate_function, is_nondeterministic_function
from repro.sqlengine.tail import TailPlan, collect_aggregates, group_reference


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
    """One distinct aggregate call of the select list, HAVING or ORDER BY."""

    node: ast.FunctionCall
    kind: str  # 'mean_like' | 'count_distinct' | 'extreme' | 'unsupported'

    @property
    def sql_key(self) -> str:
        return self.node.to_sql()


@dataclass
class QueryAnalysis:
    """Everything the planner and rewriter need to know about a query.

    ``base_tables`` holds every base table of the statement, derived tables'
    included; ``substituted_tables`` only those the rewrite may replace by
    samples, the planner's tables: the derived table's for a nested query,
    else the outer level's.  ``refusal`` says why the statement is outside
    the approximable fragment, None when it is inside.
    """

    statement: ast.SelectStatement
    aggregates: list[AggregateRef] = field(default_factory=list)
    base_tables: list[ast.TableRef] = field(default_factory=list)
    substituted_tables: list[ast.TableRef] = field(default_factory=list)
    derived_tables: list[ast.DerivedTable] = field(default_factory=list)
    is_nested_aggregate: bool = False
    refusal: str | None = None

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

    The returned analysis carries a ``refusal`` (rather than raising) when
    the statement falls outside the approximable fragment, so the caller can
    pass it through to the underlying database unchanged.
    """
    analysis = QueryAnalysis(statement=statement)
    analysis.base_tables = ast.base_tables(statement.from_relation)
    relations = _top_level(statement.from_relation)
    analysis.derived_tables = [node for node in relations if isinstance(node, ast.DerivedTable)]
    derived = statement.from_relation
    if isinstance(derived, ast.DerivedTable) and (derived.query.group_by or any(
        contains_aggregate(item.expression) for item in derived.query.select_items
    )):
        analysis.is_nested_aggregate = True
        relations = _top_level(derived.query.from_relation)
    analysis.substituted_tables = [node for node in relations if isinstance(node, ast.TableRef)]
    analysis.aggregates = [
        AggregateRef(node=node, kind=classify_aggregate(node))
        for node in collect_aggregates(statement).values()
    ]
    analysis.refusal = _refusal(analysis)
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


def _top_level(relation: ast.Relation | None) -> list[ast.Relation]:
    """The tables and derived tables a FROM tree joins, not looking inside
    a derived table."""
    if isinstance(relation, ast.Join):
        return _top_level(relation.left) + _top_level(relation.right)
    return [] if relation is None else [relation]


def _refusal(analysis: QueryAnalysis) -> str | None:
    """The first rule of the approximable fragment (module docstring) the
    statement breaks, or None."""
    statement = analysis.statement
    if statement.from_relation is None:
        return "query has no FROM clause"
    if not analysis.aggregates:
        return "query has no aggregate functions"
    unsupported = {agg.node.name for agg in analysis.aggregates if agg.kind == "unsupported"}
    if unsupported:
        return f"unsupported aggregate functions: {sorted(unsupported)}"
    if not analysis.mean_like and not analysis.count_distinct:
        return "only extreme statistics (min/max) requested"
    if statement.distinct:
        return "SELECT DISTINCT is not approximated"
    if _has_remaining_subquery(statement):
        return "non-comparison subqueries (IN/EXISTS/select-clause) are not approximated"
    if len(analysis.derived_tables) > 1:
        return "queries with multiple derived tables are not approximated"
    if not analysis.substituted_tables:
        return "no base table the rewrite could read from a sample"
    # Non-aggregate select items must name grouping keys, otherwise the
    # rewrite cannot reproduce them.
    for item in statement.select_items:
        expression = item.expression
        if isinstance(expression, ast.Star):
            return "SELECT * cannot be combined with approximation"
        if any(isinstance(node, ast.WindowFunction) for node in expression.walk()):
            return "window functions are not approximated"
        if not contains_aggregate(expression) and (
            group_reference(expression, statement.group_by) is None
        ):
            sql = expression.to_sql()
            return f"select item {sql!r} is neither an aggregate nor a grouping column"
    for agg in analysis.mean_like:
        if reason := _argument_refusal(agg.node):
            return reason
    derived = statement.from_relation
    if analysis.is_nested_aggregate and isinstance(derived, ast.DerivedTable):
        if reason := _derived_refusal(derived.query):
            return reason
    return _tail_refusal(statement)


def _argument_refusal(node: ast.FunctionCall) -> str | None:
    if node.args or node.name.lower() == "count":
        return None
    return f"aggregate {node.to_sql()!r} requires an argument"


def _derived_refusal(query: ast.SelectStatement) -> str | None:
    """Why the nested rewrite cannot make a derived table's variational table
    (per group and subsample, each aggregate that subsample's estimate)."""
    if query.having is not None or query.limit is not None or query.offset is not None:
        # Each keeps or drops whole groups, which a table of per-(group,
        # subsample) rows cannot decide.
        return "a derived table's HAVING, LIMIT or OFFSET is not approximated"
    for item in query.select_items:
        expression = item.expression
        if isinstance(expression, ast.FunctionCall) and is_aggregate_function(expression.name):
            if classify_aggregate(expression) != "mean_like":
                return f"a derived table's aggregate {expression.to_sql()!r} is not mean-like"
            if reason := _argument_refusal(expression):
                return reason
        elif contains_aggregate(expression) or group_reference(expression, query.group_by) is None:
            sql = expression.to_sql()
            return f"derived-table item {sql!r} is neither a bare aggregate nor a grouping column"
    return None


def _tail_refusal(statement: ast.SelectStatement) -> str | None:
    """Why the fold cannot run the statement's :class:`TailPlan` over its
    per-group columns, as it does without the engine's random stream."""
    try:
        tail = TailPlan(statement)
    except ExecutionError as error:
        return str(error)
    terms = [*tail.items, *(term for term, _ascending in tail.order), tail.having]
    written = [item.expression for item in (*statement.select_items, *statement.order_by)]
    for term, expression in zip(terms, [*written, statement.having]):
        if isinstance(term, ast.Expression) and any(
            isinstance(node, ast.FunctionCall) and is_nondeterministic_function(node.name)
            for node in term.walk()
        ):
            return f"cannot fold {expression.to_sql()!r} over aggregates"
    return None


def _has_remaining_subquery(statement: ast.SelectStatement) -> bool:
    """True when a scalar subquery is still in WHERE or the select list: the
    flattener turns comparison subqueries into joins, and no other kind is
    approximated."""
    expressions = [statement.where, *(item.expression for item in statement.select_items)]
    return any(
        isinstance(node, ast.ScalarSubquery)
        for expression in expressions if expression is not None
        for node in expression.walk()
    )

"""Logical planner: predicate pushdown and projection pruning.

The executor used to materialize every column of every input relation, join
them, and only then apply the WHERE clause.  For the middleware workloads
(Figure 7 "estimation cost") that wastes most of the work: the rewritten
queries join wide fact samples against dimension tables, filter on a single
table, and touch a handful of columns.

The planner analyzes a :class:`~repro.sqlengine.sqlast.SelectStatement`
*before* execution and produces a :class:`SelectPlan` describing

* **predicate pushdown** — the WHERE conjunction is split, and every conjunct
  whose column references resolve to exactly one relation is applied to
  that relation's scan before the join builds its row-index arrays.  Single-
  side conjuncts of inner-join ``ON`` clauses move the same way, so only the
  equi-join (and cross-relation) part of a condition is evaluated over the
  joined frame;
* **projection pruning** — the set of columns actually referenced anywhere in
  the statement (select list, WHERE, join conditions, GROUP BY, HAVING,
  ORDER BY) is computed per relation so scans materialize only those columns
  and ``Frame.take``/``Frame.filter`` stop copying dead columns through joins;
* **derived-table plans** — every FROM-clause subquery runs as written, under
  the plan of its own statement, computed once here instead of once per
  execution.  An outer conjunct on a derived table filters the subquery's
  result before any join; it never moves inside the subquery.  (The AQP
  rewriter already puts the user's predicates inside the per-subsample
  inner query, so nothing is left to move.)

The plan is purely advisory: the executor produces identical results with or
without it (``Database(optimize=False)`` is the A/B escape hatch).  The
safety rules mirror the rewrite-safety decision tree from the DuckDB
material: a conjunct is only pushed when it is deterministic (no ``rand()``),
contains no scalar subquery, and every column it references resolves
unambiguously to a single relation — anything else stays in the residual
WHERE evaluated exactly where the naive path evaluates it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import CatalogError
from repro.sqlengine import functions, sqlast as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.expressions import contains_aggregate

# Derived tables nested deeper than this are planned per execution by the
# executor; a backstop against pathological nesting.
_MAX_DERIVED_DEPTH = 8


@dataclass
class ScanPlan:
    """Per-relation instructions applied when its scan frame is built."""

    # The conjunction of the WHERE / ON conjuncts to apply right after the
    # scan, before any join (None: keep every row).
    predicate: ast.Expression | None = None
    # A base table's columns to materialize, as named and ordered in the
    # table when planned; None means "all columns" (a derived table, or an
    # unknown schema).  Plans are re-made whenever a table's column names
    # change.
    names: list[str] | None = None


@dataclass
class SelectPlan:
    """The planner's advice for one SELECT statement."""

    scans: dict[str, ScanPlan] = field(default_factory=dict)
    # WHERE minus the pushed conjuncts (None when fully pushed or absent).
    residual_where: ast.Expression | None = None
    # Per derived-table binding: the plan of the subquery's own statement.
    deriveds: dict[str, SelectPlan] = field(default_factory=dict)
    # Pre-order join-node index -> ON condition minus the pushed conjuncts.
    # None (the default) means "leave every join condition untouched".
    join_residuals: dict[int, ast.Expression | None] | None = None
    # Whether the statement aggregates (GROUP BY, HAVING or an aggregate
    # call in the select list): it then runs the grouped path.
    grouped: bool = False
    # Lazily filled by the executor on the first grouped execution: every
    # statement-pure decision of grouped execution (see
    # ``executor._GroupedMemo``).  Plans are cached 1:1 with their
    # statements, so this rides along.
    grouped_memo: object | None = None

    def scan_for(self, binding: str) -> ScanPlan | None:
        return self.scans.get(binding.lower())

    def derived_for(self, binding: str) -> SelectPlan | None:
        return self.deriveds.get(binding.lower())


def plan_select(
    statement: ast.SelectStatement, catalog: Catalog, _depth: int = 0
) -> SelectPlan:
    """Analyze ``statement`` and return pushdown/pruning advice for it."""
    table_columns: dict[str, list[str]] = {}
    schemas = _binding_schemas(statement.from_relation, catalog, table_columns)
    plan = SelectPlan(residual_where=statement.where, grouped=is_grouped(statement))
    if schemas is _UNPLANNABLE:
        return plan
    pushed = _plan_pushdown(statement, schemas, plan)
    required = _plan_pruning(statement, schemas)
    for binding in schemas:
        names = table_columns.get(binding)
        wanted = required[binding]
        if names is not None and wanted is not None:
            names = [name for name in names if name.lower() in wanted]
        plan.scans[binding] = ScanPlan(ast.conjunction(pushed[binding]), names)
    if _depth < _MAX_DERIVED_DEPTH:
        for binding, node in _derived_nodes(statement.from_relation).items():
            plan.deriveds[binding] = plan_select(node.query, catalog, _depth + 1)
    return plan


def is_grouped(statement: ast.SelectStatement) -> bool:
    """Whether ``statement`` aggregates: it has a GROUP BY or a HAVING, or
    a select item calls an aggregate."""
    if statement.group_by or statement.having is not None:
        return True
    return any(
        contains_aggregate(item.expression)
        for item in statement.select_items
        if not isinstance(item.expression, ast.Star)
    )


# ---------------------------------------------------------------------------
# binding schemas
# ---------------------------------------------------------------------------

# Marker returned when the FROM tree cannot be analyzed safely (duplicate
# binding names, unsupported relation types).
_UNPLANNABLE: dict[str, set[str] | None] = {}


def _binding_schemas(
    relation: ast.Relation | None, catalog: Catalog, table_columns: dict[str, list[str]]
) -> dict[str, set[str] | None]:
    """Map each FROM binding to its lower-cased column set (None = unknown).

    ``table_columns`` receives each base-table binding's column names in
    table order.
    """
    schemas: dict[str, set[str] | None] = {}

    def visit(node: ast.Relation | None) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.TableRef):
            binding = node.binding_name.lower()
            if binding in schemas:
                return False  # duplicate binding: resolution is ambiguous
            try:
                table = catalog.get(node.name)
            except CatalogError:
                schemas[binding] = None
                return True
            table_columns[binding] = table.column_names
            schemas[binding] = {name.lower() for name in table_columns[binding]}
            return True
        if isinstance(node, ast.DerivedTable):
            binding = node.binding_name.lower()
            if binding in schemas:
                return False
            schemas[binding] = _derived_columns(node.query)
            return True
        if isinstance(node, ast.Join):
            return visit(node.left) and visit(node.right)
        return False

    if not visit(relation):
        return _UNPLANNABLE
    return schemas


def _derived_columns(query: ast.SelectStatement) -> set[str] | None:
    """Output column names of a derived table (None when it selects ``*``)."""
    columns: set[str] = set()
    for position, item in enumerate(query.select_items):
        if isinstance(item.expression, ast.Star):
            return None
        columns.add(item.output_name(position).lower())
    return columns


def _derived_nodes(relation: ast.Relation | None) -> dict[str, ast.DerivedTable]:
    """Derived tables of a FROM tree, keyed by lower-cased binding name."""
    nodes: dict[str, ast.DerivedTable] = {}

    def visit(node: ast.Relation | None) -> None:
        if isinstance(node, ast.DerivedTable):
            nodes[node.binding_name.lower()] = node
        elif isinstance(node, ast.Join):
            visit(node.left)
            visit(node.right)

    visit(relation)
    return nodes


def _joins_preorder(relation: ast.Relation | None) -> list[ast.Join]:
    """Join nodes in pre-order (parent before children, left before right).

    The executor numbers joins with the same traversal while building frames,
    so ``SelectPlan.join_residuals`` keys line up without naming join nodes.
    """
    joins: list[ast.Join] = []

    def visit(node: ast.Relation | None) -> None:
        if isinstance(node, ast.Join):
            joins.append(node)
            visit(node.left)
            visit(node.right)

    visit(relation)
    return joins


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------


def _plan_pushdown(
    statement: ast.SelectStatement,
    schemas: dict[str, set[str] | None],
    plan: SelectPlan,
) -> dict[str, list[ast.Expression]]:
    """Push WHERE and single-side ON conjuncts to their relations' scans:
    return each binding's pushed conjuncts and set the plan's residuals."""
    pushed: dict[str, list[ast.Expression]] = {binding: [] for binding in schemas}
    if not schemas:
        return pushed
    # Moving a predicate below the join changes how many rows later
    # expressions are evaluated over; if the statement draws random numbers
    # anywhere that could move, the RNG stream (and thus seeded results)
    # would diverge from the naive path — so leave everything in place.
    if (
        statement.where is not None and _uses_nondeterminism(statement.where)
    ) or _from_tree_uses_nondeterminism(statement.from_relation):
        return pushed

    def assign(conjunct: ast.Expression) -> bool:
        """Push one conjunct to its single-binding target; False = keep."""
        target = _pushdown_target(conjunct, schemas)
        if target is None:
            return False
        pushed[target].append(conjunct)
        return True

    if statement.where is not None:
        residual = [c for c in ast.flatten_and(statement.where) if not assign(c)]
        plan.residual_where = ast.conjunction(residual)

    join_residuals: dict[int, ast.Expression | None] = {}
    for index, join in enumerate(_joins_preorder(statement.from_relation)):
        condition = join.condition
        if condition is not None and join.join_type in ("INNER", "CROSS"):
            kept = [c for c in ast.flatten_and(condition) if not assign(c)]
            condition = ast.conjunction(kept)
        join_residuals[index] = condition
    plan.join_residuals = join_residuals
    return pushed


def _pushdown_target(
    conjunct: ast.Expression, schemas: dict[str, set[str] | None]
) -> str | None:
    """Binding a conjunct can be pushed to, or None when it must stay put."""
    bindings: set[str] = set()
    unknown_schemas = [b for b, columns in schemas.items() if columns is None]
    for node in conjunct.walk():
        if isinstance(node, (ast.ScalarSubquery, ast.WindowFunction, ast.Star)):
            return None
        if isinstance(node, ast.FunctionCall):
            if functions.is_nondeterministic_function(node.name):
                return None
            if functions.is_aggregate_function(node.name):
                return None
        if isinstance(node, ast.ColumnRef):
            if node.table is not None:
                binding = node.table.lower()
                if binding not in schemas:
                    return None
                bindings.add(binding)
                continue
            # Unqualified: resolvable only when exactly one relation with a
            # known schema holds the column and no relation's schema is
            # unknown (it might also hold it).
            if unknown_schemas:
                return None
            owners = [
                binding
                for binding, columns in schemas.items()
                if columns is not None and node.name.lower() in columns
            ]
            if len(owners) != 1:
                return None
            bindings.add(owners[0])
    if len(bindings) != 1:
        return None
    return next(iter(bindings))


def _uses_nondeterminism(expression: ast.Expression) -> bool:
    for node in expression.walk():
        if isinstance(node, ast.FunctionCall) and functions.is_nondeterministic_function(
            node.name
        ):
            return True
        if isinstance(node, ast.ScalarSubquery) and _statement_uses_nondeterminism(
            node.query
        ):
            return True
    return False


def _from_tree_uses_nondeterminism(relation: ast.Relation | None) -> bool:
    """Nondeterminism in expressions the *outer* level evaluates (ON clauses).

    Derived subqueries are deliberately excluded: they execute before any
    outer conjunct moves, so outer pushdown cannot perturb their RNG stream.
    """
    if relation is None:
        return False
    if isinstance(relation, ast.Join):
        if relation.condition is not None and _uses_nondeterminism(relation.condition):
            return True
        return _from_tree_uses_nondeterminism(
            relation.left
        ) or _from_tree_uses_nondeterminism(relation.right)
    return False


def _statement_uses_nondeterminism(statement: ast.SelectStatement) -> bool:
    """Deep check: does executing ``statement`` draw random numbers anywhere?"""
    expressions: list[ast.Expression] = [
        item.expression
        for item in statement.select_items
        if not isinstance(item.expression, ast.Star)
    ]
    if statement.where is not None:
        expressions.append(statement.where)
    expressions.extend(statement.group_by)
    if statement.having is not None:
        expressions.append(statement.having)
    expressions.extend(item.expression for item in statement.order_by)
    if any(_uses_nondeterminism(expression) for expression in expressions):
        return True
    return _relation_uses_nondeterminism(statement.from_relation)


def _relation_uses_nondeterminism(relation: ast.Relation | None) -> bool:
    if isinstance(relation, ast.Join):
        if relation.condition is not None and _uses_nondeterminism(relation.condition):
            return True
        return _relation_uses_nondeterminism(relation.left) or _relation_uses_nondeterminism(
            relation.right
        )
    if isinstance(relation, ast.DerivedTable):
        return _statement_uses_nondeterminism(relation.query)
    return False


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def _plan_pruning(
    statement: ast.SelectStatement,
    schemas: dict[str, set[str] | None],
) -> dict[str, set[str] | None]:
    """Each binding's lower-cased referenced columns (None: all of them)."""
    required: dict[str, set[str] | None] = {
        binding: (set() if columns is not None else None)
        for binding, columns in schemas.items()
    }

    def keep_all(binding: str | None) -> None:
        if binding is None:
            for key in required:
                required[key] = None
        elif binding in required:
            required[binding] = None

    def add_ref(ref: ast.ColumnRef) -> None:
        name = ref.name.lower()
        if ref.table is not None:
            wanted = required.get(ref.table.lower())
            if wanted is not None:
                wanted.add(name)
            return
        # Unqualified: every relation that *might* own the column keeps it
        # (resolution order at execution time is unaffected by pruning).
        for binding, columns in schemas.items():
            wanted = required[binding]
            if columns is not None and name in columns and wanted is not None:
                wanted.add(name)

    def collect(expression: ast.Expression) -> None:
        pending = [expression]
        while pending:
            node = pending.pop()
            if isinstance(node, ast.Star):
                keep_all(node.table.lower() if node.table else None)
            elif isinstance(node, ast.ColumnRef):
                add_ref(node)
            elif isinstance(node, ast.FunctionCall):
                # count(*) needs no columns
                pending += [arg for arg in node.args if not isinstance(arg, ast.Star)]
            elif not isinstance(node, ast.ScalarSubquery):
                # A subquery executes against the catalog, not this frame,
                # but it may be *correlated* in spirit via unqualified names
                # — the engine only supports uncorrelated subqueries, so
                # nothing to do.
                pending += node.children()

    for item in statement.select_items:
        collect(item.expression)
    if statement.where is not None:
        collect(statement.where)
    for expression in statement.group_by:
        collect(expression)
    if statement.having is not None:
        collect(statement.having)
    for order_item in statement.order_by:
        collect(order_item.expression)
    _collect_join_conditions(statement.from_relation, collect)

    return required


def _collect_join_conditions(
    relation: ast.Relation | None, collect: Callable[[ast.Expression], None]
) -> None:
    if isinstance(relation, ast.Join):
        if relation.condition is not None:
            collect(relation.condition)
        _collect_join_conditions(relation.left, collect)
        _collect_join_conditions(relation.right, collect)

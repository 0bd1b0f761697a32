"""Logical planner: pushdown, pruning and derived-table-aware optimization.

The executor used to materialize every column of every input relation, join
them, and only then apply the WHERE clause.  For the middleware workloads
(Figure 7 "estimation cost") that wastes most of the work: the rewritten
queries join wide fact samples against dimension tables, filter on a single
table, and touch a handful of columns.

The planner analyzes a :class:`~repro.sqlengine.sqlast.SelectStatement`
*before* execution and produces a :class:`SelectPlan` describing

* **predicate pushdown** — the WHERE conjunction is split, and every conjunct
  whose column references resolve to exactly one base relation is applied to
  that relation's scan before the join builds its row-index arrays.  Single-
  side conjuncts of inner-join ``ON`` clauses move the same way, so only the
  equi-join (and cross-relation) part of a condition is evaluated over the
  joined frame;
* **projection pruning** — the set of columns actually referenced anywhere in
  the statement (select list, WHERE, join conditions, GROUP BY, HAVING,
  ORDER BY) is computed per relation so scans materialize only those columns
  and ``Frame.take``/``Frame.filter`` stop copying dead columns through joins;
* **derived-table plans** — every FROM-clause subquery gets a
  :class:`DerivedPlan`: safe outer conjuncts are rewritten *into* the
  subquery's WHERE (so the recursive round can drive them all the way down to
  the base-table scans), output columns the outer query never references are
  dropped from its select list, and the subquery's own plan is computed once
  at planning time instead of once per execution.

The plan is purely advisory: the executor produces identical results with or
without it (``Database(optimize=False)`` is the A/B escape hatch).  The
safety rules mirror the rewrite-safety decision tree from the DuckDB
material: a conjunct is only pushed when it is deterministic (no ``rand()``),
contains no scalar subquery, and every column it references resolves
unambiguously to a single relation — anything else stays in the residual
WHERE evaluated exactly where the naive path evaluates it.  A conjunct only
moves *inside* a derived table when it references nothing but the subquery's
pass-through grouping/select columns and the subquery has no
LIMIT/OFFSET/DISTINCT/window clause and draws no random numbers anywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import CatalogError
from repro.sqlengine import functions, sqlast as ast
from repro.sqlengine.catalog import Catalog
from repro.sqlengine.zonemaps import ZonePredicate, classify_zone_predicates

# Derived tables nested deeper than this execute with per-call planning (the
# pre-existing behavior); a backstop against pathological nesting.
_MAX_DERIVED_DEPTH = 8


@dataclass
class ScanPlan:
    """Per-relation instructions applied when its scan frame is built."""

    # Conjuncts to evaluate and apply right after the scan, before any join.
    predicates: list[ast.Expression] = field(default_factory=list)
    # Lower-cased column names to materialize; None means "all columns"
    # (unknown schema, or a ``*`` projection that needs everything).
    columns: set[str] | None = None
    # Zone-map-checkable forms of ``predicates``, classified once at plan
    # time so repeated executions skip chunks with zero re-analysis.  Only
    # meaningful for base-table scans; empty when nothing is checkable.
    zone_predicates: list[ZonePredicate] = field(default_factory=list)


@dataclass
class DerivedPlan:
    """Rewritten subquery (plus its own recursive plan) for a derived table."""

    # The subquery to execute in place of the original: outer conjuncts that
    # passed the safety rules are folded into its WHERE (group-key /
    # pass-through references) or HAVING (aggregate-output references,
    # round 3b), and unreferenced output columns are dropped from its
    # select list.
    statement: ast.SelectStatement
    # Precomputed plan for ``statement`` so repeated executions skip the
    # per-call planning the executor would otherwise do.
    plan: SelectPlan | None = None
    # Diagnostics: how many outer conjuncts moved in and select items were
    # dropped (asserted by the planner tests).
    pushed_conjuncts: int = 0
    pruned_columns: int = 0


@dataclass
class SelectPlan:
    """The planner's advice for one SELECT statement."""

    scans: dict[str, ScanPlan] = field(default_factory=dict)
    # WHERE minus the pushed conjuncts (None when fully pushed or absent).
    residual_where: ast.Expression | None = None
    # Per derived-table binding: the rewritten subquery and its nested plan.
    deriveds: dict[str, DerivedPlan] = field(default_factory=dict)
    # Pre-order join-node index -> ON condition minus the pushed conjuncts.
    # None (the default) means "leave every join condition untouched".
    join_residuals: dict[int, ast.Expression | None] | None = None
    # Lazily filled by the executor on the first grouped execution: the
    # statement-pure substitution memo (see ``executor._GroupedMemo``).
    # Plans are cached 1:1 with their statements, so this rides along.
    grouped_memo: object | None = None

    def scan_for(self, binding: str) -> ScanPlan | None:
        return self.scans.get(binding.lower())

    def derived_for(self, binding: str) -> DerivedPlan | None:
        return self.deriveds.get(binding.lower())


def plan_select(
    statement: ast.SelectStatement, catalog: Catalog, _depth: int = 0
) -> SelectPlan:
    """Analyze ``statement`` and return pushdown/pruning advice for it."""
    schemas = _binding_schemas(statement.from_relation, catalog)
    plan = SelectPlan(
        scans={binding: ScanPlan() for binding in schemas},
        residual_where=statement.where,
    )
    if schemas is _UNPLANNABLE:
        return plan
    # Past the depth limit no DerivedPlans are built, so conjuncts must not
    # be diverted into subqueries (they would be silently dropped) — they
    # stay as post-materialization scan predicates instead.
    allow_inside = _depth < _MAX_DERIVED_DEPTH
    inside = _plan_pushdown(statement, schemas, plan, allow_inside)
    _plan_pruning(statement, schemas, plan)
    if allow_inside:
        _plan_deriveds(statement, catalog, plan, inside, _depth)
    for scan in plan.scans.values():
        if scan.predicates:
            scan.zone_predicates = classify_zone_predicates(scan.predicates)
    return plan


# ---------------------------------------------------------------------------
# binding schemas
# ---------------------------------------------------------------------------

# Marker returned when the FROM tree cannot be analyzed safely (duplicate
# binding names, unsupported relation types).
_UNPLANNABLE: dict[str, set[str] | None] = {}


def _binding_schemas(
    relation: ast.Relation | None, catalog: Catalog
) -> dict[str, set[str] | None]:
    """Map each FROM binding to its lower-cased column set (None = unknown)."""
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
            schemas[binding] = {name.lower() for name in table.column_names}
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
    allow_inside: bool = True,
) -> dict[str, list[tuple[ast.Expression, str]]]:
    """Push WHERE and single-side ON conjuncts toward the scans.

    Returns the conjuncts rewritten *into* derived-table subqueries, keyed by
    binding, each paired with its placement (``'where'`` or ``'having'``);
    they are folded into the subquery by :func:`_plan_deriveds`.  Everything
    else pushed lands in ``plan.scans[binding].predicates``.
    """
    inside: dict[str, list[tuple[ast.Expression, str]]] = {}
    if not schemas:
        return inside
    # Moving a predicate below the join changes how many rows later
    # expressions are evaluated over; if the statement draws random numbers
    # anywhere that could move, the RNG stream (and thus seeded results)
    # would diverge from the naive path — so leave everything in place.
    if (
        statement.where is not None and _uses_nondeterminism(statement.where)
    ) or _from_tree_uses_nondeterminism(statement.from_relation):
        return inside

    acceptors = {}
    if allow_inside:
        acceptors = {
            binding: node.query
            for binding, node in _derived_nodes(statement.from_relation).items()
            if _accepts_inner_pushdown(node.query)
        }

    def assign(conjunct: ast.Expression) -> bool:
        """Push one conjunct to its single-binding target; False = keep."""
        target = _pushdown_target(conjunct, schemas)
        if target is None:
            return False
        subquery = acceptors.get(target)
        if subquery is not None:
            rewritten = _rewrite_conjunct_into(conjunct, subquery)
            if rewritten is not None:
                inside.setdefault(target, []).append(rewritten)
                return True
        plan.scans[target].predicates.append(conjunct)
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
    return inside


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
# derived-table pushdown and output pruning
# ---------------------------------------------------------------------------


class _RewriteBlocked(Exception):
    """Raised while rewriting a conjunct that cannot move into a subquery."""


def _unambiguous_outputs(
    query: ast.SelectStatement,
) -> dict[str, ast.Expression] | None:
    """Map output name -> item expression, or None when references into the
    subquery are ambiguous (a ``*`` item or duplicate output names)."""
    outputs: dict[str, ast.Expression] = {}
    for position, item in enumerate(query.select_items):
        if isinstance(item.expression, ast.Star):
            return None
        name = item.output_name(position).lower()
        if name in outputs:
            return None
        outputs[name] = item.expression
    return outputs


def _accepts_inner_pushdown(query: ast.SelectStatement) -> bool:
    """Whether a subquery may safely receive extra WHERE conjuncts at all.

    LIMIT/OFFSET select a row prefix, DISTINCT collapses duplicates and
    window functions read whole partitions — filtering earlier changes their
    input, so any of them blocks the move.  So does drawing random numbers
    anywhere in the subquery: its expressions would be evaluated over a
    different number of rows.
    """
    if query.limit is not None or query.offset is not None or query.distinct:
        return False
    if _unambiguous_outputs(query) is None:
        return False
    for item in query.select_items:
        if any(isinstance(node, ast.WindowFunction) for node in item.expression.walk()):
            return False
    return not _statement_uses_nondeterminism(query)


def _rewrite_conjunct_into(
    conjunct: ast.Expression, query: ast.SelectStatement
) -> tuple[ast.Expression, str] | None:
    """Rewrite an outer conjunct onto a subquery's own expressions, or None.

    Returns ``(rewritten, placement)`` where ``placement`` is ``'where'`` or
    ``'having'``.  Every column reference must map to a select item the
    rewrite can re-evaluate inside the subquery:

    * a grouping expression — the conjunct removes whole groups *before*
      aggregation (placement ``'where'``), which commutes with aggregation
      and HAVING;
    * for a grouped subquery, a deterministic aggregate-bearing item
      (round 3b) — the conjunct becomes an inner HAVING conjunct (placement
      ``'having'``): each derived-table output row is exactly one group, so
      filtering output rows equals filtering groups after aggregation;
    * for a plain subquery, any deterministic, aggregate/window/subquery-free
      item expression (filters commute with projection; placement
      ``'where'``).
    """
    outputs = _unambiguous_outputs(query)
    if outputs is None:
        return None
    grouped = bool(query.group_by) or any(
        _has_aggregate(item.expression) for item in query.select_items
    )
    group_keys = {expression.to_sql() for expression in query.group_by}
    needs_having = False

    def visit(node: ast.Expression) -> ast.Expression | None:
        nonlocal needs_having
        if isinstance(node, ast.ColumnRef):
            inner = outputs.get(node.name.lower())
            if inner is None:
                raise _RewriteBlocked
            if grouped:
                if inner.to_sql() in group_keys:
                    return inner
                if _has_aggregate(inner) and _deterministic_aggregate_item(inner):
                    needs_having = True
                    return inner
                raise _RewriteBlocked
            if not _safe_passthrough(inner):
                raise _RewriteBlocked
            return inner
        return None

    try:
        rewritten = ast.transform_expression(conjunct, visit)
    except _RewriteBlocked:
        return None
    return rewritten, ("having" if needs_having else "where")


def _safe_passthrough(expression: ast.Expression) -> bool:
    for node in expression.walk():
        if isinstance(node, (ast.ScalarSubquery, ast.WindowFunction, ast.Star)):
            return False
        if isinstance(node, ast.FunctionCall):
            if functions.is_nondeterministic_function(node.name):
                return False
            if functions.is_aggregate_function(node.name):
                return False
    return True


def _deterministic_aggregate_item(expression: ast.Expression) -> bool:
    """Whether an aggregate-bearing select item may be repeated in HAVING.

    ``Star`` is allowed here (``count(*)``); subqueries, window functions and
    ``rand()`` are not — re-evaluating them would diverge from the item.
    """
    for node in expression.walk():
        if isinstance(node, (ast.ScalarSubquery, ast.WindowFunction)):
            return False
        if isinstance(node, ast.FunctionCall) and functions.is_nondeterministic_function(
            node.name
        ):
            return False
    return True


def _has_aggregate(expression: ast.Expression) -> bool:
    if isinstance(expression, ast.Star):
        return False
    return any(
        isinstance(node, ast.FunctionCall) and functions.is_aggregate_function(node.name)
        for node in expression.walk()
    )


def _plan_deriveds(
    statement: ast.SelectStatement,
    catalog: Catalog,
    plan: SelectPlan,
    inside: dict[str, list[ast.Expression]],
    depth: int,
) -> None:
    """Build a :class:`DerivedPlan` for every derived table of the FROM tree."""
    for binding, node in _derived_nodes(statement.from_relation).items():
        query = node.query
        pushed = inside.get(binding, [])
        where_parts = [conjunct for conjunct, placement in pushed if placement == "where"]
        having_parts = [conjunct for conjunct, placement in pushed if placement == "having"]
        if where_parts:
            parts = ([query.where] if query.where is not None else []) + where_parts
            query = dataclasses.replace(query, where=ast.conjunction(parts))
        if having_parts:
            parts = ([query.having] if query.having is not None else []) + having_parts
            query = dataclasses.replace(query, having=ast.conjunction(parts))
        scan = plan.scans.get(binding)
        required = scan.columns if scan is not None else None
        query, pruned = _prune_derived_outputs(query, required)
        plan.deriveds[binding] = DerivedPlan(
            statement=query,
            plan=plan_select(query, catalog, _depth=depth + 1),
            pushed_conjuncts=len(pushed),
            pruned_columns=pruned,
        )


def _prune_derived_outputs(
    query: ast.SelectStatement, required: set[str] | None
) -> tuple[ast.SelectStatement, int]:
    """Drop subquery select items the outer query never references.

    ``required`` is the outer plan's lower-cased column set for the binding
    (None = unknown, keep everything).  DISTINCT blocks pruning (the output
    row set depends on every column); items referenced by the subquery's own
    ORDER BY or HAVING via their aliases are kept, as are items whose
    evaluation has side effects on the RNG stream (``rand()``, subqueries).
    At least one item survives so the row count is preserved.
    """
    if required is None or query.distinct:
        return query, 0
    if _unambiguous_outputs(query) is None:
        return query, 0

    keep = set(required)
    local_sources: list[ast.Expression] = [item.expression for item in query.order_by]
    if query.having is not None:
        local_sources.append(query.having)
    for source in local_sources:
        for node in source.walk():
            if isinstance(node, ast.ColumnRef):
                keep.add(node.name.lower())

    kept_items = [
        item
        for position, item in enumerate(query.select_items)
        if item.output_name(position).lower() in keep or not _droppable(item.expression)
    ]
    if not kept_items:
        kept_items = [query.select_items[0]]
    pruned = len(query.select_items) - len(kept_items)
    if pruned == 0:
        return query, 0
    return dataclasses.replace(query, select_items=kept_items), pruned


def _droppable(expression: ast.Expression) -> bool:
    """Whether skipping the item's evaluation is invisible to the rest."""
    for node in expression.walk():
        if isinstance(node, ast.ScalarSubquery):
            return False
        if isinstance(node, ast.FunctionCall) and functions.is_nondeterministic_function(
            node.name
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def _plan_pruning(
    statement: ast.SelectStatement,
    schemas: dict[str, set[str] | None],
    plan: SelectPlan,
) -> None:
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
            binding = ref.table.lower()
            if binding in required and required[binding] is not None:
                required[binding].add(name)
            return
        # Unqualified: every relation that *might* own the column keeps it
        # (resolution order at execution time is unaffected by pruning).
        for binding, columns in schemas.items():
            if columns is not None and name in columns and required[binding] is not None:
                required[binding].add(name)

    def collect(expression: ast.Expression) -> None:
        if isinstance(expression, ast.Star):
            keep_all(expression.table.lower() if expression.table else None)
            return
        if isinstance(expression, ast.ColumnRef):
            add_ref(expression)
            return
        if isinstance(expression, ast.FunctionCall):
            for argument in expression.args:
                if isinstance(argument, ast.Star):
                    continue  # count(*) needs no columns
                collect(argument)
            return
        if isinstance(expression, ast.ScalarSubquery):
            # The subquery executes against the catalog, not this frame, but
            # it may be *correlated* in spirit via unqualified names — the
            # engine only supports uncorrelated subqueries, so nothing to do.
            return
        for child in expression.children():
            collect(child)

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

    for binding, columns in required.items():
        plan.scans[binding].columns = columns


def _collect_join_conditions(relation: ast.Relation | None, collect) -> None:
    if isinstance(relation, ast.Join):
        if relation.condition is not None:
            collect(relation.condition)
        _collect_join_conditions(relation.left, collect)
        _collect_join_conditions(relation.right, collect)

"""AST-level query-parameter binding.

Parameter binding happens *below* the cache layer: the SQL template (with
its ``?`` / ``:name`` placeholders) is parsed, analyzed, sample-planned and
rewritten exactly once, and only the placeholder *values* change per call —
supplied to the engine at execution time through the evaluation context.
The parser already gives every positional placeholder a canonical name
(``?`` → ``:p<i>``, see :class:`repro.sqlengine.sqlast.Placeholder`), so the
rewriting layers may drop, duplicate or reorder fragments of the statement
without ever losing the association between a placeholder and its value.

The public helpers:

* :func:`collect_placeholders` — every placeholder of a statement, in
  syntactic order, descending into derived tables and scalar subqueries;
* :func:`canonicalize_placeholders` — validates the template's parameter
  style (rejecting statements that mix ``?`` with ``:name``, or that use the
  reserved :data:`LIFTED_PREFIX`);
* :func:`lift_literals` — auto-parameterisation: turn the literals in a
  declared list of predicate positions into reserved named placeholders, so
  two texts that differ only in those literals share one *shape*;
* :func:`bind_parameters` — validate user-supplied parameters against the
  template's placeholders and produce the mapping handed to the engine.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping, Sequence
from typing import TypeGuard

import numpy as np

from repro.errors import BindParameterError
from repro.sqlengine import sqlast as ast

#: Reserved name prefix of the placeholders :func:`lift_literals` creates
#: (``:__lit0``, ``:__lit1`` … in syntactic order).  A user parameter may not
#: start with it.
LIFTED_PREFIX = "__lit"


def iter_statement_expressions(statement: ast.Statement) -> Iterator[ast.Expression]:
    """Yield every top-level expression of a statement, in syntactic order.

    Derived tables, ``INSERT ... SELECT`` and ``CREATE TABLE ... AS SELECT``
    recurse into their inner statements; scalar subqueries are *not* expanded
    here (callers that need them descend via :func:`_walk_deep`).
    """
    if isinstance(statement, ast.SelectStatement):
        for item in statement.select_items:
            yield item.expression
        yield from _iter_relation_expressions(statement.from_relation)
        if statement.where is not None:
            yield statement.where
        yield from statement.group_by
        if statement.having is not None:
            yield statement.having
        for order_item in statement.order_by:
            yield order_item.expression
    elif isinstance(statement, ast.InsertStatement):
        for row in statement.rows:
            yield from row
        if statement.from_select is not None:
            yield from iter_statement_expressions(statement.from_select)
    elif isinstance(statement, ast.CreateTableStatement):
        if statement.as_select is not None:
            yield from iter_statement_expressions(statement.as_select)


def _iter_relation_expressions(relation: ast.Relation | None) -> Iterator[ast.Expression]:
    if isinstance(relation, ast.Join):
        yield from _iter_relation_expressions(relation.left)
        yield from _iter_relation_expressions(relation.right)
        if relation.condition is not None:
            yield relation.condition
    elif isinstance(relation, ast.DerivedTable):
        yield from iter_statement_expressions(relation.query)


def _walk_deep(expression: ast.Expression) -> Iterator[ast.Expression]:
    """Like ``Expression.walk`` but descending into scalar subqueries."""
    yield expression
    if isinstance(expression, ast.ScalarSubquery):
        for inner in iter_statement_expressions(expression.query):
            yield from _walk_deep(inner)
        return
    for child in expression.children():
        yield from _walk_deep(child)


def collect_placeholders(statement: ast.Statement) -> list[ast.Placeholder]:
    """Every placeholder of ``statement``, in syntactic order."""
    found: list[ast.Placeholder] = []
    for expression in iter_statement_expressions(statement):
        for node in _walk_deep(expression):
            if isinstance(node, ast.Placeholder):
                found.append(node)
    return found


def canonicalize_placeholders(statement: ast.Statement) -> ast.Statement:
    """Validate the statement's parameter style and return it unchanged.

    The parser already names positional placeholders (``?`` → ``:p<i>``);
    what remains is rejecting templates that mix positional and named
    placeholders — the two numbering schemes cannot be combined soundly —
    and user parameters named under :data:`LIFTED_PREFIX`, which would
    collide with the placeholders :func:`lift_literals` creates.
    """
    placeholders = collect_placeholders(statement)
    for node in placeholders:
        if node.name is not None and node.name.startswith(LIFTED_PREFIX):
            raise BindParameterError(
                f"parameter :{node.name} uses the reserved prefix {LIFTED_PREFIX!r}"
            )
    positional = [node for node in placeholders if node.index is not None]
    if positional and len(positional) != len(placeholders):
        raise BindParameterError(
            "cannot mix positional '?' and named ':name' parameters in one statement"
        )
    return statement


# ---------------------------------------------------------------------------
# auto-parameterisation
# ---------------------------------------------------------------------------


def lift_literals(
    statement: ast.SelectStatement, lifted: list[ast.Literal] | None = None
) -> tuple[ast.SelectStatement, dict[str, object]]:
    """Replace predicate literals with reserved placeholders; return both halves.

    The supported fragment, written down: a literal is lifted iff it is a
    number or a string (never ``NULL`` / ``TRUE`` / ``FALSE``), optionally
    under one unary minus, and stands as

    * a direct operand of ``= <> < <= > >=``,
    * a ``BETWEEN`` bound, or
    * an ``IN``-list member

    inside a ``WHERE``, ``JOIN … ON`` or ``HAVING`` clause — reached through
    ``AND`` / ``OR`` / ``NOT`` only — at any nesting level (derived tables,
    and scalar subqueries that are themselves operands of the above).
    Everything else stays literal text: the select list, ``GROUP BY`` /
    ``ORDER BY`` / ``LIMIT`` / ``OFFSET`` (output names and ordinals depend
    on them), function arguments, ``CASE`` branches, arithmetic
    sub-expressions and ``LIKE`` patterns (memoised per pattern text).

    Returns the lifted statement — a new tree; the input is not mutated —
    and the constants keyed by placeholder name (``__lit0`` … numbered in
    syntactic order), holding the values exactly as parsed.  The engine reads
    a literal and a bound placeholder through the same code, so executing
    the lifted statement with the constants bound is the original statement.
    ``lifted``, when given (empty), receives the replaced :class:`Literal`
    nodes of ``statement`` in placeholder order.
    """
    lifted = [] if lifted is None else lifted
    statement = _lift_select(statement, lifted)
    return statement, {
        f"{LIFTED_PREFIX}{number}": literal.value for number, literal in enumerate(lifted)
    }


def _lift_select(
    statement: ast.SelectStatement, lifted: list[ast.Literal]
) -> ast.SelectStatement:
    # Clause order is syntactic order, which is what numbers the placeholders.
    relation = _lift_relation(statement.from_relation, lifted)
    where = _lift_predicate(statement.where, lifted)
    having = _lift_predicate(statement.having, lifted)
    return dataclasses.replace(
        statement, from_relation=relation, where=where, having=having
    )


def _lift_relation(
    relation: ast.Relation | None, lifted: list[ast.Literal]
) -> ast.Relation | None:
    if isinstance(relation, ast.Join):
        return dataclasses.replace(
            relation,
            left=_lift_relation(relation.left, lifted),
            right=_lift_relation(relation.right, lifted),
            condition=_lift_predicate(relation.condition, lifted),
        )
    if isinstance(relation, ast.DerivedTable):
        return dataclasses.replace(relation, query=_lift_select(relation.query, lifted))
    return relation


def _is_liftable(expression: ast.Expression) -> TypeGuard[ast.Literal]:
    """A number or string literal (``NULL`` and booleans stay in the text)."""
    return (
        isinstance(expression, ast.Literal)
        and expression.value is not None
        and not isinstance(expression.value, bool)
    )


def _lift_predicate(
    predicate: ast.Expression | None, lifted: list[ast.Literal]
) -> ast.Expression | None:
    if predicate is None:
        return None

    def lift(literal: ast.Literal) -> ast.Placeholder:
        lifted.append(literal)
        return ast.Placeholder(name=f"{LIFTED_PREFIX}{len(lifted) - 1}")

    def operand(expression: ast.Expression) -> ast.Expression:
        if _is_liftable(expression):
            return lift(expression)
        if (
            isinstance(expression, ast.UnaryOp)
            and expression.op == "-"
            and _is_liftable(expression.operand)
        ):
            return ast.UnaryOp("-", lift(expression.operand))
        return ast.transform_expression(expression, visit)

    def visit(node: ast.Expression) -> ast.Expression | None:
        if isinstance(node, ast.BinaryOp):
            if node.op in ast.COMPARISON_OPS:
                return ast.BinaryOp(node.op, operand(node.left), operand(node.right))
            # AND / OR are descended; arithmetic and || are opaque.
            return None if node.op.upper() in ("AND", "OR") else node
        if isinstance(node, ast.UnaryOp):
            return None if node.op.upper() == "NOT" else node
        if isinstance(node, ast.Between):
            return dataclasses.replace(
                node,
                operand=operand(node.operand),
                low=operand(node.low),
                high=operand(node.high),
            )
        if isinstance(node, ast.InList):
            return dataclasses.replace(
                node,
                operand=operand(node.operand),
                values=[operand(value) for value in node.values],
            )
        if isinstance(node, ast.ScalarSubquery):
            return ast.ScalarSubquery(_lift_select(node.query, lifted))
        return node  # opaque: functions, CASE, LIKE, IS NULL, bare literals

    return ast.transform_expression(predicate, visit)


def _bindable_value(value: object, what: str) -> object:
    """Normalize one parameter value to a plain python literal."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise BindParameterError(
        f"parameter {what} has unbindable type {type(value).__name__}; "
        "expected None, bool, int, float or str"
    )


def bind_parameters(
    placeholders: Sequence[ast.Placeholder],
    params: Sequence[object] | Mapping[str, object] | None,
    style: str | None,
) -> dict[str, object] | None:
    """Check ``params`` against a template's placeholders; return the mapping.

    ``style`` is how the template spelled its placeholders — ``"qmark"``
    (positional, canonically named ``:p<i>``), ``"named"`` or ``None`` (no
    placeholders).  The returned dict is keyed by the canonical placeholder
    names and is what the engine's evaluation context consumes; ``None`` is
    returned for parameterless statements.  Raises
    :class:`BindParameterError` on count or name mismatches so binding errors
    surface before any SQL is executed.
    """
    if style is None:
        if params:
            raise BindParameterError(
                f"statement takes no parameters but {len(params)} were given"
            )
        return None
    names = {node.name for node in placeholders if node.name is not None}
    if params is None:
        raise BindParameterError(
            f"statement expects {len(names)} parameters but none were given"
        )
    if style == "named":
        if not isinstance(params, Mapping):
            raise BindParameterError(
                "statement uses named ':name' parameters; pass a mapping"
            )
        bound: dict[str, object] = {}
        for name in names:
            if name not in params:
                raise BindParameterError(f"no value supplied for parameter :{name}")
            bound[name] = _bindable_value(params[name], f":{name}")
        return bound
    if isinstance(params, Mapping) or isinstance(params, (str, bytes)):
        raise BindParameterError(
            "statement uses positional '?' parameters; pass a sequence"
        )
    values = list(params)
    if len(values) != len(names):
        raise BindParameterError(
            f"statement expects {len(names)} parameters, got {len(values)}"
        )
    return {
        ast.positional_parameter_name(index): _bindable_value(value, f"#{index}")
        for index, value in enumerate(values)
    }

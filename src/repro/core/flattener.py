"""Comparison-subquery flattening (Section 2.2).

VerdictDB supports predicates that compare a column against a scalar
subquery (``price > (SELECT avg(price) ...)``).  Before planning, such
predicates are flattened into joins with a derived aggregate table, exactly
as in the paper's example, so that the rest of the pipeline only ever sees
joins of base/derived tables.

Two cases are handled:

* **correlated** subqueries whose WHERE clause equates an inner column with a
  column of the outer query: the subquery becomes a GROUP BY derived table
  joined on the correlation column;
* **uncorrelated** subqueries: the subquery becomes a single-row derived
  table cross-joined into the FROM clause.
"""

from __future__ import annotations

import dataclasses

from repro.sqlengine import sqlast as ast


_FLATTEN_ALIAS_PREFIX = "vdb_flat_"


def flatten(statement: ast.SelectStatement) -> ast.SelectStatement:
    """Return an equivalent statement with comparison subqueries flattened.

    Statements without comparison subqueries are returned unchanged (the same
    object), so callers can cheaply detect whether anything happened.
    """
    if statement.where is None or statement.from_relation is None:
        return statement
    conjuncts = ast.flatten_and(statement.where)
    new_conjuncts: list[ast.Expression] = []
    new_relation = statement.from_relation
    changed = False
    counter = 0
    for conjunct in conjuncts:
        flattened = _flatten_conjunct(conjunct, counter)
        if flattened is None:
            new_conjuncts.append(conjunct)
            continue
        changed = True
        predicate, derived, join_condition = flattened
        counter += 1
        new_relation = ast.Join(
            left=new_relation,
            right=derived,
            condition=join_condition,
            join_type="INNER" if join_condition is not None else "CROSS",
        )
        new_conjuncts.append(predicate)
    if not changed:
        return statement
    return dataclasses.replace(
        statement,
        from_relation=new_relation,
        where=ast.conjunction(new_conjuncts),
    )


def _flatten_conjunct(
    conjunct: ast.Expression, counter: int
) -> tuple[ast.Expression, ast.DerivedTable, ast.Expression | None] | None:
    """Flatten one ``expr comp (SELECT ...)`` conjunct; None when not applicable."""
    if not isinstance(conjunct, ast.BinaryOp):
        return None
    if conjunct.op not in ("<", ">", "<=", ">=", "=", "<>"):
        return None
    if isinstance(conjunct.right, ast.ScalarSubquery):
        outer_operand, subquery, flipped = conjunct.left, conjunct.right.query, False
    elif isinstance(conjunct.left, ast.ScalarSubquery):
        outer_operand, subquery, flipped = conjunct.right, conjunct.left.query, True
    else:
        return None
    if len(subquery.select_items) != 1 or subquery.group_by or subquery.having is not None:
        return None

    alias = f"{_FLATTEN_ALIAS_PREFIX}{counter}"
    value_alias = f"vdb_subquery_value_{counter}"
    aggregate_item = ast.SelectItem(subquery.select_items[0].expression, alias=value_alias)

    correlation = _extract_correlation(subquery)
    if correlation is None:
        derived_query = ast.SelectStatement(
            select_items=[aggregate_item],
            from_relation=subquery.from_relation,
            where=subquery.where,
        )
        derived = ast.DerivedTable(query=derived_query, alias=alias)
        predicate = _comparison(conjunct.op, outer_operand, alias, value_alias, flipped)
        return predicate, derived, None

    inner_column, outer_column, remaining_where = correlation
    derived_query = ast.SelectStatement(
        select_items=[
            ast.SelectItem(ast.ColumnRef(inner_column.name), alias=inner_column.name),
            aggregate_item,
        ],
        from_relation=subquery.from_relation,
        where=remaining_where,
        group_by=[ast.ColumnRef(inner_column.name)],
    )
    derived = ast.DerivedTable(query=derived_query, alias=alias)
    join_condition = ast.BinaryOp(
        "=", outer_column, ast.ColumnRef(inner_column.name, table=alias)
    )
    predicate = _comparison(conjunct.op, outer_operand, alias, value_alias, flipped)
    return predicate, derived, join_condition


def _comparison(
    op: str, outer_operand: ast.Expression, alias: str, value_alias: str, flipped: bool
) -> ast.Expression:
    value_ref = ast.ColumnRef(value_alias, table=alias)
    if flipped:
        return ast.BinaryOp(op, value_ref, outer_operand)
    return ast.BinaryOp(op, outer_operand, value_ref)


def _extract_correlation(
    subquery: ast.SelectStatement,
) -> tuple[ast.ColumnRef, ast.ColumnRef, ast.Expression | None] | None:
    """Find a ``inner_col = outer_table.col`` equality in the subquery's WHERE.

    Returns ``(inner_column, outer_column, remaining_where)`` or None when the
    subquery is uncorrelated.  A column reference is considered "outer" when
    its table qualifier does not match any relation of the subquery's own
    FROM clause.
    """
    if subquery.where is None:
        return None
    inner_bindings = {table.binding_name.lower() for table in ast.base_tables(subquery.from_relation)}
    conjuncts = ast.flatten_and(subquery.where)
    for index, conjunct in enumerate(conjuncts):
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.ColumnRef)
            and isinstance(conjunct.right, ast.ColumnRef)
        ):
            continue
        left, right = conjunct.left, conjunct.right
        left_is_outer = left.table is not None and left.table.lower() not in inner_bindings
        right_is_outer = right.table is not None and right.table.lower() not in inner_bindings
        if left_is_outer == right_is_outer:
            continue
        inner_column, outer_column = (right, left) if left_is_outer else (left, right)
        remaining = conjuncts[:index] + conjuncts[index + 1 :]
        return inner_column, outer_column, ast.conjunction(remaining)
    return None

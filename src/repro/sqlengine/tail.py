"""The tail of a grouped statement, run over its per-group columns.

A grouped statement computes, per group, its grouping keys and its aggregate
calls.  Everything it answers beyond that — the select list's arithmetic
over them, HAVING, ORDER BY, DISTINCT, LIMIT and OFFSET — depends on those
per-group columns alone.  The engine runs this tail over the aggregates it
computed and the middleware's fold (:class:`repro.core.rewriter.SubsampleFold`)
over the aggregates it estimated, so an approximate answer satisfies its own
tail exactly as an exact one does: it is one of the answers the data could
have given.

:class:`TailPlan` is computed once per statement; :func:`run_tail` runs it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.sqlengine import functions, sqlast as ast
from repro.sqlengine.encoding import encode_key, group_rows_encoded, sort_indices
from repro.sqlengine.expressions import (
    Frame,
    LazyCodes,
    SubqueryEvaluator,
    contains_aggregate,
    evaluate,
    ordinal,
    sort_key,
)
from repro.sqlengine.resultset import ResultSet

# The per-group columns, as tail expressions read them: the i-th grouping
# key and the i-th aggregate call (then any pass-through column).
_GROUP = "__group_"
_AGGREGATE = "__agg_"


def group_reference(
    expression: ast.Expression, group_by: Sequence[ast.Expression]
) -> int | None:
    """The position of the grouping key a term names, or None.

    A term names key *i* when it renders as that key does, or when it is a
    column of the key's name whose qualifier does not contradict the key's:
    ``t.g`` names ``g`` and ``t.g`` but not ``u.g``.  A name that fits
    several keys names none.
    """
    sql = expression.to_sql()
    for position, key in enumerate(group_by):
        if key.to_sql() == sql:
            return position
    if not isinstance(expression, ast.ColumnRef):
        return None
    name = expression.name.lower()
    table = expression.table.lower() if expression.table else None
    matches = [
        position
        for position, key in enumerate(group_by)
        if isinstance(key, ast.ColumnRef)
        and key.name.lower() == name
        and (table is None or key.table is None or key.table.lower() == table)
    ]
    return matches[0] if len(matches) == 1 else None


class TailPlan:
    """What a grouped statement answers from its per-group columns.

    Computed from the statement alone.  Each aggregate call (innermost,
    numbered by first appearance over the select list, HAVING and ORDER BY:
    ``aggregates``) and each grouping key (:func:`group_reference`) in the
    select items, HAVING and ORDER BY is replaced by its per-group column,
    and an output name is visible to the later items, HAVING and ORDER BY.
    An ORDER BY ordinal becomes the position of the output column of the
    select item it names.  ``sources`` marks each output that is a per-group
    column as it stands (its position among the keys, then the aggregate
    columns), so :func:`run_tail` builds no frame when every output is one
    and HAVING and ORDER BY need none.

    ``passthrough`` lists extra per-group columns, numbered after the
    aggregates, that the answer passes through as they stand: ``(item
    position, output name)`` puts one right after that select item.
    """

    __slots__ = ("aggregates", "output_names", "items", "sources", "having", "order",
                 "limit", "offset", "distinct", "needs_frame")

    def __init__(
        self,
        statement: ast.SelectStatement,
        passthrough: Sequence[tuple[int, str]] = (),
    ) -> None:
        group_by = statement.group_by
        nodes = collect_aggregates(statement)
        self.aggregates = list(nodes.values())
        substitutions = {
            key.to_sql(): f"{_GROUP}{position}" for position, key in enumerate(group_by)
        }
        for position, sql in enumerate(nodes):
            substitutions[sql] = f"{_AGGREGATE}{position}"

        def substitute(expression: ast.Expression) -> ast.Expression:
            def visit(node: ast.Expression) -> ast.Expression | None:
                column = substitutions.get(node.to_sql())
                if column is not None:
                    return ast.ColumnRef(column)
                if isinstance(node, ast.ColumnRef):
                    position = group_reference(node, group_by)
                    return node if position is None else ast.ColumnRef(f"{_GROUP}{position}")
                return None

            return ast.transform_expression(expression, visit)

        self.output_names: list[str] = []
        self.items: list[ast.Expression] = []
        item_outputs: list[int] = []  # select item -> its output position
        for position, item in enumerate(statement.select_items):
            if isinstance(item.expression, ast.Star):
                raise ExecutionError("'*' cannot be used together with aggregates")
            outputs = [(substitute(item.expression), item.output_name(position))]
            outputs += [
                (ast.ColumnRef(f"{_AGGREGATE}{len(nodes) + extra}"), name)
                for extra, (after, name) in enumerate(passthrough)
                if after == position
            ]
            item_outputs.append(len(self.items))
            for expression, name in outputs:
                self.items.append(expression)
                self.output_names.append(name)
                substitutions[ast.ColumnRef(name).to_sql()] = name
        self.having = None if statement.having is None else substitute(statement.having)
        # (expression, ascending), or (output position, ascending)
        self.order: list[tuple[ast.Expression | int, bool]] = []
        for order_item in statement.order_by:
            position = ordinal(order_item.expression, len(item_outputs))
            self.order.append((
                item_outputs[position] if position is not None
                else substitute(order_item.expression),
                order_item.ascending,
            ))
        self.limit = statement.limit
        self.offset = statement.offset
        self.distinct = statement.distinct
        self.sources = _sources(
            self.items, self.output_names, len(group_by), len(nodes) + len(passthrough)
        )
        self.needs_frame = (
            self.having is not None
            or None in self.sources
            or any(not isinstance(term, int) for term, _ascending in self.order)
        )


def _sources(
    items: list[ast.Expression], output_names: list[str], groups: int, aggregates: int
) -> list[int | None]:
    """Which per-group column each substituted select item is, if any.

    An output name that spells a per-group column's name would shadow it in
    the frame, so then every item is evaluated there.
    """
    columns = {f"{_GROUP}{position}": position for position in range(groups)}
    columns.update(
        (f"{_AGGREGATE}{position}", groups + position) for position in range(aggregates)
    )
    if any(name.lower() in columns for name in output_names):
        return [None] * len(items)
    return [
        columns.get(item.name) if isinstance(item, ast.ColumnRef) and item.table is None
        else None
        for item in items
    ]


def collect_aggregates(statement: ast.SelectStatement) -> dict[str, ast.FunctionCall]:
    """The innermost aggregate calls referenced anywhere in the query, by SQL."""
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


def run_tail(
    plan: TailPlan,
    group_columns: Sequence[tuple[np.ndarray, LazyCodes | None]],
    aggregate_columns: Sequence[np.ndarray],
    context: functions.EvaluationContext,
    subquery: SubqueryEvaluator | None = None,
    rank: Callable[[np.ndarray], np.ndarray | None] | None = None,
) -> ResultSet:
    """The statement's answer from its per-group columns.

    ``group_columns`` holds each grouping key's values with its dictionary
    codes (or None), ``aggregate_columns`` each aggregate's values and then
    the pass-through columns, all with ``context.num_rows`` rows.
    ``subquery`` answers a scalar subquery of the tail.  ``rank``, when
    given, re-ranks an uncoded object sort key (None: sort it as it is).
    """
    frame: Frame | None = None
    if plan.needs_frame:
        frame = Frame(num_rows=context.num_rows)
        for position, (values, codes) in enumerate(group_columns):
            frame.add_column(None, f"{_GROUP}{position}", values, codes=codes)
        for position, values in enumerate(aggregate_columns):
            frame.add_column(None, f"{_AGGREGATE}{position}", values)

    per_group = [*group_columns, *((values, None) for values in aggregate_columns)]
    columns: list[np.ndarray] = []
    encodings: list[LazyCodes | None] = []
    for name, item, source in zip(plan.output_names, plan.items, plan.sources):
        if source is not None:
            values, codes = per_group[source]
        else:
            values = evaluate(item, frame, context, subquery)
            codes = (
                frame.lazy_codes_for(item.name, item.table)
                if isinstance(item, ast.ColumnRef) else None
            )
        columns.append(values)
        encodings.append(codes)
        if frame is not None:
            frame.add_column(None, name, values, codes=codes)

    keep = None
    if plan.having is not None:
        keep = evaluate(plan.having, frame, context, subquery).astype(bool)
    order_keys = []
    for term, ascending in plan.order:
        key = columns[term] if isinstance(term, int) else sort_key(term, frame, context, subquery)
        if rank is not None and key.dtype == object:
            ranks = rank(key)
            key = key if ranks is None else ranks
        order_keys.append((key, ascending))

    if keep is not None:
        columns = [column[keep] for column in columns]
        order_keys = [(key[keep], ascending) for key, ascending in order_keys]
        encodings = [None if codes is None else codes.sliced(keep) for codes in encodings]
    if order_keys:
        order = sort_indices(order_keys)
        columns = [column[order] for column in columns]
        encodings = [None if codes is None else codes.sliced(order) for codes in encodings]

    result = ResultSet(plan.output_names, columns, encodings=encodings)
    if plan.distinct:
        result = distinct_rows(result)
    return limit_rows(result, plan.limit, plan.offset)


def distinct_rows(
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
        encode_key(column, encodings[position] if encodings is not None else None)
        for position, column in enumerate(result.columns())
    ]
    _, representative = group_rows_encoded(encoded_keys, result.num_rows)
    return ResultSet(
        result.column_names, [column[representative] for column in result.columns()]
    )


def limit_rows(result: ResultSet, limit: int | None, offset: int | None) -> ResultSet:
    """The rows LIMIT and OFFSET keep, with their encodings."""
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

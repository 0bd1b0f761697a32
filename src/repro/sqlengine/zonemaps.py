"""Zone maps: per-chunk min/max summaries that let scans skip whole chunks.

A :class:`~repro.sqlengine.table.Table` stores each column as a sequence of
fixed-size chunks.  For every chunk a :class:`ZoneMap` records the minimum and
maximum non-NULL value plus the NULL count; the planner classifies pushed-down
scan conjuncts into :class:`ZonePredicate` descriptors *at plan time* —
constant operands may be literals or ``?`` / ``:name`` placeholders — and at
execution the executor resolves the placeholders against the bound
parameters and asks the table which chunks could possibly contain a matching
row.  A chunk is skipped only when a conjunct is **definitely false**
for every row it holds — the surviving chunks are still filtered row by row,
so skipping is purely an optimization and the result is bit-identical to the
naive full-column scan.

The pruning rules mirror the executor's comparison semantics exactly:

* numeric columns (int64/float64/bool) compare as float64 (the same cast
  ``expressions._compare`` applies), so zone bounds are stored as floats;
* object columns compare as normalized strings — bounds are stored as
  NUL-escaped keys (:func:`repro.sqlengine.encoding.escape_key`), the same
  order-isomorphic normalization the dictionary encoding uses, so string
  literals compare against bounds exactly as they compare against rows;
* NULL rows (``None`` / ``NaN``) never satisfy a comparison, with one
  deliberate exception: the engine's float path evaluates ``NaN <> x`` as
  True, so ``<>`` over a numeric column must keep chunks that contain NULLs;
* a literal whose type does not match the column's comparison domain (a
  string literal against a numeric column, a numeric literal against an
  object column) falls back to "may match" — mixed-type rows take per-value
  semantics the bounds cannot summarize.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.sqlengine import sqlast as ast
from repro.sqlengine.encoding import escape_key, escaped_bounds


@dataclass(frozen=True)
class ZoneMap:
    """Summary of one column chunk.

    ``low``/``high`` are the minimum/maximum **non-NULL** value (``None`` when
    the chunk holds no non-NULL values): float64 for numeric chunks, the
    NUL-escaped normalized key for object chunks.
    """

    low: object | None
    high: object | None
    null_count: int
    length: int

    @property
    def non_null(self) -> int:
        return self.length - self.null_count


def zone_map_for_chunk(chunk: np.ndarray) -> ZoneMap:
    """Compute the zone map of one chunk array."""
    length = len(chunk)
    if chunk.dtype == object:
        low, high, null_count = escaped_bounds(chunk)
        return ZoneMap(low, high, null_count, length)
    if chunk.dtype.kind == "f":
        null_mask = np.isnan(chunk)
        null_count = int(null_mask.sum())
        if null_count == length:
            return ZoneMap(None, None, null_count, length)
        valid = chunk[~null_mask] if null_count else chunk
        return ZoneMap(float(valid.min()), float(valid.max()), null_count, length)
    if length == 0:
        return ZoneMap(None, None, 0, 0)
    # int64 / bool: comparisons cast both sides to float64, so the float
    # bounds are exactly the values the row-level comparison sees (including
    # the same precision loss above 2**53).
    floats = chunk.astype(np.float64, copy=False)
    return ZoneMap(float(floats.min()), float(floats.max()), 0, length)


# ---------------------------------------------------------------------------
# plan-time classification of zone-map-eligible conjuncts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZonePredicate:
    """One pushed-down scan conjunct in zone-map-checkable form.

    ``kind`` is ``'cmp'`` (``op`` one of ``= <> < <= > >=``, ``values`` the
    single constant), ``'between'`` (``values = (low, high)``), ``'in'``
    (``values`` the member tuple) or ``'null'`` (``op`` ``'is'``/``'isnot'``).

    A constant is a literal's value or — classified at plan time, before any
    parameter is known — the :class:`~repro.sqlengine.sqlast.Placeholder`
    node itself; :func:`bind_zone_predicates` swaps the nodes for this
    execution's values before any chunk is checked.
    """

    column: str
    kind: str
    op: str = ""
    values: tuple = ()


_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}
# Sentinel: the operand is neither a literal nor a placeholder.
_NOT_CONSTANT = object()


def classify_zone_predicates(predicates: list) -> list[ZonePredicate]:
    """Zone-checkable descriptors for the conjuncts that support it.

    Conjuncts that do not match a supported shape are simply omitted — they
    still run row-level over the surviving chunks, so omission is always safe.
    """
    classified: list[ZonePredicate] = []
    for conjunct in predicates:
        predicate = _classify_conjunct(conjunct)
        if predicate is not None:
            classified.append(predicate)
    return classified


def _constant(expression: ast.Expression) -> object:
    """The one rule for constant operands: a literal's value, a placeholder
    as itself (resolved at bind time), anything else :data:`_NOT_CONSTANT`."""
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Placeholder):
        return expression
    return _NOT_CONSTANT


def _classify_conjunct(conjunct: ast.Expression) -> ZonePredicate | None:
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ast.COMPARISON_OPS:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(right, ast.ColumnRef):
            left, right = right, left
            op = _FLIP.get(op, op)
        value = _constant(right)
        if isinstance(left, ast.ColumnRef) and value is not _NOT_CONSTANT:
            return ZonePredicate(column=left.name, kind="cmp", op=op, values=(value,))
        return None
    if isinstance(conjunct, ast.Between) and not conjunct.negated:
        values = (_constant(conjunct.low), _constant(conjunct.high))
        if isinstance(conjunct.operand, ast.ColumnRef) and _NOT_CONSTANT not in values:
            return ZonePredicate(column=conjunct.operand.name, kind="between", values=values)
        return None
    if isinstance(conjunct, ast.InList) and not conjunct.negated:
        values = tuple(_constant(value) for value in conjunct.values)
        if isinstance(conjunct.operand, ast.ColumnRef) and _NOT_CONSTANT not in values:
            return ZonePredicate(column=conjunct.operand.name, kind="in", values=values)
        return None
    if isinstance(conjunct, ast.IsNull) and isinstance(conjunct.operand, ast.ColumnRef):
        return ZonePredicate(
            column=conjunct.operand.name,
            kind="null",
            op="isnot" if conjunct.negated else "is",
        )
    return None


def bind_zone_predicates(
    predicates: Sequence[ZonePredicate], param_value: Callable[[ast.Placeholder], object]
) -> Sequence[ZonePredicate]:
    """``predicates`` with placeholder operands replaced by their bound values.

    ``param_value`` is the execution's
    :meth:`~repro.sqlengine.functions.EvaluationContext.param_value` — the
    resolver the row-level evaluation of the same conjunct uses, so a bound
    predicate prunes exactly the chunks its literal twin prunes (and an
    unbound placeholder raises the same :class:`BindParameterError`).
    """
    if not any(
        isinstance(value, ast.Placeholder)
        for predicate in predicates
        for value in predicate.values
    ):
        return predicates
    return [
        ZonePredicate(
            predicate.column,
            predicate.kind,
            predicate.op,
            tuple(
                param_value(value) if isinstance(value, ast.Placeholder) else value
                for value in predicate.values
            ),
        )
        for predicate in predicates
    ]


# ---------------------------------------------------------------------------
# chunk-level evaluation
# ---------------------------------------------------------------------------


def _is_numeric_literal(value: object) -> bool:
    return isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating))


def chunk_may_match(predicate: ZonePredicate, zone: ZoneMap, is_object: bool) -> bool:
    """Whether any row of the chunk could satisfy the conjunct.

    Returning True is always safe (the rows are re-checked); returning False
    asserts the conjunct is false for *every* row of the chunk.
    """
    if predicate.kind == "null":
        return zone.null_count > 0 if predicate.op == "is" else zone.non_null > 0
    if predicate.kind == "cmp":
        return _cmp_may_match(predicate.op, predicate.values[0], zone, is_object)
    if predicate.kind == "between":
        return _between_may_match(predicate.values[0], predicate.values[1], zone, is_object)
    if predicate.kind == "in":
        return _in_may_match(predicate.values, zone, is_object)
    return True


def _cmp_may_match(op: str, value: object, zone: ZoneMap, is_object: bool) -> bool:
    if not is_object:
        if value is None:
            # Float semantics: NaN != NaN is True, every other comparison
            # against NaN is False — so ``<>`` matches everything and the
            # rest match nothing.
            return op == "<>"
        if not _is_numeric_literal(value):
            return True  # string literal vs numeric column: per-value semantics
        bound = float(value)
        if op == "<>":
            # NULL (NaN) rows satisfy ``<>`` under float semantics.
            if zone.null_count > 0:
                return True
            return zone.non_null > 0 and not (zone.low == zone.high == bound)
        if zone.non_null == 0:
            return False
        if op == "=":
            return zone.low <= bound <= zone.high
        if op == "<":
            return zone.low < bound
        if op == "<=":
            return zone.low <= bound
        if op == ">":
            return zone.high > bound
        return zone.high >= bound  # '>='
    # object column: only string literals share the normalized-string order
    if value is None:
        return False  # comparisons against NULL are false for every object row
    if not isinstance(value, str):
        return True
    if zone.non_null == 0:
        return False  # NULL object rows never satisfy a comparison (any op)
    key = escape_key(value)
    if op == "=":
        return zone.low <= key <= zone.high
    if op == "<>":
        return not (zone.low == zone.high == key)
    if op == "<":
        return zone.low < key
    if op == "<=":
        return zone.low <= key
    if op == ">":
        return zone.high > key
    return zone.high >= key  # '>='


def _between_may_match(low: object, high: object, zone: ZoneMap, is_object: bool) -> bool:
    if low is None or high is None:
        return False  # x >= NULL (and NaN) is false for every row, both domains
    if not is_object:
        if not (_is_numeric_literal(low) and _is_numeric_literal(high)):
            return True
        if zone.non_null == 0:
            return False
        return zone.high >= float(low) and zone.low <= float(high)
    if not (isinstance(low, str) and isinstance(high, str)):
        return True
    if zone.non_null == 0:
        return False
    return zone.high >= escape_key(low) and zone.low <= escape_key(high)


def _in_may_match(values: tuple, zone: ZoneMap, is_object: bool) -> bool:
    if not is_object:
        candidates = [value for value in values if value is not None]
        if any(not _is_numeric_literal(value) for value in candidates):
            # A string member switches the row path to string semantics.
            return True
        if zone.non_null == 0:
            return False
        return any(zone.low <= float(value) <= zone.high for value in candidates)
    if zone.non_null == 0:
        return False
    # The row path stringifies every non-NULL member (str(s)) before testing
    # membership, so numeric members participate via their text form.
    keys = [escape_key(str(value)) for value in values if value is not None]
    if not keys:
        return False
    return any(zone.low <= key <= zone.high for key in keys)

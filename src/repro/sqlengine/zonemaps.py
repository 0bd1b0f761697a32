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

* numeric columns compare exactly, as the key codec does
  (:func:`repro.sqlengine.encoding.compare_numeric`): int64 and bool chunks
  store their bounds as Python ints, float64 chunks as floats, and a
  literal is compared against them as the Python number it is — Python
  compares an int with a float by exact value, so a chunk holding only
  ``2**53 + 1`` survives ``k > 2**53``;
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
    the chunk holds no non-NULL values): an int for int64/bool chunks, a
    float for float64 chunks, the NUL-escaped normalized key for object
    chunks.
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
    # int64 / bool: exact int bounds, as the row-level comparison is exact
    # (a float64 bound would round 2**53 + 1 down and prune its chunk).
    return ZoneMap(int(chunk.min()), int(chunk.max()), 0, length)


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
# Sentinel: a literal whose type does not match the column's domain.
_MISMATCH = object()


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


def _bound(value: object, is_object: bool) -> object:
    """A non-NULL literal in the chunk's comparison domain, or :data:`_MISMATCH`.

    An object column compares a string literal as its escaped key; a numeric
    column compares a numeric literal as the Python number it is (a numpy
    scalar would compare with a Python float through float64).  Any other
    pairing takes per-value semantics the bounds cannot summarize.
    """
    if is_object:
        return escape_key(value) if isinstance(value, str) else _MISMATCH
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        return value.item() if isinstance(value, np.generic) else value
    return _MISMATCH


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
    if value is None:
        # Float semantics: NaN != NaN is True, every other comparison
        # against NaN is False; an object row never compares with NULL.
        return op == "<>" and not is_object
    bound = _bound(value, is_object)
    if bound is _MISMATCH:
        return True
    if op == "<>" and not is_object and zone.null_count > 0:
        return True  # NULL (NaN) rows satisfy ``<>`` under float semantics
    if zone.non_null == 0:
        return False  # NULL rows satisfy no other comparison
    if op == "=":
        return zone.low <= bound <= zone.high
    if op == "<>":
        return not (zone.low == zone.high == bound)
    if op == "<":
        return zone.low < bound
    if op == "<=":
        return zone.low <= bound
    if op == ">":
        return zone.high > bound
    return zone.high >= bound  # '>='


def _between_may_match(low: object, high: object, zone: ZoneMap, is_object: bool) -> bool:
    if low is None or high is None:
        return False  # x >= NULL (and NaN) is false for every row, both domains
    low, high = _bound(low, is_object), _bound(high, is_object)
    if low is _MISMATCH or high is _MISMATCH:
        return True
    return zone.non_null > 0 and zone.high >= low and zone.low <= high


def _in_may_match(values: tuple, zone: ZoneMap, is_object: bool) -> bool:
    members = [value for value in values if value is not None]
    if is_object:
        # The row path stringifies every non-NULL member (str(s)) before
        # testing membership, so numeric members participate via their text.
        members = [str(value) for value in members]
    bounds = [_bound(value, is_object) for value in members]
    if any(bound is _MISMATCH for bound in bounds):
        return True  # a string member switches the row path to string semantics
    return zone.non_null > 0 and any(zone.low <= bound <= zone.high for bound in bounds)

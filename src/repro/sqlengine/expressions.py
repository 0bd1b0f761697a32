"""Row-level expression evaluation over column frames.

A :class:`Frame` is the executor's working set: a collection of columns
(qualified by the binding name of the relation they come from) that all have
the same number of rows.  :func:`evaluate` computes an expression over a
frame, returning a numpy array with one value per row.
"""

from __future__ import annotations

import functools as _functools
import re
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ExecutionError
from repro.sqlengine import functions, sqlast as ast
from repro.sqlengine.encoding import (
    NULL_SENTINEL,
    code_for_value,
    compare_numeric,
    encode_key,
    escape_key,
    group_rows_encoded,
    null_code,
    unescape_key,
)

if TYPE_CHECKING:
    from repro.sqlengine.table import Table


class LazyCodes:
    """Lazily resolved dictionary encoding of one frame column.

    Scans attach these instead of eagerly encoding every string column: the
    (memoized, table-level) encoding is only computed if an operator actually
    consumes codes.  Row selections compose lazily too, so a column that is
    carried through joins but never used as a key costs nothing.  ``peek``
    returns the encoding only when it already exists, here or at the source
    table, and never encodes.
    """

    __slots__ = ("_resolver", "_peek", "_value")

    def __init__(
        self,
        resolver: Callable[[], tuple[np.ndarray, np.ndarray]],
        peek: Callable[[], tuple[np.ndarray, np.ndarray] | None] | None = None,
    ) -> None:
        self._resolver = resolver
        self._peek = peek
        self._value: tuple[np.ndarray, np.ndarray] | None = None

    def resolve(self) -> tuple[np.ndarray, np.ndarray]:
        if self._value is None:
            self._value = self._resolver()
            self._resolver = self._peek = None
        return self._value

    def peek(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The encoding if computing it takes no encoding work, else None."""
        if self._value is not None or self._peek is None:
            return self._value
        return self._peek()

    def sliced(self, indices) -> LazyCodes:
        """Lazily compose a row selection (index array, bool mask or slice)."""

        def resolver() -> tuple[np.ndarray, np.ndarray]:
            codes, dictionary = self.resolve()
            return codes[indices], dictionary

        def peek() -> tuple[np.ndarray, np.ndarray] | None:
            encoded = self.peek()
            return None if encoded is None else (encoded[0][indices], encoded[1])

        return LazyCodes(resolver, peek)

    @classmethod
    def presolved(cls, codes: np.ndarray, dictionary: np.ndarray) -> LazyCodes:
        """Wrap an already computed ``(codes, dictionary)`` pair."""
        pair = (codes, dictionary)
        return cls(lambda: pair, lambda: pair)


class ScanSource:
    """Which rows of a base table a scan frame holds, in frame order.

    ``rows`` is None for a full scan, else the ascending table row ids that
    passed the pushed-down predicates — computed on first read, so a scan
    that feeds no join never pays for it.
    """

    __slots__ = ("table", "_resolve", "_rows")

    def __init__(
        self, table: Table, resolve: Callable[[], np.ndarray] | None = None
    ) -> None:
        self.table = table
        self._resolve = resolve
        self._rows: np.ndarray | None = None

    @property
    def rows(self) -> np.ndarray | None:
        if self._resolve is not None:
            self._rows = self._resolve()
            self._resolve = None
        return self._rows


class Frame:
    """A set of equally sized columns addressable by (binding, column) name.

    Columns may carry an optional (lazy) dictionary encoding ``(codes,
    dictionary)`` attached at scan time; it is sliced alongside the values
    through :meth:`take`/:meth:`filter` so grouping, joining and sorting can
    consume precomputed integer codes instead of re-encoding object arrays.
    """

    def __init__(self, num_rows: int = 0) -> None:
        self.num_rows = num_rows
        # Ordered list preserving column order for SELECT * expansion.
        self._entries: list[tuple[str | None, str, np.ndarray]] = []
        self._codes: list[LazyCodes | None] = []
        self._qualified: dict[tuple[str, str], int] = {}
        # Tuples, so a derived frame can share the map and extend its own.
        self._unqualified: dict[str, tuple[int, ...]] = {}
        self._ambiguity_checked: dict[str, bool] = {}
        # Set only on a base-table scan's frame (the join's key-index path
        # reads it); every derived frame — take, filter, concat — has none.
        self.source: ScanSource | None = None

    def add_column(
        self,
        binding: str | None,
        name: str,
        array: np.ndarray,
        codes: LazyCodes | None = None,
    ) -> None:
        if not isinstance(array, np.ndarray):
            array = np.asarray(array)
        index = len(self._entries)
        if index and len(array) != self.num_rows:
            raise ExecutionError(
                f"column {name!r} has {len(array)} rows, expected {self.num_rows}"
            )
        if not index:
            self.num_rows = len(array)
        self._entries.append((binding, name, array))
        self._codes.append(codes)
        lowered = name.lower()
        if binding is not None:
            self._qualified[(binding.lower(), lowered)] = index
        self._unqualified[lowered] = self._unqualified.get(lowered, ()) + (index,)
        # A new same-named column changes the candidate set, so any cached
        # ambiguity verdict for the name is stale.
        if self._ambiguity_checked:
            self._ambiguity_checked.pop(lowered, None)

    @property
    def num_columns(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterable[tuple[str | None, str, np.ndarray]]:
        return list(self._entries)

    def entries_with_codes(
        self,
    ) -> Iterable[tuple[str | None, str, np.ndarray, LazyCodes | None]]:
        return [
            (binding, name, array, codes)
            for (binding, name, array), codes in zip(self._entries, self._codes)
        ]

    def has_column(self, name: str, table: str | None = None) -> bool:
        try:
            self.resolve(name, table)
            return True
        except ExecutionError:
            return False

    def _resolve_index(self, name: str, table: str | None = None) -> int:
        if table is not None:
            key = (table.lower(), name.lower())
            if key in self._qualified:
                return self._qualified[key]
            raise ExecutionError(f"unknown column {table}.{name}")
        lowered = name.lower()
        indexes = self._unqualified.get(lowered, ())
        if not indexes:
            raise ExecutionError(f"unknown column {name!r}")
        if len(indexes) > 1:
            # Ambiguity is tolerated only when every candidate holds the same
            # data (common after SELECT * over a join on the same key).
            verdict = self._ambiguity_checked.get(lowered)
            if verdict is None:
                first = self._entries[indexes[0]][2]
                verdict = all(
                    _arrays_equal(first, self._entries[index][2]) for index in indexes[1:]
                )
                self._ambiguity_checked[lowered] = verdict
            if not verdict:
                raise ExecutionError(
                    f"ambiguous column {name!r}: present in multiple relations "
                    "with different data; qualify it with a table name"
                )
        return indexes[0]

    def resolve(self, name: str, table: str | None = None) -> np.ndarray:
        """Look up a column by (optionally qualified) name."""
        return self._entries[self._resolve_index(name, table)][2]

    def codes_for(self, name: str, table: str | None = None) -> tuple[np.ndarray, np.ndarray] | None:
        """Dictionary encoding of a column, when one was attached at scan time."""
        try:
            codes = self._codes[self._resolve_index(name, table)]
        except ExecutionError:
            return None
        return codes.resolve() if codes is not None else None

    def lazy_codes_for(self, name: str, table: str | None = None) -> LazyCodes | None:
        """The column's attached :class:`LazyCodes`, without resolving it."""
        try:
            return self._codes[self._resolve_index(name, table)]
        except ExecutionError:
            return None

    def take(self, indices: np.ndarray) -> Frame:
        """Return a new frame with rows selected (and repeated) by ``indices``.

        The name maps are copied, not rebuilt; ambiguity verdicts are not,
        as a selection can make two same-named columns equal.
        """
        result = Frame(num_rows=len(indices))
        result._entries = [(binding, name, array[indices]) for binding, name, array in self._entries]
        result._codes = [
            None if codes is None else codes.sliced(indices) for codes in self._codes
        ]
        result._qualified = dict(self._qualified)
        result._unqualified = dict(self._unqualified)
        return result

    def filter(self, mask: np.ndarray) -> Frame:
        return self.take(np.flatnonzero(np.asarray(mask, dtype=bool)))

    @classmethod
    def from_columns(cls, binding: str | None, columns: dict[str, np.ndarray]) -> Frame:
        frame = cls()
        for name, array in columns.items():
            frame.add_column(binding, name, array)
        return frame

    @classmethod
    def concat(cls, left: Frame, right: Frame) -> Frame:
        """Concatenate two frames column-wise (they must have equal row counts)."""
        if left.num_rows != right.num_rows:
            raise ExecutionError("cannot concatenate frames of different lengths")
        result = cls(num_rows=left.num_rows)
        result._entries = left._entries + right._entries
        result._codes = left._codes + right._codes
        result._qualified = dict(left._qualified)
        result._unqualified = dict(left._unqualified)
        shift = len(left._entries)
        for key, index in right._qualified.items():
            result._qualified[key] = index + shift
        for name, indexes in right._unqualified.items():
            result._unqualified[name] = result._unqualified.get(name, ()) + tuple(
                index + shift for index in indexes
            )
        return result


def _arrays_equal(left: np.ndarray, right: np.ndarray) -> bool:
    """True when two columns hold identical data (NaN == NaN for floats)."""
    if left is right:
        return True
    if len(left) != len(right):
        return False
    try:
        if left.dtype.kind == "f" and right.dtype.kind == "f":
            return bool(np.array_equal(left, right, equal_nan=True))
        return bool(np.array_equal(left, right))
    except (TypeError, ValueError):  # pragma: no cover - exotic dtypes
        return False


# Callback used to evaluate uncorrelated scalar subqueries; installed by the
# executor so the expression layer does not depend on it.
SubqueryEvaluator = Callable[[ast.SelectStatement], object]


def evaluate(
    expression: ast.Expression,
    frame: Frame,
    context: functions.EvaluationContext,
    subquery_evaluator: SubqueryEvaluator | None = None,
) -> np.ndarray:
    """Evaluate ``expression`` over every row of ``frame``."""
    # The most frequent node types first.
    if isinstance(expression, ast.ColumnRef):
        return frame.resolve(expression.name, expression.table)
    if isinstance(expression, ast.BinaryOp):
        return _evaluate_binary(expression, frame, context, subquery_evaluator)
    if isinstance(expression, ast.Literal):
        return _broadcast_literal(expression.value, frame.num_rows)
    if isinstance(expression, ast.Placeholder):
        # Bound at execution time: the value comes from the context, so one
        # parsed/planned statement serves every parameter set; from here on
        # it is read exactly as a literal of that value would be.
        return _broadcast_literal(context.param_value(expression), frame.num_rows)
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' is only valid in a select list or inside count(*)")
    if isinstance(expression, ast.UnaryOp):
        return _evaluate_unary(expression, frame, context, subquery_evaluator)
    if isinstance(expression, ast.FunctionCall):
        if functions.is_aggregate_function(expression.name):
            raise ExecutionError(
                f"aggregate {expression.name!r} is not valid in a row-level context"
            )
        fast = _evaluate_scalar_via_dictionary(expression, frame, context)
        if fast is not None:
            return fast
        args = [
            evaluate(arg, frame, context, subquery_evaluator) for arg in expression.args
        ]
        return functions.call_scalar(expression.name, context, args)
    if isinstance(expression, ast.WindowFunction):
        return _evaluate_window(expression, frame, context, subquery_evaluator)
    if isinstance(expression, ast.CaseWhen):
        return _evaluate_case(expression, frame, context, subquery_evaluator)
    if isinstance(expression, ast.InList):
        return _evaluate_in_list(expression, frame, context, subquery_evaluator)
    if isinstance(expression, ast.Between):
        operand = evaluate(expression.operand, frame, context, subquery_evaluator)
        low = evaluate(expression.low, frame, context, subquery_evaluator)
        high = evaluate(expression.high, frame, context, subquery_evaluator)
        if expression.negated:  # true iff one side is: a NULL is outside no range
            return _compare("<", operand, low) | _compare(">", operand, high)
        return _compare(">=", operand, low) & _compare("<=", operand, high)
    if isinstance(expression, ast.LikePredicate):
        return _evaluate_like(expression, frame, context, subquery_evaluator)
    if isinstance(expression, ast.IsNull):
        operand = evaluate(expression.operand, frame, context, subquery_evaluator)
        mask = null_mask(operand)
        return ~mask if expression.negated else mask
    if isinstance(expression, ast.ScalarSubquery):
        if subquery_evaluator is None:
            raise ExecutionError("scalar subqueries are not supported in this context")
        value = subquery_evaluator(expression.query)
        return _broadcast_literal(value, frame.num_rows)
    raise ExecutionError(f"cannot evaluate expression of type {type(expression).__name__}")


def contains_aggregate(expression: ast.Expression) -> bool:
    """Return True when the expression tree contains an aggregate call."""
    for node in expression.walk():
        if isinstance(node, ast.FunctionCall) and functions.is_aggregate_function(node.name):
            return True
    return False


def ordinal(expression: ast.Expression, items: int) -> int | None:
    """The output column an ORDER BY term names by position, or None.

    An integer literal ``k`` names the ``k``-th output column (1-based), as
    in SQLite; one outside ``1..items`` raises :class:`ExecutionError`.
    Any other expression, a bound parameter included, sorts by its value.
    """
    if not isinstance(expression, ast.Literal) or type(expression.value) is not int:
        return None
    if not 1 <= expression.value <= items:
        raise ExecutionError(
            f"ORDER BY term {expression.value} out of range - should be between 1 and {items}"
        )
    return expression.value - 1


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


_INT64 = np.iinfo(np.int64)


def _broadcast_literal(value: object, num_rows: int) -> np.ndarray:
    """A constant as a column; an int no int64 holds is a float64, as SQLite
    reads such a literal as a real."""
    if value is None:
        return np.full(num_rows, np.nan, dtype=np.float64)
    if isinstance(value, bool):
        return np.full(num_rows, value, dtype=bool)
    if isinstance(value, (int, np.integer)):
        if not _INT64.min <= int(value) <= _INT64.max:
            return np.full(num_rows, float(value), dtype=np.float64)
        return np.full(num_rows, int(value), dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return np.full(num_rows, float(value), dtype=np.float64)
    # Not np.full: it reads a str through a unicode array, which drops
    # trailing NULs.
    column = np.empty(num_rows, dtype=object)
    column.fill(value)
    return column


def as_float(array: np.ndarray) -> np.ndarray:
    """A numeric column as float64; a NULL (None) is NaN."""
    if array.dtype == object:
        return np.array(
            [np.nan if value is None else float(value) for value in array], dtype=np.float64
        )
    return array.astype(np.float64, copy=False)


def null_mask(array: np.ndarray) -> np.ndarray:
    """Rows that are SQL NULL (what ``IS NULL`` tests): None or a float NaN."""
    if array.dtype == object:
        return np.array([value is None for value in array], dtype=bool)
    if array.dtype.kind == "f":
        return np.isnan(array)
    return np.zeros(len(array), dtype=bool)


def _evaluate_logical(expression, op, frame, context, subquery_evaluator):
    """An AND / OR chain, its left spine of one operator folded in a loop,
    left to right: a chain of n terms takes one stack frame, not 2n."""
    terms = []
    node = expression
    while isinstance(node, ast.BinaryOp) and node.op.upper() == op:
        terms.append(node.right)
        node = node.left
    result = evaluate(node, frame, context, subquery_evaluator).astype(bool)
    for term in reversed(terms):
        value = evaluate(term, frame, context, subquery_evaluator).astype(bool)
        result = (result & value) if op == "AND" else (result | value)
    return result


def _evaluate_unary(expression, frame, context, subquery_evaluator):
    operand = evaluate(expression.operand, frame, context, subquery_evaluator)
    if expression.op.upper() == "NOT":
        # Two-valued: a predicate is True or False per row, never NULL, so
        # NOT (k IN (1, NULL)) holds where SQLite's is NULL.  Only the
        # negated forms (NOT IN, NOT BETWEEN, NOT LIKE, <>) keep NULL out.
        return ~operand.astype(bool)
    if expression.op == "-":
        return _negate(operand)
    raise ExecutionError(f"unknown unary operator {expression.op!r}")


def _negate(operand: np.ndarray) -> np.ndarray:
    """``-operand``: an int or bool negates as int64, exactly, except that
    a column holding the int64 minimum (whose negation no int64 holds)
    becomes float64, as SQLite returns a real for it."""
    if operand.dtype.kind in "ib":
        ints = operand.astype(np.int64)
        if not (ints == np.iinfo(np.int64).min).any():
            return -ints
    return -as_float(operand)


_NUMERIC_OPS = {"+", "-", "*", "/", "%"}
_COMPARISON_OPS = ast.COMPARISON_OPS


def _evaluate_binary(expression, frame, context, subquery_evaluator):
    op = expression.op.upper()
    if op in _COMPARISON_OPS:
        fast = _compare_coded(expression, frame, context)
        if fast is not None:
            return fast
    if op in ("AND", "OR"):
        return _evaluate_logical(expression, op, frame, context, subquery_evaluator)
    left = evaluate(expression.left, frame, context, subquery_evaluator)
    right = evaluate(expression.right, frame, context, subquery_evaluator)
    if op == "||":
        return functions.call_scalar("concat", context, [left, right])
    if op in _NUMERIC_OPS:
        left_float = as_float(left)
        right_float = as_float(right)
        if op == "+":
            return left_float + right_float
        if op == "-":
            return left_float - right_float
        if op == "*":
            return left_float * right_float
        if op == "/":
            return divide(left_float, right_float)
        return np.mod(left_float, right_float)
    if op in _COMPARISON_OPS:
        return _compare(op, left, right)
    raise ExecutionError(f"unknown binary operator {expression.op!r}")


def divide(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left / right`` over float64 columns; a division by zero is NULL."""
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = left / right
    quotient[right == 0] = np.nan
    return quotient


def _evaluate_scalar_via_dictionary(expression, frame, context) -> np.ndarray | None:
    """Apply a per-value string function to the dictionary, not every row.

    ``upper``/``lower``/``length``/``substr`` are pure per-value maps, so for
    a dictionary-coded column it suffices to transform each *distinct* entry
    once and broadcast the results through the codes — the per-row python
    list comprehensions inside the scalar functions then run over the
    dictionary (tens of entries) instead of the column (millions of rows).
    Extra arguments must be literals (``substr`` start/length); NULL rows map
    through the sentinel entry exactly as the row-level path maps ``None``.
    """
    if not functions.is_dictionary_scalar_function(expression.name):
        return None
    if not expression.args:
        return None
    encoded = column_codes(expression.args[0], frame)
    if encoded is None:
        return None
    extra = expression.args[1:]
    if any(not isinstance(argument, ast.Literal) for argument in extra):
        return None
    codes, dictionary = encoded
    raw_entries = np.array(
        [None if entry == NULL_SENTINEL else unescape_key(entry) for entry in dictionary],
        dtype=object,
    )
    entry_context = functions.EvaluationContext(num_rows=len(raw_entries), rng=context.rng)
    args = [raw_entries] + [
        _broadcast_literal(argument.value, len(raw_entries)) for argument in extra
    ]
    per_entry = functions.call_scalar(expression.name, entry_context, args)
    return per_entry[codes]


def column_codes(expression, frame) -> tuple[np.ndarray, np.ndarray] | None:
    """Dictionary codes for a bare column reference, when attached at scan.

    This is the single rule deciding which expressions are "coded": the
    comparison/IN/LIKE fast paths here and the executor's group/join/sort
    key handling must agree on it.
    """
    if not isinstance(expression, ast.ColumnRef):
        return None
    return frame.codes_for(expression.name, expression.table)


# Sentinel: the expression is not a constant the coded fast paths can use.
_NOT_CONSTANT = object()


def _constant_scalar(expression, context) -> object:
    """Value of a literal or *bound* placeholder, else :data:`_NOT_CONSTANT`.

    Placeholders resolve through the evaluation context, so the coded fast
    paths (dictionary comparisons, IN-list probes) work for parameterized
    statements exactly as for literal text — the cached plan stays
    value-independent while each execution probes the dictionary with that
    call's value.  An unbound placeholder returns the sentinel; the generic
    path then raises the precise binding error.
    """
    if isinstance(expression, ast.Literal):
        return expression.value
    if isinstance(expression, ast.Placeholder) and context.params is not None:
        return context.param_value(expression)
    return _NOT_CONSTANT


def _compare_coded(expression, frame, context) -> np.ndarray | None:
    """Vectorized ``column OP 'literal'`` over dictionary codes.

    Valid only when the constant (literal or bound parameter) is a string:
    the row-level comparison then always falls back to string semantics
    (``str(value) OP literal``), which is exactly the order the sorted
    dictionary encodes.  NULL rows compare False under every operator, so
    the sentinel's code is masked out.
    """
    left_expr, right_expr, op = expression.left, expression.right, expression.op
    if isinstance(left_expr, (ast.Literal, ast.Placeholder)) and isinstance(
        right_expr, ast.ColumnRef
    ):
        left_expr, right_expr = right_expr, left_expr
        op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
    literal = _constant_scalar(right_expr, context)
    if literal is _NOT_CONSTANT or not isinstance(literal, str):
        return None
    encoded = column_codes(left_expr, frame)
    if encoded is None:
        return None
    codes, dictionary = encoded
    if op == "=":
        position = code_for_value(dictionary, literal)
        if position < 0:
            return np.zeros(len(codes), dtype=bool)
        return codes == position
    not_null = np.ones(len(codes), dtype=bool)
    sentinel = null_code(dictionary)
    if sentinel >= 0:
        not_null = codes != sentinel
    if op == "<>":
        position = code_for_value(dictionary, literal)
        if position < 0:
            return not_null.copy()
        return (codes != position) & not_null
    literal_key = escape_key(literal)
    left_bound = int(np.searchsorted(dictionary, literal_key, side="left"))
    right_bound = int(np.searchsorted(dictionary, literal_key, side="right"))
    if op == "<":
        return (codes < left_bound) & not_null
    if op == "<=":
        return (codes < right_bound) & not_null
    if op == ">":
        return (codes >= right_bound) & not_null
    if op == ">=":
        return (codes >= left_bound) & not_null
    return None


def _compare(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if left.dtype == object or right.dtype == object:
        left_values = left.astype(object)
        right_values = right.astype(object)
        return np.array(
            [_compare_scalar(op, a, b) for a, b in zip(left_values, right_values)], dtype=bool
        )
    return compare_numeric(op, left, right)


def _compare_scalar(op: str, a: object, b: object) -> bool:
    if a is None or b is None or a != a or b != b:  # NULL, or a NaN: NULL too
        return False
    if isinstance(a, (int, float, np.integer, np.floating)) and isinstance(
        b, (int, float, np.integer, np.floating)
    ):
        a, b = float(a), float(b)
    else:
        a, b = str(a), str(b)
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    return a >= b


def _evaluate_case(expression, frame, context, subquery_evaluator):
    masks = []
    results = []
    for condition, result in expression.whens:
        masks.append(
            evaluate(condition, frame, context, subquery_evaluator).astype(bool)
        )
        results.append(evaluate(result, frame, context, subquery_evaluator))
    if expression.else_result is not None:
        default = evaluate(expression.else_result, frame, context, subquery_evaluator)
    else:
        default = np.full(frame.num_rows, np.nan, dtype=np.float64)
    use_object = any(r.dtype == object for r in results) or default.dtype == object
    if use_object:
        results = [r.astype(object) for r in results]
        default = default.astype(object)
    else:
        results = [as_float(r) for r in results]
        default = as_float(default)
    return np.select(masks, results, default=default)


def _evaluate_in_list(expression, frame, context, subquery_evaluator):
    # Fast path: a dictionary-coded column against constant values (literals
    # or bound parameters) needs only one dictionary probe per value plus one
    # vectorized membership test.
    constants = [_constant_scalar(value, context) for value in expression.values]
    if all(value is not _NOT_CONSTANT for value in constants):
        encoded = column_codes(expression.operand, frame)
        if encoded is not None:
            codes, dictionary = encoded
            scalars = [
                _broadcast_literal(value, 1)[0] for value in constants if value is not None
            ]
            # code_for_value escapes the literal, so the NULL sentinel's code
            # can never end up in the wanted set.
            wanted_codes = [code_for_value(dictionary, str(s)) for s in scalars]
            wanted_codes = [code for code in wanted_codes if code >= 0]
            mask = np.isin(codes, np.array(wanted_codes, dtype=np.int64))
            if not expression.negated:
                return mask
            if len(scalars) < len(constants):  # a NULL member
                return np.zeros(len(codes), dtype=bool)
            return ~mask & (codes != null_code(dictionary))

    operand = evaluate(expression.operand, frame, context, subquery_evaluator)
    values = [
        evaluate(value, frame, context, subquery_evaluator) for value in expression.values
    ]
    scalars = [value[0] if len(value) else None for value in values]
    if operand.dtype == object or any(isinstance(s, str) for s in scalars):
        wanted = {str(s) for s in scalars if s is not None and s == s}  # NULL is NaN
        mask = np.array(
            [value is not None and str(value) in wanted for value in operand.astype(object)],
            dtype=bool,
        )
    else:
        mask = np.zeros(len(operand), dtype=bool)
        for value in values:  # a NULL member is NaN, equal to nothing
            mask |= _compare("=", operand, value)
    if not expression.negated:
        return mask
    # NOT IN holds for no NULL operand, and for no row at all once a member
    # is NULL: the row might equal it.
    excluded = null_mask(operand)
    for value in values:
        excluded = excluded | null_mask(value)
    return ~mask & ~excluded


@_functools.lru_cache(maxsize=512)
def _compile_like(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern into a compiled regex (memoized).

    Backslash escapes the next character, so ``\\%`` and ``\\_`` match the
    literal ``%`` / ``_`` instead of acting as wildcards.
    """
    parts = ["^"]
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "\\" and index + 1 < len(pattern):
            parts.append(re.escape(pattern[index + 1]))
            index += 2
            continue
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
        index += 1
    parts.append("$")
    return re.compile("".join(parts), re.DOTALL)


def _evaluate_like(expression, frame, context, subquery_evaluator):
    pattern_values = evaluate(expression.pattern, frame, context, subquery_evaluator)
    pattern = str(pattern_values[0]) if len(pattern_values) else ""
    regex = _compile_like(pattern)

    # Fast path: match the regex against the (small) dictionary once and
    # broadcast the verdict through the codes instead of per-row matching.
    encoded = column_codes(expression.operand, frame)
    if encoded is not None:
        codes, dictionary = encoded
        # A NULL entry satisfies neither LIKE nor NOT LIKE.
        matched = np.array(
            [
                entry != NULL_SENTINEL
                and bool(regex.match(unescape_key(entry))) != expression.negated
                for entry in dictionary
            ],
            dtype=bool,
        )
        return matched[codes]

    operand = evaluate(expression.operand, frame, context, subquery_evaluator)
    matched = np.array(
        [bool(regex.match(str(value))) for value in operand.astype(object)], dtype=bool
    )
    return (matched != expression.negated) & ~null_mask(operand)


def _evaluate_window(expression, frame, context, subquery_evaluator):
    """Evaluate an aggregate OVER (PARTITION BY ...) in a row-level context."""
    call = expression.function
    if not functions.is_aggregate_function(call.name):
        raise ExecutionError(f"{call.name!r} cannot be used as a window function")
    if expression.partition_by:
        keys = [
            evaluate(key, frame, context, subquery_evaluator)
            for key in expression.partition_by
        ]
        inverse, num_groups = group_rows(keys)
    else:
        inverse = np.zeros(frame.num_rows, dtype=np.int64)
        num_groups = 1 if frame.num_rows else 0
    is_star = bool(call.args) and isinstance(call.args[0], ast.Star)
    if is_star or not call.args:
        args: list[np.ndarray] = []
    else:
        args = [evaluate(arg, frame, context, subquery_evaluator) for arg in call.args]
    if num_groups == 0:
        return np.array([], dtype=np.float64)
    per_group = functions.aggregate(
        call.name, args, inverse, num_groups, distinct=call.distinct, is_star=is_star
    )
    return per_group[inverse]


def group_rows(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Assign a dense group id to each row based on the key arrays.

    Returns ``(inverse, num_groups)`` where ``inverse[i]`` is the group id of
    row ``i``.  Group ids are ordered by first appearance of the key.
    """
    if not key_arrays:
        return np.zeros(0, dtype=np.int64), 0
    keys = [encode_key(key) for key in key_arrays]
    inverse, first = group_rows_encoded(keys, len(key_arrays[0]))
    return inverse, len(first)

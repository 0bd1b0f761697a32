"""The engine's one key codec.

Every operator that asks whether two keys are equal — the hash join and the
key-index join, ``GROUP BY``, ``DISTINCT``, window ``PARTITION BY``,
``COUNT(DISTINCT)``, ``ORDER BY`` over strings, ``IN`` lists, the
comparisons and sample maintenance's stratum matching —
reads keys through this module, so they cannot disagree.  The rules, per
dtype:

* int64 and bool keys stay int64: ``2**53`` and ``2**53 + 1`` are two keys.
* float64 keys: NaN is NULL, and ``-0.0`` equals ``0.0``.
* an int and a float are equal when they are the same number, exactly (as
  in SQLite): ``2**53 + 1`` never equals ``2.0**53``.
* object (string) keys go through a sorted dictionary of normalized strings
  (``str(value)``, escaped NUL-free by :func:`escape_key`; NULL becomes a
  sentinel that sorts before every non-empty string), so ``1`` and ``1.0``
  in an object column are two keys, ``"1"`` and ``"1.0"``.  An object key
  meets a numeric one in that same string form.

:func:`encode_key` turns one column (plus a scan's dictionary codes, when
they exist) into :class:`KeyCodes`: int64 codes, equal exactly when the keys
are, and the code NULL rows carry.  :func:`encode_key_pair` codes two columns
jointly, :func:`pack_codes` is the one overflow-guarded packer of several
coded columns, :func:`encode_join_keys` combines the two for an equi-join,
:func:`group_rows_encoded` numbers the groups of coded rows by first
appearance (``GROUP BY``, ``DISTINCT``, ``PARTITION BY`` and
``COUNT(DISTINCT)`` all group through it), :func:`sort_indices` orders rows
by several keys (``ORDER BY``), and :func:`compare_numeric` applies the same
exactness to ``= <> < <= > >=``.  The middleware's fold of per-subsample
rows groups and sorts through the same functions.

Coding and grouping sort only when the keys are sparse or fractional.  An
int key whose value span (``max - min + 1``) is at most :data:`_DENSE_SPAN`
times its row count is coded by offset, and so is a float key whose values
are integral and below ``2**52`` in magnitude with a span that dense (every
sample's float64 ``vdb_sid``), NaN coded last as NULL; packed codes that
dense are numbered without a sort.  Other float keys and sparse ones go
through ``np.unique``.  Either way the codes are the ranks of the distinct
values, so the route never shows in an answer.

The dictionary is always sorted, so codes are rank-preserving: sorting or
comparing codes is equivalent to sorting or comparing the normalized string
values.  :class:`~repro.sqlengine.table.Table` memoizes one ``(codes,
dictionary)`` pair per object column and the executor reuses it for the
whole query pipeline instead of re-encoding the column per operator.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, NamedTuple

import numpy as np
from numpy.typing import NDArray

Array = NDArray[Any]
#: ``(codes, dictionary)`` of a dictionary-encoded object column.
Encoded = tuple[Array, Array]

# NULLs normalize to a sentinel that sorts before every non-empty string.
# Data strings are escaped so they hold no NUL character at all (each
# ``"\0"`` becomes ``"\x01\x01"`` and each ``"\x01"`` becomes
# ``"\x01\x02"``): the sentinel is reserved for real NULLs, and the
# fixed-width unicode dictionary, which drops trailing NULs, cannot merge
# ``"a"`` with ``"a\0"``.
NULL_SENTINEL = "\0N"

# Packed multi-column codes stay below this bound; past it the packed prefix
# is re-densified instead of silently wrapping around int64.
_MAX_PACKED_CODE = 1 << 62

# An int key whose value span is at most this many times its row count is
# coded by offset, and packed codes this dense are grouped, without a sort.
# Either route allocates arrays of at most this many times the rows.
_DENSE_SPAN = 2

# Float keys are coded by offset only below this magnitude, where every
# integral value and every difference of two is exact.
_MAX_DENSE_FLOAT = float(2**52)

_COMPARE = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def escape_key(value: str) -> str:
    """Escape a raw string into its NUL-free dictionary form.

    The escape maps ``"\\0"`` to ``"\\x01\\x01"`` and ``"\\x01"`` to
    ``"\\x01\\x02"`` and leaves every other character alone.  Those two
    sequences sort, among themselves and against every character above
    ``"\\x01"``, as the characters they replace, and none is a prefix of
    another, so the escape is injective and order-preserving: for any raw
    ``x, y``, ``x < y`` iff ``escape_key(x) < escape_key(y)``.  Literals
    compared against dictionary entries must be escaped the same way.
    """
    if "\0" in value or "\x01" in value:
        return value.replace("\x01", "\x01\x02").replace("\0", "\x01\x01")
    return value


def unescape_key(entry: str) -> str:
    """Invert :func:`escape_key` for a non-sentinel dictionary entry."""
    if "\x01" in entry:
        # Read left to right, each "\x01\x01" found is an escaped NUL: the
        # only "\x01" that starts no escape is its second half, consumed
        # by that same match.
        return entry.replace("\x01\x01", "\0").replace("\x01\x02", "\x01")
    return entry


def distinct_strings(array: Array) -> tuple[Array, list[str | None]] | None:
    """Codes by first appearance and the distinct values of an object column
    of strings and NULLs; None when it holds anything else.

    One dict pass groups the rows.  A dict merges values that compare equal,
    which for strings (and ``None``) is exactly equal string forms; it would
    also merge ``1``, ``1.0`` and ``True``, whose string forms differ, so a
    column qualifies on its distinct values only.
    """
    rows = array.tolist()
    try:
        distinct = list(dict.fromkeys(rows))
    except TypeError:  # an unhashable value
        return None
    if not all(value is None or isinstance(value, str) for value in distinct):
        return None
    position = {value: code for code, value in enumerate(distinct)}
    codes = np.fromiter(map(position.__getitem__, rows), dtype=np.int64, count=len(rows))
    return codes, distinct


def encode_object_array(array: Array) -> Encoded:
    """Dictionary-encode an object column.

    Returns ``(codes, dictionary)`` where ``dictionary`` is the sorted array
    of distinct normalized values and ``codes[i]`` is the rank of row ``i``'s
    normalized value in it.  A column of strings and NULLs is normalized and
    sorted once per distinct value (:func:`distinct_strings`); any other
    column, row by row.  Both give the same codes and dictionary.
    """
    grouped = distinct_strings(array)
    if grouped is None:
        normalized = np.array(
            [NULL_SENTINEL if value is None else escape_key(str(value)) for value in array],
            dtype=str,  # an empty column must still normalize to a string array
        )
        dictionary, codes = np.unique(normalized, return_inverse=True)
        return codes.astype(np.int64, copy=False), dictionary
    first_codes, distinct = grouped
    entries = np.array(
        [NULL_SENTINEL if value is None else escape_key(value) for value in distinct],
        dtype=str,
    )
    # Distinct strings escape to distinct entries, so the order is a ranking.
    order = np.argsort(entries)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return ranks[first_codes], entries[order]


def compact_encoding(codes: Array, dictionary: Array) -> Encoded:
    """``(codes, dictionary)`` less the entries no code uses: for codes
    selected from a larger column's encoding, exactly what
    :func:`encode_object_array` gives for the selected rows."""
    present = np.zeros(len(dictionary), dtype=bool)
    present[codes] = True
    if present.all():
        return codes, dictionary
    ranks = np.cumsum(present, dtype=np.int64) - 1
    kept = dictionary[present]
    # The narrowest width holding every kept entry, as a fresh encode has.
    width = int(np.char.str_len(kept).max(initial=1))
    return ranks[codes], kept.astype(f"<U{width}")


def union_dictionaries(left: Array, right: Array) -> tuple[Array, Array | None, Array]:
    """Sorted union of two dictionaries and where each one's entries land in it.

    Returns ``(union, left_map, right_map)``.  ``left_map`` is ``None`` when
    ``right`` brings no new entry: the union *is* ``left`` and codes against
    it stand as they are, so the common case of extending a large dictionary
    by a small, already-known one costs ``O(len(right) log len(left))`` and
    touches no code.  Otherwise the new entries are spliced in (no re-sort)
    and ``left_map`` shifts each old position by the entries inserted before it.
    """
    positions = np.searchsorted(left, right)
    known = np.zeros(len(right), dtype=bool)
    inside = positions < len(left)
    known[inside] = left[positions[inside]] == right[inside]
    if known.all():
        return left, None, positions
    fresh_positions = positions[~known]
    # Widen first: inserting into a fixed-width unicode array truncates.
    width = np.result_type(left, right)
    union = np.insert(left.astype(width, copy=False), fresh_positions, right[~known])
    left_map = np.arange(len(left), dtype=np.int64)
    left_map += np.searchsorted(fresh_positions, left_map, side="right")
    # Entry i of ``right`` lands at its position in ``left`` plus the new
    # entries before it (itself excluded: it is either known or the next new).
    right_map = positions + (np.cumsum(~known) - ~known)
    return union, left_map, right_map


def null_code(dictionary: Array) -> int:
    """Position of the NULL sentinel in ``dictionary`` (-1 when absent).

    Escaped data holds no NUL, so only the empty string sorts before the
    sentinel: it is entry 0 or 1 when present.
    """
    for position in range(min(2, len(dictionary))):
        if dictionary[position] == NULL_SENTINEL:
            return position
    return -1


def code_for_value(dictionary: Array, value: str) -> int:
    """Position of a raw ``value`` in ``dictionary`` (-1 when absent)."""
    key = escape_key(value)
    position = int(np.searchsorted(dictionary, key))
    if position < len(dictionary) and dictionary[position] == key:
        return position
    return -1


# ---------------------------------------------------------------------------
# key codes
# ---------------------------------------------------------------------------


class KeyCodes(NamedTuple):
    """int64 codes of one key column: two rows share a code iff their keys
    are equal.

    Codes lie in ``[0, cardinality)``; :func:`encode_key` of a whole column
    uses every code, while a scan's dictionary codes restricted to some rows,
    or one side of a pair, may leave some unused.  ``null_code`` is the code
    NULL rows carry (-1: no row can be NULL).  A code is the rank of its key
    among the distinct keys, whether it came from a sort or, for an int
    column (or an integral float one) whose span is at most ``_DENSE_SPAN``
    times its rows, from the key's offset above the minimum.
    """

    codes: Array
    cardinality: int
    null_code: int = -1

    def null_mask(self) -> Array | None:
        """Rows whose key is NULL, or None when there are none."""
        if self.null_code < 0:
            return None
        mask: Array = self.codes == self.null_code
        return mask


def encode_key(values: Array, encoded: Encoded | None = None) -> KeyCodes:
    """The codes of one key column.

    ``encoded`` is the column's ``(codes, dictionary)`` when a scan attached
    one: those codes are used as they are, never re-encoded.  An int64 or
    bool column, or a float64 one of integral values below ``2**52`` in
    magnitude, whose value span (``max - min + 1``) is at most
    ``_DENSE_SPAN`` times its row count is coded in O(rows + span) by offset
    and a prefix sum of the values present; any other numeric column by
    ``np.unique``.  Both give the same codes, cardinality and NULL code.
    """
    if encoded is None and values.dtype == object:
        encoded = encode_object_array(values)
    if encoded is not None:
        codes, dictionary = encoded
        return KeyCodes(codes, len(dictionary), null_code(dictionary))
    return _unique_codes(numeric_key(values))


def encode_key_pair(
    left: Array,
    right: Array,
    left_encoded: Encoded | None = None,
    right_encoded: Encoded | None = None,
) -> tuple[KeyCodes, KeyCodes]:
    """Joint codes of two key columns: a left row and a right row share a
    code iff their keys are equal (the same rule holds within each side).

    When either side is an object column, both go through the dictionary
    (only the two dictionaries are merged, never the rows); otherwise the
    keys are compared exactly as numbers.
    """
    if object in (left.dtype, right.dtype) or left_encoded or right_encoded:
        left_codes, left_dictionary = left_encoded or encode_object_array(_as_object(left))
        right_codes, right_dictionary = right_encoded or encode_object_array(_as_object(right))
        union, left_map, right_map = union_dictionaries(left_dictionary, right_dictionary)
        if left_map is not None:
            left_codes = left_map[left_codes]
        null = null_code(union)
        return (
            KeyCodes(left_codes, len(union), null),
            KeyCodes(right_map[right_codes], len(union), null),
        )
    left_values, right_values = numeric_key(left), numeric_key(right)
    if left_values.dtype == right_values.dtype:
        joint = _unique_codes(np.concatenate([left_values, right_values]))
        return _split(joint, len(left_values))
    if left_values.dtype.kind == "f":
        right_key, left_key = _int_float_codes(right_values, left_values)
        return left_key, right_key
    return _int_float_codes(left_values, right_values)


def pack_codes(keys: Sequence[KeyCodes]) -> KeyCodes:
    """One code per row for several coded columns, equal iff every column's
    code is equal.

    Packing is positional (``combined * cardinality + codes``); when the
    running cardinality product would pass :data:`_MAX_PACKED_CODE` — nine
    256-value columns already reach 2**72 — the packed prefix is re-encoded
    to dense codes first, so distinct key tuples are never conflated by a
    silent int64 wraparound.
    """
    combined, cardinality = keys[0].codes, max(1, keys[0].cardinality)
    for key in keys[1:]:
        width = max(1, key.cardinality)
        if cardinality > _MAX_PACKED_CODE // width:
            uniques, combined = np.unique(combined, return_inverse=True)
            cardinality = max(1, len(uniques))
        combined = combined * width + key.codes
        cardinality *= width
    return KeyCodes(combined.astype(np.int64, copy=False), cardinality)


def group_rows_encoded(keys: Sequence[KeyCodes], num_rows: int) -> tuple[Array, Array]:
    """Group rows by their key codes, numbering groups by first appearance.

    Returns ``(inverse, first)``: row ``i`` is in group ``inverse[i]``, and
    ``first[g]`` is the first row of group ``g``, so ``first`` increases and
    ``len(first)`` is the number of groups.  The columns are packed by
    :func:`pack_codes`.  Packed codes at most ``_DENSE_SPAN`` times the rows
    are numbered in O(rows + cardinality) without a sort: ``np.minimum.at``
    finds each code's first row and a cumulative sum over those rows numbers
    them.  Sparser codes are first
    densified by one ``np.unique``.
    """
    if num_rows == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    packed = pack_codes(keys)
    codes, cardinality = packed.codes, packed.cardinality
    if cardinality > _DENSE_SPAN * num_rows:
        uniques, codes = np.unique(codes, return_inverse=True)
        cardinality = len(uniques)
    first_of_code = np.full(cardinality, num_rows, dtype=np.int64)
    np.minimum.at(first_of_code, codes, np.arange(num_rows))
    starts = np.zeros(num_rows, dtype=bool)
    starts[first_of_code[first_of_code < num_rows]] = True
    group_at = np.cumsum(starts, dtype=np.int64) - 1
    inverse: Array = group_at[first_of_code[codes]]
    return inverse, np.flatnonzero(starts)


def sort_indices(keys: Sequence[tuple[Array, bool]]) -> Array:
    """Stable multi-key sort; each key is (values, ascending).

    Object keys sort by their key codes, which rank the normalized strings.
    Integer and boolean keys are sorted directly: casting them to float64
    loses precision above 2**53, silently reordering or tying large keys.
    Descending integer order uses the bitwise complement ``~x`` — a strictly
    decreasing reflection with no overflow (negating ``int64 min`` would
    wrap).
    """
    if not keys:
        return np.arange(0)
    sortable: list[Array] = []
    for values, ascending in keys:
        if values.dtype == object:
            values = encode_key(values).codes
        if not ascending:
            values = ~values if values.dtype.kind in "iub" else -values
        sortable.append(values)
    # np.lexsort sorts by the last key first, so reverse the list.
    order: Array = np.lexsort(tuple(reversed(sortable)))
    return order


def encode_join_keys(
    left_keys: Sequence[Array],
    right_keys: Sequence[Array],
    left_encodings: Sequence[Encoded | None] | None = None,
    right_encodings: Sequence[Encoded | None] | None = None,
    null_safe: Sequence[bool] | None = None,
) -> tuple[Array, Array]:
    """Packed joint codes of a multi-column equi-join key, per side.

    A left and a right row share a code iff every key column is equal.  A
    row whose key is NULL in a column not marked ``null_safe`` matches
    nothing, as ``=`` in SQL: it gets code -1 on the left and -2 on the
    right.  In a ``null_safe`` column NULL is a key like any other and
    matches NULL.
    """
    left_rows = len(left_keys[0])
    pairs = [
        encode_key_pair(
            left,
            right,
            left_encodings[position] if left_encodings else None,
            right_encodings[position] if right_encodings else None,
        )
        for position, (left, right) in enumerate(zip(left_keys, right_keys))
    ]
    packed = pack_codes(
        [
            KeyCodes(np.concatenate([left.codes, right.codes]), left.cardinality)
            for left, right in pairs
        ]
    )
    sides: list[Array] = []
    halves = ((0, packed.codes[:left_rows], -1), (1, packed.codes[left_rows:], -2))
    for side, codes, unmatched in halves:
        masks = [
            mask
            for position, pair in enumerate(pairs)
            if not (null_safe and null_safe[position])
            and (mask := pair[side].null_mask()) is not None
        ]
        if masks:
            codes = np.where(np.logical_or.reduce(masks), unmatched, codes)
        sides.append(codes)
    return sides[0], sides[1]


def compare_numeric(op: str, left: Array, right: Array) -> Array:
    """``left OP right`` over two numeric columns, exact as the codec is.

    int64 (and bool) against int64 compares as int64; an int against a
    float compares their exact values, never a rounded ``float64`` copy of
    the int.  A NaN operand is NULL: every operator is False, ``<>`` too.
    """
    left, right = numeric_key(left), numeric_key(right)
    nulls = [np.isnan(side) for side in (left, right) if op == "<>" and side.dtype.kind == "f"]
    if left.dtype != right.dtype:
        # Python compares an int with a float by exact value.
        dtype = np.float64 if _fits_float(left if left.dtype.kind == "i" else right) else object
        left, right = left.astype(dtype, copy=False), right.astype(dtype, copy=False)
    if left.dtype == object:
        with np.errstate(invalid="ignore"):  # NaN in an object comparison
            result: Array = _COMPARE[op](left, right)
    else:
        result = _COMPARE[op](left, right)
    for null in nulls:
        result &= ~null
    return result


def exact_cast(values: Array, dtype: np.dtype[Any]) -> tuple[Array | None, Array]:
    """The rows of a numeric column that can equal a value of ``dtype``,
    and those rows' values converted to ``dtype`` exactly.

    Returns ``(rows, converted)``; ``rows`` is None when every row converts.
    Floats convert to int64 when integral and in range; ints convert to
    float64 when the float holds them exactly.  NaN converts to nothing.
    """
    values = numeric_key(values)
    if values.dtype == dtype:
        return None, values
    if dtype.kind == "f":
        floats = values.astype(np.float64)
        if _fits_float(values):
            return None, floats
        exact = values.astype(object) == floats.astype(object)
    else:
        exact = (values == np.floor(values)) & (values >= -(2.0**63)) & (values < 2.0**63)
    return np.flatnonzero(exact), values[exact].astype(dtype)


def numeric_key(values: Array) -> Array:
    """A numeric key column in the dtype its keys compare in: int64 or
    float64 (bool as int64)."""
    return values.astype(np.int64) if values.dtype.kind == "b" else values


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _unique_codes(values: Array) -> KeyCodes:
    """Codes of a numeric column by its sorted distinct values (NaN: NULL)."""
    if values.dtype.kind == "i" and len(values):
        low, high = int(values.min()), int(values.max())
        if high - low < _DENSE_SPAN * len(values):
            # ``values - low`` wraps nowhere it matters: the true offsets all
            # lie in [0, span), and int64 subtraction is exact modulo 2**64.
            return _dense_codes(values - low, high - low + 1)
    elif values.dtype.kind == "f" and len(values):
        dense = _dense_float_codes(values)
        if dense is not None:
            return dense
    uniques, codes = np.unique(values, return_inverse=True)
    # np.unique folds every NaN into one trailing entry and -0.0 into 0.0.
    null = len(uniques) - 1 if values.dtype.kind == "f" and np.isnan(uniques[-1:]).any() else -1
    return KeyCodes(codes.astype(np.int64, copy=False), len(uniques), null)


def _dense_codes(offsets: Array, span: int) -> KeyCodes:
    """Rank codes of non-negative int offsets below ``span``, by a prefix sum
    of the offsets present: O(rows + span), no sort."""
    present = np.zeros(span, dtype=bool)
    present[offsets] = True
    ranks = np.cumsum(present, dtype=np.int64) - 1
    return KeyCodes(ranks[offsets], int(ranks[-1]) + 1)


def _dense_float_codes(values: Array) -> KeyCodes | None:
    """:func:`_dense_codes` of a float64 column whose non-NaN values are
    integral, of magnitude at most ``2**52`` and of a span at most
    ``_DENSE_SPAN`` times the rows; None for any other column.  NaN rows are NULL and get
    the code after every value, as ``np.unique`` sorts NaN last, and ``-0.0``
    is offset as ``0.0``, so the codes are ``np.unique``'s."""
    present, nulls = values, None
    low, high = float(values.min()), float(values.max())
    if low != low:  # min() is NaN iff a row is
        nulls = np.isnan(values)
        present = values[~nulls]
        if not len(present):
            return None
        low, high = float(present.min()), float(present.max())
    # Infinities fail the range test.  Within it an integral value converts
    # to int64 exactly, and a fractional one is caught by the round trip.
    if not (-_MAX_DENSE_FLOAT <= low and high <= _MAX_DENSE_FLOAT):
        return None
    if high - low >= _DENSE_SPAN * len(values):
        return None
    ints = present.astype(np.int64)  # exact for every integral value here
    if not (ints == present).all():
        return None
    key = _dense_codes(ints - int(low), int(high - low) + 1)
    if nulls is None:
        return key
    codes = np.full(len(values), key.cardinality, dtype=np.int64)
    codes[~nulls] = key.codes
    return KeyCodes(codes, key.cardinality + 1, key.cardinality)


def _split(joint: KeyCodes, left_rows: int) -> tuple[KeyCodes, KeyCodes]:
    return (
        joint._replace(codes=joint.codes[:left_rows]),
        joint._replace(codes=joint.codes[left_rows:]),
    )


def _int_float_codes(ints: Array, floats: Array) -> tuple[KeyCodes, KeyCodes]:
    """Joint codes of an int64 and a float64 column, equal by exact value.

    Ints the float64 holds exactly share the floats' code space; the others
    can equal no float and are coded after it.
    """
    rows, converted = exact_cast(ints, np.dtype(np.float64))
    joint = _unique_codes(np.concatenate([converted, floats]))
    exact_ints, float_codes = _split(joint, len(converted))
    if rows is None:
        return exact_ints, float_codes
    inexact = np.ones(len(ints), dtype=bool)
    inexact[rows] = False
    rest = _unique_codes(ints[inexact])
    codes = np.empty(len(ints), dtype=np.int64)
    codes[rows] = exact_ints.codes
    codes[inexact] = rest.codes + joint.cardinality
    cardinality = joint.cardinality + rest.cardinality
    return (
        KeyCodes(codes, cardinality, joint.null_code),
        float_codes._replace(cardinality=cardinality),
    )


def _as_object(values: Array) -> Array:
    """A numeric column as the object column holding its values (NaN: None)."""
    if values.dtype == object:
        return values
    labels = values.astype(object)
    if values.dtype.kind == "f":
        labels[np.isnan(values)] = None
    return labels


def _fits_float(ints: Array) -> bool:
    """Whether float64 holds every value of an int64 column exactly."""
    return not len(ints) or (int(ints.min()) >= -(2**53) and int(ints.max()) <= 2**53)

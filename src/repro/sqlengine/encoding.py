"""Dictionary encoding of key columns.

String (object-dtype) columns are the engine's slowest data type: every
GROUP BY, equi-join and ORDER BY over them used to re-run ``str()`` over the
whole column and rebuild a fresh ``np.unique`` dictionary per call.  This
module centralises the normalization and encoding so that

* every call site (grouping, joining, sorting) agrees on how NULLs are
  normalized (a single sentinel that sorts before printable strings), and
* :class:`~repro.sqlengine.table.Table` can memoize one ``(codes,
  dictionary)`` pair per column and the executor can reuse it for the whole
  query pipeline instead of recomputing it per operator.

The dictionary is always sorted, so codes are rank-preserving: sorting or
comparing codes is equivalent to sorting or comparing the normalized string
values.
"""

from __future__ import annotations

import numpy as np

# NULLs normalize to a sentinel that sorts before every printable string.
# Data values that could collide with it (anything starting with a NUL byte)
# are escaped with a distinct prefix, so the sentinel is reserved for real
# NULLs: ``"\0N"`` can only ever come from None, never from data.
NULL_SENTINEL = "\0N"
_ESCAPE_PREFIX = "\0S"


def escape_key(value: str) -> str:
    """Escape a raw string so it can never collide with the NULL sentinel.

    The escape is order- and equality-isomorphic to the raw strings: for any
    raw ``x, y``, ``x < y`` iff ``escape_key(x) < escape_key(y)`` (both
    prefixed strings keep their relative order, and a ``\\0``-prefixed string
    still sorts before every unprefixed printable one).  Literals compared
    against dictionary entries must be escaped the same way.
    """
    return _ESCAPE_PREFIX + value if value.startswith("\0") else value


def unescape_key(entry: str) -> str:
    """Invert :func:`escape_key` for a non-sentinel dictionary entry."""
    return entry[len(_ESCAPE_PREFIX):] if entry.startswith(_ESCAPE_PREFIX) else entry


def normalize_object_key(array: np.ndarray) -> np.ndarray:
    """Normalize an object column into comparable strings (NULL -> sentinel)."""
    return np.array(
        [NULL_SENTINEL if value is None else escape_key(str(value)) for value in array],
        dtype=str,  # an empty column must still normalize to a string array
    )


def escaped_bounds(values) -> tuple[str | None, str | None, int]:
    """Min/max normalized key and NULL count of an object array.

    Zone maps store these per chunk: the bounds use the same
    order-isomorphic escaping as the dictionary entries, so comparing an
    escaped literal against them agrees with the row-level string
    comparison (and with the sorted dictionary).  NULLs are counted, not
    folded into the bounds — the sentinel would otherwise always be the
    minimum and comparisons could never rule a chunk out.
    """
    low = high = None
    null_count = 0
    for value in values:
        if value is None:
            null_count += 1
            continue
        key = escape_key(str(value))
        if low is None or key < low:
            low = key
        if high is None or key > high:
            high = key
    return low, high, null_count


def encode_object_array(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary-encode an object column.

    Returns ``(codes, dictionary)`` where ``dictionary`` is the sorted array
    of distinct normalized values and ``codes[i]`` is the rank of row ``i``'s
    normalized value in it.
    """
    normalized = normalize_object_key(array)
    dictionary, codes = np.unique(normalized, return_inverse=True)
    return codes.astype(np.int64, copy=False), dictionary


def union_dictionaries(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
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


def merge_dictionaries(
    left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Re-code two encoded columns against the union of their dictionaries.

    Used by the hash join: instead of re-running ``np.unique`` over every row
    of both inputs, only the (much smaller) dictionaries are merged and each
    side's codes are remapped through the merged positions.
    """
    left_codes, left_dictionary = left
    right_codes, right_dictionary = right
    union, left_map, right_map = union_dictionaries(left_dictionary, right_dictionary)
    if left_map is not None:
        left_codes = left_map[left_codes]
    return left_codes, right_map[right_codes], len(union)


def null_code(dictionary: np.ndarray) -> int:
    """Position of the NULL sentinel in ``dictionary`` (-1 when absent)."""
    position = int(np.searchsorted(dictionary, NULL_SENTINEL))
    if position < len(dictionary) and dictionary[position] == NULL_SENTINEL:
        return position
    return -1


def code_for_value(dictionary: np.ndarray, value: str) -> int:
    """Position of a raw ``value`` in ``dictionary`` (-1 when absent)."""
    key = escape_key(value)
    position = int(np.searchsorted(dictionary, key))
    if position < len(dictionary) and dictionary[position] == key:
        return position
    return -1

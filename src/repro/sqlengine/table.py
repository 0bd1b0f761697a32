"""In-memory columnar table used by the built-in engine.

A :class:`Table` is an ordered mapping of column name to a one-dimensional
column; all columns have the same length.  Numeric columns are stored as
``float64`` or ``int64`` arrays, string columns as ``object`` arrays.  NULLs
are represented as ``NaN`` in float columns and ``None`` in object columns.

A column is a list of parts: the loaded array, then one part per appended
batch.  :meth:`Table.append_columns` — the one append implementation, which
SQL ``INSERT`` and the connectors' bulk ingest both reach — adds the batch
as a part and never copies the rows already stored; :meth:`Table.column`
joins the parts on the first read after an append and keeps the result as
the only part.  What is derived from a column (the dictionary encoding, a
"not a key" verdict) is extended by an append when it is current, at a cost
proportional to the batch; any other mutation invalidates it through the
table's version counter and it is rebuilt lazily on the next request.  A
table made by ``CREATE TABLE ... AS SELECT`` adopts the dictionary codes
its rows already had (:meth:`Table.adopt_dictionary_codes`), so a copied
string column is not encoded a second time.
:meth:`Table.key_index` — a sorted index of a unique numeric column, built
on a join's first request — lets joining a small input to a whole table
cost the small input.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import NamedTuple

import numpy as np

from repro.errors import ExecutionError
from repro.sqlengine.encoding import (
    Encoded,
    compact_encoding,
    encode_key,
    encode_object_array,
    exact_cast,
    null_code,
    numeric_key,
    union_dictionaries,
)


def normalize_column(values: Sequence | np.ndarray) -> np.ndarray:
    """Convert ``values`` into a 1-D numpy array with a supported dtype."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ExecutionError("columns must be one-dimensional")
    if array.dtype.kind in ("i", "u"):
        return array.astype(np.int64, copy=False)
    if array.dtype.kind == "f":
        return array.astype(np.float64, copy=False)
    if array.dtype.kind == "b":
        return array.astype(bool, copy=False)
    if array.dtype.kind in ("U", "S", "O"):
        return array.astype(object, copy=False)
    raise ExecutionError(f"unsupported column dtype: {array.dtype}")


def coerce_column(stored: np.dtype, values: Sequence | np.ndarray) -> np.ndarray:
    """Cast one batch column for appending to a column stored as ``stored``.

    Returns the batch in the dtype the column has *after* the append: the
    stored dtype whenever it holds every incoming value faithfully, else the
    narrowest wider one —

    * an integer (or boolean) column receiving NULLs or non-integral numbers
      widens to ``float64`` (NULL is NaN, as at load); integral floats such
      as ``5.0`` are stored as the integers they are;
    * a boolean column receiving integers widens to ``int64``;
    * an ``object`` batch holding only ``None`` and numbers is a numeric
      batch with NULLs, not a reason to turn a numeric column into strings;
    * anything else (a string for a numeric column) promotes to ``object``;
    * NULL in an ``object`` column is ``None``, however it arrived.

    Pure: :func:`coerce_batch` applies it to a whole batch before a column
    is touched.
    """
    array = normalize_column(values)
    if stored == object:
        array = array.astype(object, copy=False)
        nan = array != array  # a NULL that arrived as NaN (a SQL NULL literal, a float batch)
        if nan.any():
            array = array.copy()
            array[nan] = None
        return array
    if array.dtype == object:
        numeric = _numeric_or_none(array)
        if numeric is None:
            return array
        array = numeric
    if array.dtype == stored or stored.kind == "f":
        return array.astype(stored, copy=False)
    if array.dtype.kind == "f":
        integral = (array == np.floor(array)) & (np.abs(array) < 2.0**63)
        if not integral.all():
            return array
    return array.astype(np.int64, copy=False)


def _numeric_or_none(array: np.ndarray) -> np.ndarray | None:
    """``float64`` view of an object array of ``None``/numbers, else None."""
    floats = np.empty(len(array), dtype=np.float64)
    for index, value in enumerate(array.tolist()):
        if value is None:
            floats[index] = np.nan
        elif isinstance(value, (int, float, np.number, np.bool_)):
            floats[index] = value
        else:
            return None
    return floats


def coerce_batch(
    stored: Mapping[str, np.dtype], columns: Mapping[str, Sequence | np.ndarray]
) -> dict[str, np.ndarray]:
    """Validate a columnar batch against a table's stored dtypes and cast it.

    The one definition of an appendable batch, shared by the engine and the
    connectors: its column set equals the table's, every column is
    one-dimensional with a supported dtype (:func:`coerce_column` fixes the
    cast) and all have one length.  Returns the cast arrays in table column
    order; raises :class:`~repro.errors.ExecutionError` and touches nothing.
    """
    if set(columns) != set(stored):
        raise ExecutionError(
            f"batch columns {sorted(columns)} do not match the table's: {sorted(stored)}"
        )
    arrays = {name: coerce_column(dtype, columns[name]) for name, dtype in stored.items()}
    if len({len(array) for array in arrays.values()}) > 1:
        raise ExecutionError("all appended columns must have the same length")
    return arrays


class KeyIndex(NamedTuple):
    """Sorted unique-key index of one numeric column.

    ``keys`` holds the column's values in the dtype they compare in (int64,
    bool as int64, or float64) sorted strictly increasing — unique and
    NaN-free — and ``order`` the table row holding each key.
    """

    order: np.ndarray
    keys: np.ndarray

    def lookup(self, probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(probe positions with a match, the table row each one matches)``.

        ``probe`` is any numeric column; it matches by exact value, as the
        hash join does (:func:`~repro.sqlengine.encoding.exact_cast`).  A key
        is unique, so every probe value matches at most one row; a NaN probe
        matches none.
        """
        rows, converted = exact_cast(probe, self.keys.dtype)
        found, positions = find_sorted(self.keys, converted)
        return found if rows is None else rows[found], self.order[positions]


def find_sorted(
    sorted_values: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where ``values`` occur in a strictly increasing array.

    Returns ``(found, positions)``: the indices into ``values`` of the
    entries present in ``sorted_values``, and where each one stands there.
    """
    positions = np.searchsorted(sorted_values, values)
    inside = positions < len(sorted_values)
    hit = np.zeros(len(values), dtype=bool)
    hit[inside] = sorted_values[positions[inside]] == values[inside]
    found = np.flatnonzero(hit)
    return found, positions[found]


class Table:
    """A named collection of equally sized columns."""

    def __init__(self, name: str, columns: Mapping[str, Sequence] | None = None) -> None:
        self.name = name
        # Column name -> list of parts: the loaded array, then one part per
        # appended batch, all of the column's current dtype.  ``column()``
        # joins them and keeps the result as the only part; an empty column
        # is a single empty part so the dtype survives.
        self._parts: dict[str, list[np.ndarray]] = {}
        self._num_rows = 0
        # Monotonic version bumped on every mutation; memoized per-column
        # dictionary encodings, distinct counts and unique-key indexes are
        # keyed on it so DML invalidates them (each is rebuilt lazily on the
        # next use).
        self._version = 0
        self._dictionary_cache: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}
        # Column name -> (version, distinct non-NULL values).
        self._distinct_cache: dict[str, tuple[int, int]] = {}
        # Numeric column name -> (version, unique-key index or None for "not
        # a key").  Built on a join's first request, never at load; an append
        # keeps a "not a key" verdict (new rows cannot make a column unique)
        # and drops an index.  The lock keeps concurrent first requests from
        # building one twice.
        self._key_index_cache: dict[str, tuple[int, KeyIndex | None]] = {}
        self._key_index_lock = threading.Lock()
        if columns:
            for column_name, values in columns.items():
                self.add_column(column_name, values)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls, name: str, column_names: Sequence[str], rows: Iterable[Sequence]
    ) -> Table:
        """Build a table from an iterable of row tuples."""
        materialized = [tuple(row) for row in rows]
        columns: dict[str, np.ndarray] = {}
        for index, column_name in enumerate(column_names):
            values = [row[index] for row in materialized]
            columns[column_name] = _infer_array(values)
        table = cls(name)
        if not materialized:
            for column_name in column_names:
                table.add_column(column_name, np.array([], dtype=object))
            return table
        for column_name, array in columns.items():
            table.add_column(column_name, array)
        return table

    def add_column(self, name: str, values: Sequence | np.ndarray) -> None:
        """Add (or replace) a column; its length must match existing columns."""
        array = normalize_column(values)
        if self._parts and len(array) != self._num_rows:
            raise ExecutionError(
                f"column {name!r} has {len(array)} rows, expected {self._num_rows}"
            )
        if not self._parts:
            self._num_rows = len(array)
        self._parts[name] = [array]
        self._version += 1

    # -- inspection ----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def version(self) -> int:
        """Mutation counter; changes whenever column data changes."""
        return self._version

    def dictionary_codes(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Memoized dictionary encoding of an object (string) column.

        Returns ``(codes, dictionary)`` for object-dtype columns and ``None``
        for numeric/boolean ones (which are already fast to group and join).
        The encoding is cached per column until the table is mutated;
        :meth:`append_columns` extends a current one instead of dropping it.
        """
        if self.column_dtype(name) != object:
            return None
        cached = self.cached_dictionary_codes(name)
        if cached is not None:
            return cached
        codes, dictionary = encode_object_array(self.column(name))
        self._dictionary_cache[name] = (self._version, codes, dictionary)
        return codes, dictionary

    def cached_dictionary_codes(self, name: str) -> Encoded | None:
        """The column's current dictionary encoding if one is memoized, else
        None; never encodes."""
        cached = self._dictionary_cache.get(name)
        if cached is None or cached[0] != self._version:
            return None
        return cached[1], cached[2]

    def adopt_dictionary_codes(
        self, name: str, codes: np.ndarray, dictionary: np.ndarray
    ) -> None:
        """Memoize an object column's encoding computed elsewhere.

        ``codes`` are the column's rows against a sorted ``dictionary`` that
        may hold more entries (the codes a ``SELECT`` carried from its source
        table); the unused entries are dropped, so the result is exactly what
        encoding the rows gives.
        """
        codes, dictionary = compact_encoding(codes, dictionary)
        self._dictionary_cache[name] = (self._version, codes, dictionary)

    def distinct_count(self, name: str) -> int:
        """Number of distinct non-NULL values in a column.

        The key codec's cardinality less its NULL code: the number of
        non-NULL groups ``GROUP BY`` forms and what ``COUNT(DISTINCT)``
        counts.  An object column counts its memoized dictionary, which
        holds exactly the values present (encoding, extending and adopting
        all keep it compact), so after an append it costs what extending the
        dictionary cost and never joins the column's parts; a numeric column
        is encoded once per table version.
        """
        cached = self._distinct_cache.get(name)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        encoded = self.dictionary_codes(name)
        if encoded is not None:
            dictionary = encoded[1]
            count = len(dictionary) - (null_code(dictionary) >= 0)
        else:
            key = encode_key(self.column(name))
            count = key.cardinality - (key.null_code >= 0)
        self._distinct_cache[name] = (self._version, count)
        return count

    def key_index(
        self, name: str, on_build: Callable[[], None] | None = None
    ) -> KeyIndex | None:
        """Memoized unique-key index of a numeric column, or None.

        None means the column is an object column or not a key: it has a
        duplicate (``-0.0`` and ``0.0`` count as one, as in the hash join;
        int64 values are compared exactly) or a NaN.  Built at most once per
        table version; ``on_build`` is called when this request built it.
        """
        if self.column_dtype(name).kind not in "iufb":
            return None
        with self._key_index_lock:
            cached = self._key_index_cache.get(name)
            if cached is not None and cached[0] == self._version:
                return cached[1]
            keys = numeric_key(self.column(name))
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            # NaN sorts last, and fails every comparison before it.
            unique = not np.isnan(sorted_keys[-1:]).any() and bool(
                np.all(sorted_keys[1:] > sorted_keys[:-1])
            )
            index = KeyIndex(order, sorted_keys) if unique else None
            self._key_index_cache[name] = (self._version, index)
            if on_build is not None:
                on_build()
            return index

    @property
    def column_names(self) -> list[str]:
        return list(self._parts.keys())

    def _column_parts(self, name: str) -> list[np.ndarray]:
        parts = self._parts.get(name)
        if parts is None:
            raise ExecutionError(f"table {self.name!r} has no column {name!r}")
        return parts

    def column_dtype(self, name: str) -> np.dtype:
        """Stored dtype of a column, without joining its parts."""
        return self._column_parts(name)[0].dtype

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._parts

    def column(self, name: str) -> np.ndarray:
        """Return the whole column as one contiguous array.

        The first read after an append joins the parts and keeps the result
        as the column's only part, so later reads cost nothing.
        """
        parts = self._column_parts(name)
        if len(parts) > 1:
            # SELECTs share the engine's read lock, so two readers may both
            # join the parts: each gets an equal array, and appends (which
            # replace the list) hold the write lock.
            parts[:] = [np.concatenate(parts)]
        return parts[0]

    def columns(self) -> dict[str, np.ndarray]:
        """Return a name -> contiguous-array mapping of every column."""
        return {name: self.column(name) for name in self._parts}

    def rows(self) -> Iterable[tuple]:
        """Iterate over rows as tuples (mainly for tests and small results)."""
        arrays = [self.column(name) for name in self._parts]
        for index in range(self._num_rows):
            yield tuple(array[index] for array in arrays)

    def resolve_column(self, name: str) -> str | None:
        """Resolve a column reference case-insensitively (None = no unique match)."""
        if name in self._parts:
            return name
        lowered = name.lower()
        matches = [column for column in self._parts if column.lower() == lowered]
        return matches[0] if len(matches) == 1 else None

    # -- mutation -------------------------------------------------------------

    def take(self, indices: np.ndarray) -> Table:
        """Return a new table containing the rows selected by ``indices``."""
        result = Table(self.name)
        for column_name in self._parts:
            result.add_column(column_name, self.column(column_name)[indices])
        return result

    def filter(self, mask: np.ndarray) -> Table:
        """Return a new table containing the rows where ``mask`` is True."""
        return self.take(np.flatnonzero(np.asarray(mask, dtype=bool)))

    def append_rows(self, column_names: Sequence[str], rows: Iterable[Sequence]) -> None:
        """Append row tuples (given in ``column_names`` order): a transposition
        onto :meth:`append_columns`."""
        materialized = [tuple(row) for row in rows]
        if not materialized:
            return
        self.append_columns(
            {
                name: _infer_array([row[index] for row in materialized])
                for index, name in enumerate(column_names)
            }
        )

    def append_columns(self, columns: Mapping[str, Sequence | np.ndarray]) -> None:
        """Append a columnar batch — the table's only append implementation.

        Atomic: the whole batch is validated and cast (:func:`coerce_batch`)
        before any column changes, so a rejected batch leaves the table as it
        was.  Each column gains the batch as one more part; the rows already
        stored are not copied (unless the column changes dtype).  A current
        dictionary encoding is extended from the batch and a current "not a
        key" verdict kept; anything else derived is rebuilt lazily.
        """
        arrays = coerce_batch(
            {name: parts[0].dtype for name, parts in self._parts.items()}, columns
        )
        count = len(next(iter(arrays.values()))) if arrays else 0
        if count == 0:
            return
        encodings = {name: self._append_column(name, array) for name, array in arrays.items()}
        not_keys = [
            name for name, (version, index) in self._key_index_cache.items()
            if version == self._version and index is None
        ]
        self._num_rows += count
        self._version += 1
        for name in not_keys:
            self._key_index_cache[name] = (self._version, None)
        for name, encoding in encodings.items():
            if encoding is not None:
                self._dictionary_cache[name] = (self._version, *encoding)

    def _append_column(
        self, name: str, new: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Add ``new`` (already cast by :func:`coerce_column`) as a part of one
        column.

        Returns the column's extended dictionary encoding, or None when it
        was not current before the append or the column changes dtype
        (= rebuild lazily).
        """
        parts = self._parts[name]
        encoding = None
        if new.dtype != parts[0].dtype:
            # Widening changes the representation of every stored row.
            parts = [coerce_column(new.dtype, part) for part in parts]
        elif new.dtype == object:
            current = self.cached_dictionary_codes(name)
            if current is not None:
                encoding = _extend_encoding(*current, new)
        self._parts[name] = [*parts, new]
        return encoding

    def append_table(self, other: Table) -> None:
        """Append all rows of ``other`` (columns matched by name)."""
        self.append_columns(other.columns())

    # -- sizing ---------------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Approximate in-memory footprint, used by the experiment harness."""
        total = 0
        for parts in self._parts.values():
            for part in parts:
                if part.dtype == object:
                    total += sum(len(str(value)) for value in part) + 8 * len(part)
                else:
                    total += part.nbytes
        return total

    def copy(self, name: str | None = None) -> Table:
        """Return a deep copy of the table, optionally renamed."""
        result = Table(name or self.name)
        for column_name in self._parts:
            result.add_column(column_name, self.column(column_name).copy())
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Table({self.name!r}, rows={self._num_rows}, columns={self.column_names})"


def _infer_array(values: list) -> np.ndarray:
    """Infer a column array from a list of python values."""
    has_none = any(value is None for value in values)
    non_null = [value for value in values if value is not None]
    if non_null and all(isinstance(value, bool) for value in non_null) and not has_none:
        return np.array(values, dtype=bool)
    if non_null and all(isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                        for value in non_null):
        if has_none:
            return np.array(
                [np.nan if value is None else float(value) for value in values], dtype=np.float64
            )
        return np.array(values, dtype=np.int64)
    if non_null and all(
        isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
        for value in non_null
    ):
        return np.array(
            [np.nan if value is None else float(value) for value in values], dtype=np.float64
        )
    return np.array(values, dtype=object)


def _extend_encoding(
    codes: np.ndarray, dictionary: np.ndarray, new: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dictionary encoding of a column after ``new`` is appended to it.

    The batch is encoded on its own and its small dictionary merged into the
    column's; existing codes are remapped only when the batch brought a
    value the column had not seen.
    """
    batch_codes, batch_dictionary = encode_object_array(new)
    union, old_map, batch_map = union_dictionaries(dictionary, batch_dictionary)
    if old_map is not None:
        codes = old_map[codes]
    return np.concatenate([codes, batch_map[batch_codes]]), union

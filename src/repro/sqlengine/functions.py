"""Scalar and aggregate function registries for the built-in engine.

Scalar functions are vectorised: they receive numpy arrays (or python
scalars broadcast by the evaluator) and return an array of the same length.
Aggregate functions receive the argument arrays together with the group
assignment of each row and return one value per group.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.errors import BindParameterError, ExecutionError
from repro.sqlengine import sketches
from repro.sqlengine.encoding import (
    KeyCodes,
    distinct_strings,
    encode_key,
    group_rows_encoded,
)


class EvaluationContext:
    """Per-query evaluation state shared by scalar functions.

    Attributes:
        num_rows: number of rows in the frame currently being evaluated.
        rng: the engine's random generator (used by ``rand()``).
        params: bound query-parameter values for ``?`` / ``:name``
            placeholders — a sequence (positional) or mapping (named), or
            None when the statement was executed without parameters.
        deadline: optional :class:`repro.faults.QueryDeadline`; the executor
            calls :meth:`checkpoint` in its hot loops so a timeout or a
            cross-thread cancel stops the query cooperatively.
        faults: optional :class:`repro.faults.FaultInjector` whose
            ``executor.checkpoint`` failpoint fires at every checkpoint
            (chaos tests use it to simulate slow or failing scans).
    """

    def __init__(
        self,
        num_rows: int,
        rng: np.random.Generator,
        params: Sequence | dict | None = None,
        deadline=None,
        faults=None,
    ) -> None:
        self.num_rows = num_rows
        self.rng = rng
        self.params = params
        self.deadline = deadline
        self.faults = faults

    def checkpoint(self) -> None:
        """Cooperative cancellation point for the executor's hot loops."""
        if self.faults is not None:
            self.faults.fire("executor.checkpoint")
        if self.deadline is not None:
            self.deadline.check()

    def param_value(self, placeholder) -> object:
        """Resolve one :class:`~repro.sqlengine.sqlast.Placeholder`.

        A parameter mapping binds by name; a parameter sequence binds by the
        placeholder's positional index (the 0-based position of its ``?`` in
        the template text).  Raises :class:`BindParameterError` when the
        statement was executed without (or with the wrong shape of)
        parameters — placeholders never silently evaluate to NULL.
        """
        if self.params is None:
            raise BindParameterError(
                "statement contains parameter placeholders but no parameters were bound"
            )
        if isinstance(self.params, Mapping):
            if placeholder.name is not None and placeholder.name in self.params:
                return self.params[placeholder.name]
            raise BindParameterError(
                f"no value bound for named parameter :{placeholder.name}"
            )
        if placeholder.index is None:
            raise BindParameterError(
                f"named parameter :{placeholder.name} requires a parameter mapping"
            )
        if placeholder.index >= len(self.params):
            raise BindParameterError(
                f"statement expects at least {placeholder.index + 1} parameters, "
                f"got {len(self.params)}"
            )
        return self.params[placeholder.index]


ScalarFunction = Callable[..., np.ndarray]


def as_float(array: np.ndarray) -> np.ndarray:
    """A numeric column as float64; a NULL (None) is NaN."""
    if array.dtype == object:
        return np.array(
            [np.nan if value is None else float(value) for value in array], dtype=np.float64
        )
    return array.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_rand(context: EvaluationContext) -> np.ndarray:
    return context.rng.random(context.num_rows)


def _fn_round(context: EvaluationContext, values: np.ndarray, digits=None) -> np.ndarray:
    floats = as_float(values)
    if digits is None:
        return np.round(floats)
    digit_count = int(np.asarray(digits).flat[0])
    return np.round(floats, digit_count)


def _fn_floor(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return np.floor(as_float(values))


def _fn_ceil(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return np.ceil(as_float(values))


def _fn_abs(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return np.abs(as_float(values))


def _fn_sqrt(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return np.sqrt(as_float(values))


def _fn_ln(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return np.log(as_float(values))


def _fn_exp(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return np.exp(as_float(values))


def _fn_power(context: EvaluationContext, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    return np.power(as_float(base), as_float(exponent))


def _fn_mod(context: EvaluationContext, values: np.ndarray, divisor: np.ndarray) -> np.ndarray:
    return np.mod(as_float(values), as_float(divisor))


def _fn_greatest(context: EvaluationContext, *args: np.ndarray) -> np.ndarray:
    result = as_float(args[0])
    for other in args[1:]:
        result = np.maximum(result, as_float(other))
    return result


def _fn_least(context: EvaluationContext, *args: np.ndarray) -> np.ndarray:
    result = as_float(args[0])
    for other in args[1:]:
        result = np.minimum(result, as_float(other))
    return result


def _fn_coalesce(context: EvaluationContext, *args: np.ndarray) -> np.ndarray:
    result = np.asarray(args[0], dtype=object).copy()
    for other in args[1:]:
        other = np.asarray(other, dtype=object)
        missing = np.array(
            [value is None or (isinstance(value, float) and np.isnan(value)) for value in result]
        )
        result[missing] = other[missing]
    return result


def _string_array(values: np.ndarray) -> np.ndarray:
    """Each value's string form; NULL — ``None`` or a float NaN — stays None.

    The string-form rule behind ``concat``, ``cast_varchar`` and the string
    functions (a hash reads values by :func:`hash_text`).  Numeric columns
    store NULL as NaN, so a NaN must read as NULL, like the SQL NULL another
    backend passes in, never as ``"nan"``.
    """
    return np.array(
        [None if value is None or value != value else str(value) for value in values],
        dtype=object,
    )


def _fn_upper(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    strings = _string_array(values)
    return np.array([None if s is None else s.upper() for s in strings], dtype=object)


def _fn_lower(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    strings = _string_array(values)
    return np.array([None if s is None else s.lower() for s in strings], dtype=object)


def _fn_length(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    strings = _string_array(values)
    return np.array([0 if s is None else len(s) for s in strings], dtype=np.int64)


def _fn_substr(
    context: EvaluationContext, values: np.ndarray, start: np.ndarray, length=None
) -> np.ndarray:
    strings = _string_array(values)
    start_index = int(np.asarray(start).flat[0]) - 1
    if length is None:
        return np.array(
            [None if s is None else s[start_index:] for s in strings], dtype=object
        )
    size = int(np.asarray(length).flat[0])
    return np.array(
        [None if s is None else s[start_index : start_index + size] for s in strings],
        dtype=object,
    )


def _fn_concat(context: EvaluationContext, *args: np.ndarray) -> np.ndarray:
    """``concat(a, b, ...)`` row by row; NULL parts contribute nothing."""
    string_args = [_string_array(np.asarray(arg, dtype=object)) for arg in args]
    return np.array(
        ["".join("" if part is None else part for part in parts) for parts in zip(*string_args)],
        dtype=object,
    )


_EXACT_FLOAT = 2.0**53  # floats below this in magnitude are exact integers


def hash_text(value) -> str:
    """The string a hash reads for one value.

    NULL (``None`` or a NaN) reads as ``""``, and a finite integral float
    below ``2**53`` in magnitude as its integer's digits (``-0.0`` as
    ``"0"``), since the key codec and ``=`` hold ``87.0`` and ``87`` to be
    one key; anything else reads as ``str(value)``.  The rule is per value,
    never per column: an int key column that gains a NULL is stored as
    floats and must hash its keys as before.  ``vdb_hash`` and ``crc32``
    read values this way on every backend (``SqliteConnector`` calls this).
    """
    if value is None or value != value:
        return ""
    if isinstance(value, (float, np.floating)) and abs(value) < _EXACT_FLOAT:
        if float(value).is_integer():
            return str(int(value))
    return str(value)


def _crc32(values: np.ndarray) -> np.ndarray:
    """CRC-32 of the string each value reads as (:func:`hash_text`), as int64.

    Int and uint columns, and the integral values of a float column, go
    through the vectorised kernel (:func:`_crc32_integers`); a bool column
    is two constants; an object column of strings and NULLs hashes each
    distinct string once; any other value is read one by one.
    """
    kind = values.dtype.kind
    if kind in "iu":
        return _crc32_integers(values)
    if kind == "b":
        return np.where(values, _CRC32_TRUE, _CRC32_FALSE)
    if kind == "f":
        wide = values.astype(np.float64, copy=False)
        integral = (np.abs(wide) < _EXACT_FLOAT) & (np.floor(wide) == wide)
        other = ~integral & ~np.isnan(wide)
        hashes = np.zeros(len(values), dtype=np.int64)  # NaN reads as "": CRC-32 0
        hashes[integral] = _crc32_integers(wide[integral].astype(np.int64))
        hashes[other] = _crc32_strings([hash_text(value) for value in values[other]])
        return hashes
    if kind == "O" and (grouped := distinct_strings(values)) is not None:
        codes, distinct = grouped
        return _crc32_strings(distinct)[codes]
    return _crc32_strings([hash_text(value) for value in values])


def _crc32_strings(values: Sequence) -> np.ndarray:
    """CRC-32 of each string, None hashing as ``""``."""
    return np.array(
        [zlib.crc32(("" if s is None else s).encode("utf-8")) for s in values],
        dtype=np.int64,
    )


# The integer kernel.  zlib's CRC-32 is affine over messages of one length:
# crc32(m) = crc32(b"\0" * len(m)) ^ raw(m), where raw is the CRC with a zero
# initial value and no final XOR, which is linear (XOR) in m and unchanged by
# leading NUL bytes.  So raw of a decimal string, its digits right-aligned in
# 3-digit chunks, is an XOR of one table entry per chunk, corrected for the
# '0's the chunks put above the leading digit and for a '-' sign.
_CHUNKS = 7  # 21 digits; 2**64 - 1 has 20
_WIDTH = 3 * _CHUNKS
_POWERS = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_BLOCK = 1 << 16  # rows per pass: a block's temporaries stay in cache


def _crc32_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's ``uint32`` lookup tables, built once.

    ``chunk[j][c]`` is raw(``b"%03d" % c + b"\\0" * 3j``).  Indexed by a
    position n counted from a string's end (0 is its last byte):
    ``zeros[n]`` is crc32(``b"\\0" * n``), ``pad[n]`` raw of ``'0'`` at
    positions n to 20 and ``sign[n]`` raw of ``'-'`` at position n.
    """

    def raw(message: bytes) -> int:
        return zlib.crc32(message, 0xFFFFFFFF) ^ 0xFFFFFFFF

    digit = np.array(
        [[raw(b"%d" % d + b"\0" * p) for d in range(10)] for p in range(_WIDTH)], dtype=np.uint32
    )
    c = np.arange(1000)
    chunk = np.stack(
        [digit[3 * j + 2][c // 100] ^ digit[3 * j + 1][c // 10 % 10] ^ digit[3 * j][c % 10]
         for j in range(_CHUNKS)]
    )
    positions = range(_WIDTH + 1)
    zeros = np.array([zlib.crc32(b"\0" * n) for n in positions], dtype=np.uint32)
    pad = np.array([raw(b"0" * (_WIDTH - n) + b"\0" * n) for n in positions], dtype=np.uint32)
    sign = np.array([raw(b"-" + b"\0" * n) for n in positions], dtype=np.uint32)
    return chunk, zeros, pad, sign


_CRC32_CHUNK, _CRC32_ZEROS, _CRC32_PAD, _CRC32_SIGN = _crc32_tables()
_CRC32_TRUE, _CRC32_FALSE = _crc32_strings(["True", "False"])


def _crc32_integers(values: np.ndarray) -> np.ndarray:
    """``zlib.crc32(str(v).encode())`` of each value of an int or uint
    column of any width, as int64, with no Python call per value.

    A dense column (span at most its row count, so ``hi - lo + 1 <= rows``)
    hashes each value of its span once and gathers by offset.
    """
    values = values.astype(np.uint64 if values.dtype.kind == "u" else np.int64, copy=False)
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    low, high = int(values.min()), int(values.max())
    if high - low < len(values):
        start = values.dtype.type(low)
        span = start + np.arange(high - low + 1, dtype=values.dtype)
        return _crc32_blocks(span).take((values - start).view(np.int64))
    return _crc32_blocks(values)


def _crc32_blocks(values: np.ndarray) -> np.ndarray:
    hashes = np.empty(len(values), dtype=np.int64)
    for start in range(0, len(values), _BLOCK):
        hashes[start : start + _BLOCK] = _crc32_block(values[start : start + _BLOCK])
    return hashes


def _crc32_block(values: np.ndarray) -> np.ndarray:
    """The kernel over one block of an int64 or uint64 column."""
    if values.dtype.kind == "i":
        negative = values < 0
        magnitude = np.abs(values).view(np.uint64)  # abs(-2**63) wraps to 2**63
    else:
        negative = None
        magnitude = values
    top = int(magnitude.max())
    digits = np.ones(len(values), dtype=np.intp)
    for power in _POWERS[_POWERS <= top]:
        digits += magnitude >= power
    chunks = -(-len(str(top)) // 3)
    crc = _CRC32_PAD.take(digits)
    crc ^= _CRC32_PAD[3 * chunks]
    if negative is not None and negative.any():
        crc ^= np.where(negative, _CRC32_SIGN.take(digits), np.uint32(0))
        digits += negative
    crc ^= _CRC32_ZEROS.take(digits)
    rest = magnitude
    for table in _CRC32_CHUNK[:chunks]:
        quotient = rest // np.uint64(1000)
        crc ^= table.take((rest - quotient * np.uint64(1000)).view(np.int64))
        rest = quotient
    return crc.astype(np.int64)


def _fn_crc32(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return _crc32(values)


def hash_unit_interval(values: np.ndarray) -> np.ndarray:
    """Uniform hash of each value into [0, 1): the CRC-32 of the string it
    reads as, by value (:func:`hash_text`), over ``2**32``.

    The one definition of the universe-sample hash, reached through
    ``vdb_hash``: the hashed membership rule keeps a row when this falls
    below the sampling ratio, in the built sample and, evaluated over the
    batch, in every append, so a key is in or out of every hashed sample
    alike.  A number is read by value, so ``87``, ``87.0`` and an int key
    column that gained a NULL (stored as floats) hash alike; NULL (``None``
    or NaN) and the empty string read as ``""`` and hash to 0.
    """
    return _crc32(values) / 4294967296.0


def _fn_vdb_hash(context: EvaluationContext, *parts: np.ndarray) -> np.ndarray:
    """``vdb_hash(x)``: the hash hashed (universe) samples are built with;
    ``vdb_hash(a, b, ...)`` reads each part by :func:`hash_text`, end to end."""
    if len(parts) == 1:
        return hash_unit_interval(parts[0])
    keys = ["".join(map(hash_text, row)) for row in zip(*parts)]
    return _crc32_strings(keys) / 4294967296.0


def _fn_cast_int(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return as_float(values).astype(np.int64)


def _fn_cast_float(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return as_float(values)


def _fn_cast_varchar(context: EvaluationContext, values: np.ndarray) -> np.ndarray:
    return _string_array(np.asarray(values, dtype=object))


SCALAR_FUNCTIONS: dict[str, ScalarFunction] = {
    "rand": _fn_rand,
    "random": _fn_rand,
    "round": _fn_round,
    "floor": _fn_floor,
    "ceil": _fn_ceil,
    "ceiling": _fn_ceil,
    "abs": _fn_abs,
    "sqrt": _fn_sqrt,
    "ln": _fn_ln,
    "log": _fn_ln,
    "exp": _fn_exp,
    "power": _fn_power,
    "pow": _fn_power,
    "mod": _fn_mod,
    "greatest": _fn_greatest,
    "least": _fn_least,
    "coalesce": _fn_coalesce,
    "upper": _fn_upper,
    "lower": _fn_lower,
    "length": _fn_length,
    "substr": _fn_substr,
    "substring": _fn_substr,
    "concat": _fn_concat,
    "crc32": _fn_crc32,
    "md5_hash": _fn_vdb_hash,
    "vdb_hash": _fn_vdb_hash,
    "cast_int": _fn_cast_int,
    "cast_integer": _fn_cast_int,
    "cast_bigint": _fn_cast_int,
    "cast_double": _fn_cast_float,
    "cast_float": _fn_cast_float,
    "cast_decimal": _fn_cast_float,
    "cast_varchar": _fn_cast_varchar,
    "cast_string": _fn_cast_varchar,
}


# Functions whose value changes per evaluation.  The planner must never move
# an expression containing one (the number of rows it is evaluated over — and
# thus the engine's RNG stream — would change), and the executor must never
# deduplicate one across aggregate arguments.
NONDETERMINISTIC_FUNCTIONS = frozenset({"rand", "random"})

# Pure per-value string maps: applying them to a dictionary's distinct
# entries and broadcasting the results through the codes is equivalent to
# applying them row by row (NULL maps to NULL — or 0 for ``length`` — on
# both paths).  The expression layer uses this for coded columns so the
# python-level comprehensions run over the dictionary, not the column.
DICTIONARY_SCALAR_FUNCTIONS = frozenset({"upper", "lower", "length", "substr", "substring"})


def is_nondeterministic_function(name: str) -> bool:
    return name.lower() in NONDETERMINISTIC_FUNCTIONS


def is_dictionary_scalar_function(name: str) -> bool:
    return name.lower() in DICTIONARY_SCALAR_FUNCTIONS


def call_scalar(
    name: str, context: EvaluationContext, args: Sequence[np.ndarray | None]
) -> np.ndarray:
    """Invoke a scalar function by name."""
    try:
        function = SCALAR_FUNCTIONS[name.lower()]
    except KeyError:
        raise ExecutionError(f"unknown function {name!r}") from None
    result = function(context, *args)
    result = np.asarray(result)
    if result.ndim == 0:
        result = np.full(context.num_rows, result[()], dtype=result.dtype)
    return result


# ---------------------------------------------------------------------------
# Aggregate functions
# ---------------------------------------------------------------------------

AGGREGATE_FUNCTION_NAMES = frozenset(
    {
        "count", "sum", "avg", "mean", "min", "max",
        "stddev", "stddev_samp", "stddev_pop", "var", "variance", "var_samp", "var_pop",
        "median", "percentile", "quantile", "percentile_disc", "approx_median", "ndv",
        "approx_count_distinct",
    }
)


def is_aggregate_function(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTION_NAMES


def _group_sum(values: np.ndarray, inverse: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-group sums of the non-NULL values; a group with none is NULL.

    Grouping gives every group a row, so non-NULL rows need counting only
    when a value is NULL or there is no row at all: a column without NULLs
    costs one ``bincount``.
    """
    floats = as_float(values)
    missing = np.isnan(floats)
    if len(floats) and not missing.any():
        return np.bincount(inverse, weights=floats, minlength=num_groups)
    weights = np.where(missing, 0.0, floats)
    # An empty ``bincount`` ignores its weights' dtype and returns ints.
    sums = np.bincount(inverse, weights=weights, minlength=num_groups).astype(np.float64)
    sums[np.bincount(inverse[~missing], minlength=num_groups) == 0] = np.nan
    return sums


def group_counts(values: np.ndarray, inverse: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-group count of the non-NULL values, as float64 (``count(x)``)."""
    if values.dtype == object:
        mask = np.array([value is not None for value in values])
    else:
        floats = values.astype(np.float64, copy=False)
        mask = ~np.isnan(floats)
    return np.bincount(inverse[mask], minlength=num_groups).astype(np.float64)


def _group_extreme(
    values: np.ndarray, inverse: np.ndarray, num_groups: int, take_max: bool
) -> np.ndarray:
    if values.dtype == object:
        result: list[object] = [None] * num_groups
        for value, group in zip(values.tolist(), inverse.tolist()):
            if value is None:
                continue
            current = result[group]
            if current is None or (value > current if take_max else value < current):
                result[group] = value
        return np.array(result, dtype=object)
    floats = as_float(values)
    fill = -np.inf if take_max else np.inf
    result_array = np.full(num_groups, fill, dtype=np.float64)
    operator = np.maximum if take_max else np.minimum
    operator.at(result_array, inverse, np.where(np.isnan(floats), fill, floats))
    result_array[result_array == fill] = np.nan
    return result_array


def _group_values(values: np.ndarray, inverse: np.ndarray, num_groups: int) -> list[np.ndarray]:
    """Split ``values`` into per-group arrays (sorted by group id)."""
    order = np.argsort(inverse, kind="stable")
    sorted_values = values[order]
    sorted_groups = inverse[order]
    boundaries = np.flatnonzero(np.diff(sorted_groups)) + 1
    pieces = np.split(sorted_values, boundaries)
    present_groups = sorted_groups[np.concatenate([[0], boundaries])] if len(sorted_groups) else []
    result: list[np.ndarray] = [np.array([]) for _ in range(num_groups)]
    for group, piece in zip(present_groups, pieces):
        result[int(group)] = piece
    return result


def group_sums(
    columns: Sequence[np.ndarray], inverse: np.ndarray, num_groups: int
) -> list[np.ndarray]:
    """``sum`` of each column per group, all in one ``bincount``.

    The columns are stacked and column ``k``'s group ``g`` is summed in bin
    ``k * num_groups + g``.  ``bincount`` adds a bin's values in row order,
    so every column's sums are bit-identical to its own ``sum`` aggregate.
    """
    floats, bins = _stacked(columns, inverse, num_groups)
    sums = _group_sum(floats, bins, num_groups * len(columns))
    return _unstacked(sums, len(columns), num_groups)


def group_dispersions(
    name: str, columns: Sequence[np.ndarray], inverse: np.ndarray, num_groups: int
) -> list[np.ndarray]:
    """A ``stddev``/``var`` aggregate of each column per group, stacked as
    :func:`group_sums` stacks them (and as bit-identical per column)."""
    floats, bins = _stacked(columns, inverse, num_groups)
    dispersions = _group_dispersion(name, floats, bins, num_groups * len(columns))
    return _unstacked(dispersions, len(columns), num_groups)


def _stacked(
    columns: Sequence[np.ndarray], inverse: np.ndarray, num_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    floats = [as_float(column) for column in columns]
    if len(floats) == 1:
        return floats[0], inverse
    offsets = np.arange(len(floats), dtype=np.int64) * num_groups
    return np.concatenate(floats), (inverse[np.newaxis, :] + offsets[:, np.newaxis]).ravel()


def _unstacked(stacked: np.ndarray, num_columns: int, num_groups: int) -> list[np.ndarray]:
    return [stacked[k * num_groups : (k + 1) * num_groups] for k in range(num_columns)]


def aggregate(
    name: str,
    args: list[np.ndarray],
    inverse: np.ndarray,
    num_groups: int,
    distinct: bool = False,
    is_star: bool = False,
) -> np.ndarray:
    """Compute the aggregate ``name`` for each group.

    Args:
        name: aggregate function name (case-insensitive).
        args: evaluated argument arrays (empty for ``count(*)``).
        inverse: group index of each input row.
        num_groups: number of groups.
        distinct: whether DISTINCT was specified.
        is_star: whether the call was ``count(*)``.
    """
    name = name.lower()
    if name == "count":
        if is_star or not args:
            return np.bincount(inverse, minlength=num_groups).astype(np.float64)
        if distinct:
            return _count_distinct(args[0], inverse, num_groups)
        return group_counts(args[0], inverse, num_groups)
    if not args:
        raise ExecutionError(f"aggregate {name!r} requires an argument")
    values = args[0]
    if distinct and name != "count":
        raise ExecutionError(f"DISTINCT is not supported for aggregate {name!r}")
    if name == "sum":
        return _group_sum(values, inverse, num_groups)
    if name in ("avg", "mean"):
        totals = _group_sum(values, inverse, num_groups)
        counts = group_counts(values, inverse, num_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, totals / counts, np.nan)
    if name == "min":
        return _group_extreme(values, inverse, num_groups, take_max=False)
    if name == "max":
        return _group_extreme(values, inverse, num_groups, take_max=True)
    if name in ("var", "variance", "var_samp", "var_pop", "stddev", "stddev_samp", "stddev_pop"):
        return _group_dispersion(name, values, inverse, num_groups)
    if name in ("median", "approx_median"):
        return _group_percentile(values, inverse, num_groups, 0.5, approximate=name != "median")
    if name in ("percentile", "quantile", "percentile_disc"):
        fraction = float(np.asarray(args[1]).flat[0]) if len(args) > 1 else 0.5
        return _group_percentile(values, inverse, num_groups, fraction, approximate=False)
    if name in ("ndv", "approx_count_distinct"):
        groups = _group_values(values, inverse, num_groups)
        return np.array([sketches.ndv(group) if len(group) else 0.0 for group in groups])
    raise ExecutionError(f"unknown aggregate function {name!r}")


def _count_distinct(values: np.ndarray, inverse: np.ndarray, num_groups: int) -> np.ndarray:
    """Distinct non-NULL keys per group: the unique (group, key code) pairs
    of the key codec, so "distinct" means what GROUP BY means."""
    key = encode_key(values)
    rows = np.flatnonzero(key.codes != key.null_code)
    groups = KeyCodes(inverse[rows], num_groups)
    _, first = group_rows_encoded([groups, key._replace(codes=key.codes[rows])], len(rows))
    return np.bincount(groups.codes[first], minlength=num_groups).astype(np.float64)


def _group_dispersion(
    name: str, values: np.ndarray, inverse: np.ndarray, num_groups: int
) -> np.ndarray:
    floats = as_float(values)
    valid = ~np.isnan(floats)
    if not valid.all():
        inverse, floats = inverse[valid], floats[valid]
    counts = np.bincount(inverse, minlength=num_groups).astype(np.float64)
    sums = np.bincount(inverse, weights=floats, minlength=num_groups)
    squares = np.bincount(inverse, weights=floats**2, minlength=num_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        # An empty group sums to 0.0, so 0.0 / 0 makes its mean and
        # variance NaN (NULL), and np.maximum keeps a NaN.
        means = sums / counts
        population_variance = np.maximum(squares / counts - means**2, 0.0)
        if name in ("var_pop", "stddev_pop"):
            variance = population_variance
        else:
            variance = np.where(
                counts > 1, population_variance * counts / (counts - 1), np.nan
            )
    if name.startswith("stddev"):
        return np.sqrt(variance)
    return variance


def _group_percentile(
    values: np.ndarray,
    inverse: np.ndarray,
    num_groups: int,
    fraction: float,
    approximate: bool,
) -> np.ndarray:
    groups = _group_values(values, inverse, num_groups)
    results = []
    for group in groups:
        if len(group) == 0:
            results.append(np.nan)
            continue
        if approximate:
            results.append(sketches.approx_percentile(group, fraction))
        else:
            floats = as_float(group)
            floats = floats[~np.isnan(floats)]
            results.append(float(np.quantile(floats, fraction)) if floats.size else np.nan)
    return np.array(results, dtype=np.float64)

"""Scramble preparation per distinct value equals the per-row work it replaced.

``encode_object_array`` normalizes, escapes and sorts each distinct value
once; the CRC-32 behind ``vdb_hash`` hashes each distinct string once and
integers (and integral floats) by a vectorised kernel.  The per-row
references below are the oracles: codes, dictionaries and hashes (one
``zlib.crc32`` per row of the string the value reads as) must match them
exactly.  The samples of a small TPC-H build must
match checksums recorded with the per-row implementations
(``tests/data/sample_checksums.json``; ``python
tests/test_distinct_preparation.py`` prints them), and a ``CREATE TABLE ...
AS SELECT`` that adopts the dictionary codes its rows already have must hold
exactly what a fresh encode of its rows gives.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import SampleSpec
from repro.sqlengine import Database
from repro.sqlengine import functions, table as table_module
from repro.sqlengine.encoding import (
    NULL_SENTINEL,
    encode_object_array,
    escape_key,
    unescape_key,
)
from repro.sqlengine.functions import hash_unit_interval
from repro.workloads import tpch

CHECKSUMS = pathlib.Path(__file__).parent / "data" / "sample_checksums.json"
INT64 = np.iinfo(np.int64)


# ---------------------------------------------------------------------------
# per-row references
# ---------------------------------------------------------------------------


def reference_encode_object_array(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize and escape every row, then sort the rows' strings."""
    normalized = np.array(
        [NULL_SENTINEL if value is None else escape_key(str(value)) for value in array],
        dtype=str,
    )
    dictionary, codes = np.unique(normalized, return_inverse=True)
    return codes.astype(np.int64, copy=False), dictionary


def reference_crc32(values: np.ndarray) -> np.ndarray:
    """CRC-32 of every row read by value: NULL (None or NaN) as ``""``, a
    finite integral float below ``2**53`` in magnitude as its integer's
    digits, anything else as its ``str``."""

    def text(value) -> str:
        if value is None or value != value:
            return ""
        if isinstance(value, (float, np.floating)) and math.isfinite(value):
            if abs(value) < 2**53 and value == math.floor(value):
                return "%d" % value
        return str(value)

    return np.array([zlib.crc32(text(value).encode("utf-8")) for value in values], dtype=np.int64)


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------

TRICKY_STRINGS = [
    "", "\x00", "\x00\x00", "\x00a", "a\x00", "a\x00\x00", "\x01", "\x01\x00", "\x00\x01",
    "a", "B", "None", "nan", "NaN", "True", "1", "1.0", "é", "日本", "\U0001f600",
]
STRINGS = st.one_of(st.none(), st.sampled_from(TRICKY_STRINGS), st.text(max_size=4))
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([INT64.min, INT64.max, 2**53 + 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, math.nan]),
    st.booleans(),
)


@st.composite
def object_columns(draw) -> np.ndarray:
    """Strings and NULLs only (the per-distinct route), or mixed with numbers
    (the per-row route)."""
    values = STRINGS if draw(st.booleans()) else st.one_of(STRINGS, NUMBERS)
    return np.array(draw(st.lists(values, max_size=30)), dtype=object)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def int_columns(draw) -> np.ndarray:
    """Columns of every int and uint width, 0 to 40 rows: dense (span at
    most the rows, hashed once per value of the span) or sparse over the
    dtype's range; each may hold the dtype's extremes (``-2**63`` next to
    ``2**63 - 1``, ``2**64 - 1``)."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    rows = draw(st.integers(0, 40))
    if draw(st.booleans()):
        low = draw(st.integers(int(info.min), int(info.max)))
        values = st.integers(low, min(low + max(rows, 1) - 1, int(info.max)))
    else:
        values = st.integers(int(info.min), int(info.max))
    column = draw(st.lists(values, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        column += [int(info.min), int(info.max)]
    return np.array(draw(st.permutations(column)), dtype=dtype)


@st.composite
def digit_columns(draw) -> np.ndarray:
    """int64 columns whose largest magnitude has 1, 3, 4, 19 (or, unsigned,
    20) digits: the kernel runs as many 3-digit chunks as that maximum
    needs."""
    digits = draw(st.sampled_from([1, 3, 4, 19, 20]))
    unsigned = digits == 20 or draw(st.booleans())
    top = min(10**digits - 1, 2**64 - 1 if unsigned else 2**63 - 1)
    floor = 0 if unsigned else -top - (digits == 19)
    widest = top if unsigned else draw(st.sampled_from([top, floor]))
    rows = draw(st.lists(st.integers(floor, top), max_size=30)) + [widest]
    return np.array(draw(st.permutations(rows)), dtype=np.uint64 if unsigned else np.int64)


def _same_encoding(actual, expected) -> bool:
    return (
        np.array_equal(actual[0], expected[0])
        and actual[0].dtype == expected[0].dtype
        and actual[1].dtype == expected[1].dtype
        and np.array_equal(actual[1], expected[1])
    )


def _same_hashes(values: np.ndarray) -> bool:
    expected = reference_crc32(values) / 4294967296.0
    actual = hash_unit_interval(values)
    return actual.dtype == expected.dtype and np.array_equal(actual, expected)


@given(object_columns())
@settings(max_examples=300, deadline=None)
def test_object_codes_dictionary_and_hashes_match_per_row(column):
    assert _same_encoding(encode_object_array(column), reference_encode_object_array(column))
    assert _same_hashes(column)


@given(int_columns())
@settings(max_examples=300, deadline=None)
def test_int_hashes_match_per_row(column):
    assert _same_hashes(column)


@given(digit_columns())
@settings(max_examples=200, deadline=None)
def test_int_hashes_match_per_row_at_every_chunk_count(column):
    assert _same_hashes(column)


@pytest.mark.parametrize("dense", [True, False])
def test_int_kernel_hashes_a_dense_span_once_across_blocks(monkeypatch, dense):
    """A dense column hashes each value of its span once; a sparse one
    hashes every row; both across several blocks of rows."""
    rng = np.random.default_rng(3)
    rows = 2 * functions._BLOCK + 3
    low, high = (-1_000, rows - 1_000) if dense else (INT64.min, INT64.max)
    column = rng.integers(low, high, rows)
    hashed: list[int] = []
    blocks = functions._crc32_blocks

    def counting(values):
        hashed.append(len(values))
        return blocks(values)

    monkeypatch.setattr(functions, "_crc32_blocks", counting)
    assert _same_hashes(column)
    span = int(column.max()) - int(column.min()) + 1
    assert hashed == ([span] if dense else [rows])


@given(st.lists(st.booleans(), max_size=20))
@settings(max_examples=50, deadline=None)
def test_bool_hashes_match_per_row(values):
    assert _same_hashes(np.array(values, dtype=bool))


FLOATS = st.one_of(
    st.floats(),
    st.integers(-(10**6), 10**6).map(float),
    st.sampled_from([0.0, -0.0, math.nan, 2.0**53, -(2.0**53), 2.0**53 - 1, 1e300, -1e-300]),
)


@given(st.lists(FLOATS, max_size=30))
@settings(max_examples=200, deadline=None)
def test_float_hashes_match_per_row(values):
    """Floats are read by value: an integral float below ``2**53`` hashes
    as its integer does (``87.0`` as ``87``, ``-0.0`` as ``0``), since the
    key codec and ``=`` hold them one key and an int key column that gains
    a NULL is stored as floats; NaN is NULL; other floats hash their
    ``str``."""
    column = np.array(values, dtype=np.float64)
    assert _same_hashes(column)
    integral = column[(np.abs(column) < 2**53) & (np.floor(column) == column)]
    assert np.array_equal(
        hash_unit_interval(integral), hash_unit_interval(integral.astype(np.int64))
    )


def test_trailing_nuls_are_distinct_keys():
    values = ["a", "a\x00", "\x00", "\x00\x00", ""]
    codes, dictionary = encode_object_array(np.array(values, dtype=object))
    assert len(dictionary) == 5
    assert [unescape_key(entry) for entry in dictionary[codes]] == values


NUL_TEXT = st.text(alphabet="\x00\x01\x02a", max_size=6)


@given(NUL_TEXT, NUL_TEXT)
@settings(max_examples=300, deadline=None)
def test_escape_is_injective_order_preserving_and_nul_free(left, right):
    escaped_left, escaped_right = escape_key(left), escape_key(right)
    assert "\x00" not in escaped_left
    assert unescape_key(escaped_left) == left
    assert (left < right) == (escaped_left < escaped_right)
    assert (left == right) == (escaped_left == escaped_right)
    assert NULL_SENTINEL < escaped_left or escaped_left == ""


# ---------------------------------------------------------------------------
# sample checksums of a small TPC-H build
# ---------------------------------------------------------------------------

SAMPLE_SPECS = {
    "lineitem": [
        SampleSpec("uniform", (), 0.02),
        SampleSpec("hashed", ("l_orderkey",), 0.02),
        SampleSpec("hashed", ("l_partkey",), 0.02),
        SampleSpec("stratified", ("l_returnflag",), 0.02),
        SampleSpec("stratified", ("l_shipmode",), 0.02),
    ],
    "orders": [
        SampleSpec("uniform", (), 0.02),
        SampleSpec("hashed", ("o_orderkey",), 0.02),
        SampleSpec("stratified", ("o_orderpriority",), 0.02),
    ],
    "partsupp": [
        SampleSpec("uniform", (), 0.02),
        SampleSpec("hashed", ("ps_partkey",), 0.02),
    ],
}


def _digest(column: np.ndarray) -> str:
    return hashlib.sha256(repr(column.tolist()).encode("utf-8")).hexdigest()[:16]


def sample_checksums(scale_factor: float = 0.05, seed: int = 7) -> dict[str, dict]:
    """Per sample table: its row count and digests of ``vdb_sid``,
    ``vdb_sampling_prob`` and every column, in the order the rows were
    written."""
    database = Database(seed=seed)
    checksums: dict[str, dict] = {}
    with repro.connect(database=database) as connection:
        session = connection.session
        for name, columns in tpch.generate(scale_factor=scale_factor, seed=seed).tables.items():
            session.load_table(name, columns)
        for table, specs in SAMPLE_SPECS.items():
            for spec in specs:
                sample = database.table(session.create_sample(table, spec).sample_table)
                checksums[sample.name] = {
                    "rows": sample.num_rows,
                    "vdb_sid": _digest(sample.column("vdb_sid")),
                    "vdb_sampling_prob": _digest(sample.column("vdb_sampling_prob")),
                    "rows_digest": _digest(
                        np.array([_digest(sample.column(c)) for c in sample.column_names])
                    ),
                }
    return checksums


def test_sample_checksums_match_the_per_row_build():
    recorded = json.loads(CHECKSUMS.read_text())
    assert sample_checksums(recorded["scale_factor"], recorded["seed"]) == recorded["samples"]


# ---------------------------------------------------------------------------
# CREATE TABLE ... AS SELECT adopts the codes its rows already have
# ---------------------------------------------------------------------------

SOURCE = {
    "s": np.array(["b", None, "a", "c", "b", None, "\x00", "a\x00", "dd", "e"], dtype=object),
    "k": np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4], dtype=np.int64),
    "x": np.arange(10, dtype=np.int64),
}
# (statement, whether src.s is encoded before the copy, whether the copy's
# ``s`` adopts codes instead of encoding its rows)
COPIES = [
    ("SELECT * FROM src WHERE x < 4", True, True),
    ("SELECT * FROM src WHERE x < 4", False, False),
    ("SELECT *, rand() AS r FROM src", True, True),
    ("SELECT s, x FROM src ORDER BY x DESC LIMIT 5", True, True),
    ("SELECT s, count(*) AS n FROM src WHERE x > 2 GROUP BY s", True, True),
    ("SELECT a.s AS s, b.x AS x FROM src a JOIN src b ON a.k = b.k WHERE b.x >= 6", True, True),
    ("SELECT DISTINCT s FROM src WHERE x > 4", True, False),
]


@pytest.fixture()
def encodes(monkeypatch):
    """Rows encoded by ``Table.dictionary_codes`` from here on."""
    calls: list[int] = []

    def counting(array):
        calls.append(len(array))
        return encode_object_array(array)

    monkeypatch.setattr(table_module, "encode_object_array", counting)
    return calls


@pytest.mark.parametrize("select, primed, adopts", COPIES)
def test_copy_codes_equal_a_fresh_encode(encodes, select, primed, adopts):
    """A copy adopts the codes its rows already have, at the source or from
    the query, and computes none; what it adopts equals a fresh encode of
    its rows, though they lose some of the source's values and hold NULLs."""
    database = Database(seed=0)
    database.register_table("src", SOURCE)
    if primed:
        database.execute("SELECT s, count(*) AS n FROM src GROUP BY s")
    encodes.clear()
    database.execute(f"CREATE TABLE dst AS {select}")
    copy = database.table("dst")
    codes, dictionary = copy.dictionary_codes("s")
    assert _same_encoding((codes, dictionary), encode_object_array(copy.column("s")))
    assert (encodes == []) == adopts


@pytest.mark.parametrize("select", ["SELECT * FROM src", "SELECT * FROM src WHERE x < 4"])
def test_copy_codes_ignore_a_later_append_to_the_source(select):
    database = Database(seed=0)
    database.register_table("src", SOURCE)
    database.execute("SELECT s, count(*) AS n FROM src GROUP BY s")
    database.execute(f"CREATE TABLE dst AS {select}")
    database.table("src").append_columns(
        {"s": np.array(["zz", "a"], dtype=object), "k": np.array([9, 9]), "x": np.array([0, 1])}
    )
    copy = database.table("dst")
    assert _same_encoding(copy.dictionary_codes("s"), encode_object_array(copy.column("s")))


def main() -> None:  # pragma: no cover - manual entry point
    print(json.dumps({"scale_factor": 0.05, "seed": 7, "samples": sample_checksums()}, indent=1))


if __name__ == "__main__":  # pragma: no cover
    main()

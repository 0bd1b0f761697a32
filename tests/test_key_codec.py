"""The key codec's sort-free routes against a plain ``np.unique`` reference.

``encode_key`` codes an int column whose value span is at most
``_DENSE_SPAN`` times its rows by offset, and so an integral float column
below ``2**52`` in magnitude (NaN last, as NULL), and ``group_rows_encoded``
numbers packed codes that dense without a sort.  Both must give exactly what
sorting gives: the same codes, cardinality and NULL code, and the same
first-appearance group ids, on either side of the span rule.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sqlengine.encoding import (
    _DENSE_SPAN,
    KeyCodes,
    encode_key,
    encode_key_pair,
    group_rows_encoded,
)

INT64 = np.iinfo(np.int64)


def reference_codes(values: np.ndarray) -> KeyCodes:
    """Rank codes by sorting: NaN folds into one trailing NULL code."""
    numeric = values.astype(np.int64) if values.dtype.kind == "b" else values
    uniques, codes = np.unique(numeric, return_inverse=True)
    null = -1
    if numeric.dtype.kind == "f" and len(uniques) and np.isnan(uniques[-1]):
        null = len(uniques) - 1
    return KeyCodes(codes.astype(np.int64), len(uniques), null)


def reference_groups(keys: list[KeyCodes], num_rows: int) -> tuple[list[int], list[int]]:
    """Group ids by first appearance of the code tuple, and each group's first row."""
    ids: dict[tuple[int, ...], int] = {}
    inverse, first = [], []
    for row in range(num_rows):
        key = tuple(int(codes.codes[row]) for codes in keys)
        if key not in ids:
            ids[key] = len(ids)
            first.append(row)
        inverse.append(ids[key])
    return inverse, first


@st.composite
def spanned_ints(draw) -> np.ndarray:
    """n int64 rows whose span is exactly n, 2n or 2n + 1, based at 0, 2**53
    or either end of int64."""
    rows = draw(st.integers(2, 40))
    span = draw(st.sampled_from([rows, 2 * rows, 2 * rows + 1]))
    low = draw(st.sampled_from([0, -(2**53), INT64.min, INT64.max - span + 1]))
    middle = draw(st.lists(st.integers(0, span - 1), min_size=rows - 2, max_size=rows - 2))
    offsets = draw(st.permutations([0, span - 1, *middle]))
    return np.array([low + offset for offset in offsets], dtype=np.int64)


@st.composite
def spanned_floats(draw) -> np.ndarray:
    """n integral float64 rows whose span is n, 2n or 2n + 1, based at 0, at
    either 2**52 edge or just past it, with NaN and -0.0 mixed in and,
    sometimes, a fractional value or an infinity (which must be sorted)."""
    rows = draw(st.integers(2, 40))
    span = draw(st.sampled_from([rows, 2 * rows, 2 * rows + 1]))
    low = draw(
        st.sampled_from(
            [0.0, -float(span // 2), -(2.0**52), 2.0**52 - span + 1, 2.0**52 - span + 2]
        )
    )
    middle = draw(st.lists(st.integers(0, span - 1), min_size=rows - 2, max_size=rows - 2))
    offsets = draw(st.permutations([0, span - 1, *middle]))
    values = np.array([low + offset for offset in offsets], dtype=np.float64)
    values[values == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    for position in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        values[position] = np.nan
    odd = draw(st.sampled_from([None, 0.5, np.inf, -np.inf]))
    if odd is not None:
        values[draw(st.integers(0, rows - 1))] = low + odd
    return values


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 1.5, -1.0, 2.0**63]),
    st.integers(-3, 3).map(float),
)

KEY_COLUMNS = st.one_of(
    spanned_ints(),
    st.lists(st.sampled_from([INT64.min, INT64.min + 1, INT64.max, 0]), max_size=12).map(
        lambda values: np.array(values, dtype=np.int64)
    ),
    st.lists(st.integers(-3, 3), max_size=1).map(lambda values: np.array(values, dtype=np.int64)),
    st.lists(st.booleans(), max_size=20).map(lambda values: np.array(values, dtype=bool)),
    st.lists(FLOATS, max_size=20).map(lambda values: np.array(values, dtype=np.float64)),
)


@given(KEY_COLUMNS)
@settings(max_examples=200, deadline=None)
def test_encode_key_matches_np_unique(values):
    expected = reference_codes(values)
    codes = encode_key(values)
    assert codes.codes.dtype == np.int64
    assert codes.codes.tolist() == expected.codes.tolist()
    assert (codes.cardinality, codes.null_code) == (expected.cardinality, expected.null_code)


@given(spanned_floats())
@settings(max_examples=300, deadline=None)
def test_encode_key_codes_integral_floats_as_np_unique_does(values):
    expected = reference_codes(values)
    codes = encode_key(values)
    assert codes.codes.dtype == np.int64
    assert codes.codes.tolist() == expected.codes.tolist()
    assert (codes.cardinality, codes.null_code) == (expected.cardinality, expected.null_code)


def test_integral_float_keys_are_coded_without_a_sort(monkeypatch):
    """Every sample's ``vdb_sid`` is a float64 ``1 + floor(rand() * b)``:
    it is coded by offset, NaN last as the NULL code, without np.unique."""
    sids = 1.0 + np.floor(np.random.default_rng(5).random(1_000) * 100)
    sids[[3, 500]] = np.nan
    expected = reference_codes(sids)

    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", no_sort)
    codes = encode_key(sids)
    assert codes.codes.tolist() == expected.codes.tolist()
    assert (codes.cardinality, codes.null_code) == (101, 100)


@given(spanned_ints(), spanned_ints())
@settings(max_examples=100, deadline=None)
def test_encode_key_pair_codes_int_sides_jointly(left, right):
    joint = reference_codes(np.concatenate([left, right]))
    left_codes, right_codes = encode_key_pair(left, right)
    assert left_codes.codes.tolist() + right_codes.codes.tolist() == joint.codes.tolist()
    assert left_codes.cardinality == right_codes.cardinality == joint.cardinality


@given(st.lists(KEY_COLUMNS, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_group_rows_encoded_numbers_by_first_appearance(columns):
    rows = min(len(column) for column in columns)
    keys = [encode_key(column[:rows]) for column in columns]
    inverse, first = group_rows_encoded(keys, rows)
    expected_inverse, expected_first = reference_groups(keys, rows)
    assert inverse.tolist() == expected_inverse
    assert first.tolist() == expected_first


def test_span_rule_boundary_gives_ranks():
    """The span rule's boundary: 2n is coded by offset, 2n + 1 is sorted,
    and both give the ranks."""
    rows = 4
    dense = np.array([0, 7, 3, 7], dtype=np.int64)  # span 8 = 2n
    sparse = np.array([0, 8, 3, 8], dtype=np.int64)  # span 9 = 2n + 1
    assert 7 < _DENSE_SPAN * rows < 9
    assert encode_key(dense).codes.tolist() == [0, 2, 1, 2]
    assert encode_key(sparse).codes.tolist() == [0, 2, 1, 2]
    # Packed codes sparser than 2n are densified first; the numbering agrees.
    wide = KeyCodes(np.array([900, 5, 900, 17], dtype=np.int64), 1000)
    inverse, first = group_rows_encoded([wide], rows)
    assert inverse.tolist() == [0, 1, 0, 2]
    assert first.tolist() == [0, 1, 3]

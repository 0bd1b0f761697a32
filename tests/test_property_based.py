"""Property-based tests (hypothesis) for core invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sampling.bernoulli import guarantee_function, required_sampling_probability
from repro.sqlengine import Database, sqlast as ast
from repro.sqlengine.expressions import group_rows
from repro.sqlengine.parser import parse_select
from repro.sqlengine.tokens import tokenize
from repro.subsampling import assign_sids, combine_sids, default_subsample_count
from repro.subsampling.intervals import ConfidenceInterval, normal_interval
from repro.subsampling.variational import subsample_means


# ---------------------------------------------------------------------------
# SQL layer invariants
# ---------------------------------------------------------------------------

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True).filter(
    lambda s: s.upper() not in {"AS", "BY", "IF", "IN", "IS", "ON", "OR", "NOT", "AND", "END", "ALL"}
)
numbers = st.integers(min_value=0, max_value=10**6)
strings = st.text(alphabet="abcdef xyz'", min_size=0, max_size=12)


@given(strings)
@settings(max_examples=100)
def test_string_literal_round_trips_through_tokenizer(value):
    rendered = ast.Literal(value).to_sql()
    tokens = tokenize(rendered)
    assert tokens[0].value == value


@given(identifiers, identifiers, numbers)
@settings(max_examples=100)
def test_simple_select_round_trips(table, column, threshold):
    sql = f"SELECT {column}, count(*) AS c FROM {table} WHERE {column} > {threshold} GROUP BY {column}"
    statement = parse_select(sql)
    rendered = statement.to_sql()
    assert parse_select(rendered).to_sql() == rendered


@st.composite
def arithmetic_expression(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        return ast.Literal(draw(st.integers(min_value=-100, max_value=100)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return ast.BinaryOp(
        op, draw(arithmetic_expression(depth=depth + 1)), draw(arithmetic_expression(depth=depth + 1))
    )


@given(arithmetic_expression())
@settings(max_examples=100)
def test_arithmetic_expression_round_trips(expression):
    sql = f"SELECT {expression.to_sql()} AS v"
    statement = parse_select(sql)
    assert parse_select(statement.to_sql()).to_sql() == statement.to_sql()


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=200),
)
@settings(max_examples=100)
def test_group_rows_assigns_consistent_ids(first, second):
    size = min(len(first), len(second))
    keys = [np.array(first[:size]), np.array(second[:size])]
    inverse, num_groups = group_rows(keys)
    assert len(inverse) == size
    if size:
        assert inverse.max() == num_groups - 1
        # Rows with identical keys share a group id; rows with different keys do not.
        seen: dict[tuple, int] = {}
        for index in range(size):
            key = (first[index], second[index])
            if key in seen:
                assert inverse[index] == seen[key]
            else:
                seen[key] = inverse[index]
        assert len(seen) == num_groups


# ---------------------------------------------------------------------------
# round-4 fast paths vs the naive engine (A/B bit-identity)
# ---------------------------------------------------------------------------

maybe_floats = st.lists(
    st.one_of(
        st.none(),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=120,
)


def _ab_engines(columns, chunk_rows=16):
    """An optimized engine (tiny chunks) and a naive twin."""
    optimized = Database(seed=0, chunk_rows=chunk_rows)
    naive = Database(seed=0, optimize=False, chunk_rows=chunk_rows)
    for engine in (optimized, naive):
        engine.register_table("t", columns)
    return optimized, naive


def _assert_ab(optimized, naive, sql):
    fast, slow = optimized.execute(sql), naive.execute(sql)
    assert fast.equals(slow), (sql, fast.fetchall(), slow.fetchall())


@given(maybe_floats)
@settings(max_examples=60, deadline=None)
def test_zone_map_aggregates_match_naive(values):
    """MIN/MAX/COUNT over chunked storage == the naive full scan,
    including NULLs, NULL-only chunks and the empty table."""
    column = np.array(
        [np.nan if value is None else value for value in values], dtype=np.float64
    )
    optimized, naive = _ab_engines({"v": column})
    sql = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n, count(v) AS nv FROM t"
    _assert_ab(optimized, naive, sql)


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=80),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=0, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_sorted_merge_join_matches_naive(left_keys, right_keys):
    """Joins over CTAS-clustered inputs == the naive engine's join,
    duplicate keys and all."""
    left = {"k": np.array(sorted(left_keys), dtype=np.int64)}
    right = {"k": np.array(sorted(right_keys), dtype=np.int64)}
    left["v"] = np.arange(len(left["k"]), dtype=np.float64)
    right["w"] = np.arange(len(right["k"]), dtype=np.float64)
    optimized = Database(seed=0, chunk_rows=16)
    naive = Database(seed=0, optimize=False, chunk_rows=16)
    for engine in (optimized, naive):
        engine.register_table("l", left)
        engine.register_table("r", right)
        engine.execute("CREATE TABLE ls AS SELECT * FROM l ORDER BY k")
        engine.execute("CREATE TABLE rs AS SELECT * FROM r ORDER BY k")
    sql = (
        "SELECT count(*) AS n, sum(ls.v * rs.w) AS x "
        "FROM ls INNER JOIN rs ON ls.k = rs.k"
    )
    fast, slow = optimized.execute(sql), naive.execute(sql)
    assert fast.equals(slow), (fast.fetchall(), slow.fetchall())


# ---------------------------------------------------------------------------
# sampling / subsampling invariants
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=100_000),
)
@settings(max_examples=150)
def test_required_probability_is_valid_and_sufficient(min_rows, strata_size):
    probability = required_sampling_probability(min_rows, strata_size)
    assert 0.0 <= probability <= 1.0
    if probability < 1.0:
        # The guarantee function at the returned probability reaches the target.
        assert guarantee_function(probability, strata_size) >= min_rows - 0.01


@given(st.integers(min_value=1, max_value=1_000_000))
@settings(max_examples=100)
def test_default_subsample_count_is_perfect_square(sample_size):
    count = default_subsample_count(sample_size)
    root = math.isqrt(count)
    assert root * root == count
    assert 1 <= count <= 100


@given(st.integers(min_value=0, max_value=5_000), st.sampled_from([4, 16, 25, 100]))
@settings(max_examples=50)
def test_assign_sids_within_range(num_rows, subsample_count):
    sids = assign_sids(num_rows, subsample_count, rng=np.random.default_rng(0))
    assert len(sids) == num_rows
    if num_rows:
        assert sids.min() >= 1 and sids.max() <= subsample_count


@given(
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=200),
    st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=200),
)
@settings(max_examples=100)
def test_combine_sids_is_a_valid_sid(left, right):
    size = min(len(left), len(right))
    combined = combine_sids(np.array(left[:size]), np.array(right[:size]), 100)
    assert combined.min() >= 1 and combined.max() <= 100


@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
        min_size=20,
        max_size=2_000,
    )
)
@settings(max_examples=50, deadline=None)
def test_subsample_means_partition_recovers_full_mean(values):
    array = np.array(values, dtype=np.float64)
    statistics = subsample_means(array, subsample_count=16, rng=np.random.default_rng(1))
    # The subsamples partition the sample, so the size-weighted mean of the
    # per-subsample means equals the full-sample mean.
    weighted = float(np.sum(statistics.estimates * statistics.sizes) / np.sum(statistics.sizes))
    assert weighted == np.float64(weighted)
    assert abs(weighted - statistics.full_estimate) < 1e-6 * max(1.0, abs(statistics.full_estimate))
    assert int(np.sum(statistics.sizes)) == len(array)


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.floats(min_value=0.5, max_value=0.999),
)
@settings(max_examples=200)
def test_normal_interval_contains_estimate_and_orders_bounds(estimate, stderr, confidence):
    interval = normal_interval(estimate, stderr, confidence)
    assert interval.lower <= interval.estimate <= interval.upper
    assert isinstance(interval, ConfidenceInterval)
    wider = normal_interval(estimate, stderr, 0.999)
    assert wider.half_width >= interval.half_width - 1e-12

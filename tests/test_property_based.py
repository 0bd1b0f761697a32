"""Property-based tests (hypothesis) for core invariants."""

import math

import numpy as np
import pytest
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
# the optimized engine vs the naive engine (A/B bit-identity)
# ---------------------------------------------------------------------------

maybe_floats = st.lists(
    st.one_of(
        st.none(),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=120,
)


def _ab_engines(columns, **tables):
    """An optimized engine and a naive twin over ``t`` (and any further
    named tables)."""
    optimized = Database(seed=0)
    naive = Database(seed=0, optimize=False)
    for engine in (optimized, naive):
        for name, table in {"t": columns, **tables}.items():
            engine.register_table(name, {key: array.copy() for key, array in table.items()})
    return optimized, naive


def _assert_ab(optimized, naive, sql):
    fast, slow = optimized.execute(sql), naive.execute(sql)
    assert fast.equals(slow), (sql, fast.fetchall(), slow.fetchall())


@given(maybe_floats)
@settings(max_examples=60, deadline=None)
def test_min_max_count_match_naive(values):
    """MIN/MAX/COUNT == the naive full scan, including NULLs, an all-NULL
    column and the empty table."""
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
    """Joins over CTAS-sorted inputs == the naive engine's join,
    duplicate keys and all."""
    left = {"k": np.array(sorted(left_keys), dtype=np.int64)}
    right = {"k": np.array(sorted(right_keys), dtype=np.int64)}
    left["v"] = np.arange(len(left["k"]), dtype=np.float64)
    right["w"] = np.arange(len(right["k"]), dtype=np.float64)
    optimized = Database(seed=0)
    naive = Database(seed=0, optimize=False)
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


NULL_HEAVY_CORPUS = [
    "SELECT count(*) AS n FROM t",
    "SELECT sum(qty) AS s, avg(qty) AS a, count(price) AS c FROM t",
    "SELECT city, count(*) AS n, min(price) AS lo, max(price) AS hi FROM t "
    "GROUP BY city ORDER BY city",
    "SELECT city, sum(qty) AS s FROM t WHERE price > 0 GROUP BY city ORDER BY s, city",
    "SELECT qty + 1 AS k, count(*) AS n FROM t GROUP BY qty + 1 ORDER BY k",
    "SELECT d.name AS name, count(*) AS n FROM t JOIN d ON t.region_id = d.id "
    "GROUP BY d.name ORDER BY d.name",
    "SELECT d.name AS name, sum(t.qty) AS s, min(t.price) AS lo, max(t.price) AS hi "
    "FROM t JOIN d ON t.region_id = d.id GROUP BY d.name ORDER BY d.name",
    "SELECT d.name AS name, count(*) AS n FROM t JOIN d "
    "ON t.region_id = d.id AND d.id > 0 WHERE t.qty > 2 GROUP BY d.name ORDER BY d.name",
    "SELECT t.city, count(*) AS n FROM t JOIN d ON t.city = d.name "
    "GROUP BY t.city ORDER BY t.city",
    "SELECT count(*) AS n FROM t JOIN d ON t.price = d.tax",
]


@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.0, 0.2, 0.9]),
)
@settings(max_examples=25, deadline=None)
def test_null_heavy_corpus_matches_naive(num_rows, seed, null_rate):
    """Scalar, grouped, expression-key and join aggregates over columns
    that are up to 90 % NULL == the naive engine, empty tables included;
    NULL join keys (float and string) match nothing on either path."""
    rng = np.random.default_rng(seed)
    cities = rng.choice(["x", "y", "z"], num_rows).astype(object)
    cities[rng.random(num_rows) < null_rate] = None
    prices = np.round(rng.normal(size=num_rows), 1)
    prices[rng.random(num_rows) < null_rate] = np.nan
    names = np.array(["x", "y", "r2", "z", "r4"], dtype=object)
    names[rng.random(5) < null_rate] = None
    taxes = np.round(rng.normal(size=5), 1)
    taxes[rng.random(5) < null_rate] = np.nan
    optimized, naive = _ab_engines(
        {
            "region_id": rng.integers(0, 6, num_rows),
            "qty": rng.integers(-1_000, 1_000, num_rows),
            "price": prices,
            "city": cities,
        },
        d={"id": np.arange(5), "name": names, "tax": taxes},
    )
    for sql in NULL_HEAVY_CORPUS:
        _assert_ab(optimized, naive, sql)


# ---------------------------------------------------------------------------
# one long-lived engine, tables re-registered between queries
# ---------------------------------------------------------------------------

REUSED_AGGREGATES = NULL_HEAVY_CORPUS[:4]
REUSED_JOINS = NULL_HEAVY_CORPUS[5:8] + [
    "SELECT name, count(*) AS n FROM t JOIN d ON region_id = id GROUP BY name ORDER BY name",
]


def _seeded_tables(num_rows, seed, null_rate):
    """A fact table ``t`` and a five-row dimension ``d`` with NULLs in both."""
    rng = np.random.default_rng(seed)
    cities = rng.choice(["x", "y", "z"], num_rows).astype(object)
    cities[rng.random(num_rows) < null_rate] = None
    prices = rng.normal(size=num_rows)
    prices[rng.random(num_rows) < null_rate] = np.nan
    names = np.array([f"region-{i}" for i in range(5)], dtype=object)
    names[rng.random(5) < null_rate] = None
    return {
        "t": {
            "region_id": rng.integers(0, 6, num_rows),
            "qty": rng.integers(1, 10, num_rows),
            "price": prices,
            "city": cities,
        },
        "d": {"id": np.arange(5), "name": names, "tax": rng.normal(0.1, 0.05, 5)},
    }


@pytest.fixture(scope="module")
def reused_engine():
    """One optimized engine shared by every example below: each example
    re-registers the tables under the same names, so plans, dictionary
    codes and key indexes cached for the previous data must not leak."""
    return Database(seed=0)


def _reregister_and_compare(engine, tables, queries):
    naive = Database(seed=0, optimize=False)
    for name, columns in tables.items():
        naive.register_table(name, {key: array.copy() for key, array in columns.items()})
        engine.register_table(name, columns)
    for sql in queries:
        _assert_ab(engine, naive, sql)
    return naive


@pytest.mark.parametrize("example", range(8))
def test_reregistered_aggregate_examples_match_naive(reused_engine, example):
    tables = _seeded_tables(num_rows=37 * example, seed=1_000 + example, null_rate=0.3)
    _reregister_and_compare(reused_engine, tables, REUSED_AGGREGATES)


@pytest.mark.parametrize("example", range(6))
def test_reregistered_join_examples_match_naive(reused_engine, example):
    null_rate = (0.0, 0.3, 0.9)[example % 3]
    tables = _seeded_tables(num_rows=41 * example, seed=2_000 + example, null_rate=null_rate)
    _reregister_and_compare(reused_engine, tables, REUSED_JOINS)


def test_inserts_into_both_join_sides_match_naive(reused_engine):
    tables = _seeded_tables(num_rows=240, seed=77, null_rate=0.0)
    naive = _reregister_and_compare(reused_engine, tables, REUSED_JOINS)
    for engine in (naive, reused_engine):
        engine.execute("INSERT INTO t (region_id, qty, price, city) VALUES (2, 3, 1.25, 'z')")
        engine.execute("INSERT INTO d (id, name, tax) VALUES (5, 'region-5', 0.2)")
    for sql in REUSED_JOINS:
        _assert_ab(reused_engine, naive, sql)
    # region 5 exists now: the rows that carried it join too.
    names = reused_engine.execute(REUSED_JOINS[-1]).column("name").tolist()
    assert "region-5" in names


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

"""Pushed-down scan predicates answer as the naive engine, bound or literal.

Every conjunct the planner pushes to a base-table scan is evaluated there
row by row; these statements check the answers against
``Database(optimize=False)`` — ranges, equality and ``IN`` over int, float
(with NaN NULLs) and string (with None NULLs) columns, contradictions,
appends between executions — and check that a statement with its literals
bound as parameters answers exactly as its literal twin.  Edge values
(NULL-only columns, NaN, NUL-prefixed strings, operands of the other type,
NULL literals) are pinned to their row counts in both modes.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.api.binding import LIFTED_PREFIX, lift_literals
from repro.errors import BindParameterError
from repro.sqlengine import Database, parser
from tests.test_planner import assert_identical_results


def _orders_pair():
    rng = np.random.default_rng(11)
    num_rows = 1000
    cities = ["ann arbor", "boston", "chicago", "detroit", None]
    columns = {
        "order_id": np.arange(num_rows),
        "price": np.where(
            rng.random(num_rows) < 0.1, np.nan, np.round(rng.normal(10, 5, num_rows), 2)
        ),
        "qty": rng.integers(1, 9, num_rows),
        # clustered string column: values come in contiguous runs
        "region": np.repeat(
            np.array([f"region_{i:02d}" for i in range(10)], dtype=object), num_rows // 10
        ),
        "city": rng.choice(np.array(cities, dtype=object), num_rows),
    }
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table("orders", {k: v.copy() for k, v in columns.items()})
        engines.append(engine)
    return engines


SCAN_AB_CORPUS = [
    "SELECT count(*) AS n, sum(qty) AS s FROM orders WHERE order_id BETWEEN 300 AND 340",
    "SELECT order_id FROM orders WHERE order_id = 512",
    "SELECT order_id FROM orders WHERE order_id = -5",
    "SELECT count(*) FROM orders WHERE order_id < 10",
    "SELECT count(*) FROM orders WHERE order_id <= 10",
    "SELECT count(*) FROM orders WHERE order_id > 990",
    "SELECT count(*) FROM orders WHERE order_id >= 990",
    "SELECT count(*) FROM orders WHERE order_id <> 500",
    "SELECT count(*) FROM orders WHERE order_id IN (3, 700, 5000)",
    "SELECT count(*) FROM orders WHERE price IS NULL",
    "SELECT count(*) FROM orders WHERE price IS NOT NULL AND order_id < 100",
    # float column with NaN NULLs: <> must drop NaN rows (a NaN is NULL)
    "SELECT count(*) FROM orders WHERE price <> 10.5",
    "SELECT count(*) FROM orders WHERE price > 25",
    # clustered string column: equality and ranges
    "SELECT count(*) AS n, sum(qty) AS s FROM orders WHERE region = 'region_07'",
    "SELECT count(*) FROM orders WHERE region < 'region_02'",
    "SELECT count(*) FROM orders WHERE region BETWEEN 'region_03' AND 'region_04'",
    "SELECT count(*) FROM orders WHERE region IN ('region_00', 'region_09', 'nope')",
    "SELECT count(*) FROM orders WHERE region = 'missing'",
    # unclustered string column with NULLs
    "SELECT count(*) FROM orders WHERE city = 'detroit' AND order_id BETWEEN 100 AND 200",
    "SELECT count(*) FROM orders WHERE city IS NULL AND order_id < 50",
    # combined predicates across columns
    "SELECT city, count(*) AS n FROM orders WHERE order_id BETWEEN 450 AND 463 "
    "AND qty > 2 GROUP BY city ORDER BY city",
    # contradictions: no row matches
    "SELECT count(*) FROM orders WHERE order_id > 5000",
    "SELECT order_id FROM orders WHERE order_id BETWEEN 700 AND 650",
]


@pytest.mark.parametrize("query", SCAN_AB_CORPUS)
def test_scan_predicates_match_naive(query):
    optimized, naive = _orders_pair()
    assert_identical_results(optimized.execute(query), naive.execute(query))


def test_scan_predicates_after_appends_match_naive():
    optimized, naive = _orders_pair()
    queries = [
        "SELECT count(*) AS n FROM orders WHERE order_id BETWEEN 995 AND 1015",
        "SELECT count(*) FROM orders WHERE region = 'region_new'",
    ]
    for engine in (optimized, naive):
        for _ in range(2):  # warm the plan and dictionary caches, then mutate
            engine.execute(queries[0])
        engine.execute(
            "INSERT INTO orders (order_id, price, qty, region, city) "
            "VALUES (1010, 1.0, 2, 'region_new', 'nyc'), (1011, 2.0, 3, 'region_new', 'nyc')"
        )
    for query in queries:
        assert_identical_results(optimized.execute(query), naive.execute(query))


def test_insert_is_seen_by_the_next_query():
    engine = Database(seed=0, optimize=True)
    engine.register_table("t", {"x": np.arange(32)})
    query = "SELECT count(*) FROM t WHERE x >= 100"
    assert engine.execute(query).scalar() == 0.0
    table = engine.table("t")
    version_before = table.version
    engine.execute("INSERT INTO t (x) VALUES (100), (200)")
    assert table.version > version_before
    assert engine.execute(query).scalar() == 2.0


# ---------------------------------------------------------------------------
# a bound operand answers like its literal twin
# ---------------------------------------------------------------------------


def _bound_twins(query: str):
    """``(named template, mapping)`` and ``(qmark template, tuple)`` of a text.

    Every predicate literal becomes a parameter (the session's own lifting
    rule, so the twins cover exactly the positions the middleware rewrites).
    """
    lifted, constants = lift_literals(parser.parse(query))
    named = lifted.to_sql()
    values: list = []

    def positional(match):
        values.append(constants[match.group(1)])
        return "?"

    qmark = re.sub(rf":({LIFTED_PREFIX}\d+)", positional, named)
    return (named, constants), (qmark, tuple(values))


def _assert_bound_answers_like_literal(engine, naive, query):
    expected = engine.execute(query)
    assert expected.equals(naive.execute(query))
    for template, params in _bound_twins(query):
        assert engine.execute(template, params).equals(expected), (template, params)
        assert naive.execute(template, params).equals(expected), (template, params)


@pytest.mark.parametrize("query", SCAN_AB_CORPUS)
def test_bound_operand_answers_like_literal(query):
    optimized, naive = _orders_pair()
    _assert_bound_answers_like_literal(optimized, naive, query)


def test_bound_string_against_numeric_column():
    optimized, naive = _orders_pair()
    # A string operand switches the row path to per-value string semantics.
    query = "SELECT order_id FROM orders WHERE order_id = '512'"
    _assert_bound_answers_like_literal(optimized, naive, query)
    assert optimized.execute(query).fetchall() == [(512,)]
    # ... and a numeric operand against an object column likewise.
    _assert_bound_answers_like_literal(
        optimized, naive, "SELECT count(*) FROM orders WHERE region = 7"
    )


def test_bound_null_and_nan_rules():
    values = np.concatenate([np.full(8, np.nan), np.arange(8.0), np.arange(100.0, 108.0)])
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table("t", {"x": values.copy()})
        engines.append(engine)
    optimized, naive = engines
    for query in [
        # NULL rows satisfy no comparison, <> included
        "SELECT sum(x) AS s FROM t WHERE x = 3",
        "SELECT sum(x) AS s FROM t WHERE x < 50",
        "SELECT sum(x) AS s FROM t WHERE x BETWEEN 101 AND 500",
        "SELECT sum(x) AS s FROM t WHERE x IN (2, 104)",
        "SELECT sum(x) AS s FROM t WHERE x <> 3",
    ]:
        _assert_bound_answers_like_literal(optimized, naive, query)
    # A parameter bound to NULL reads as a NULL literal does.
    for op in ("=", "<>"):
        bound = optimized.execute(f"SELECT sum(x) AS s FROM t WHERE x {op} ?", (None,))
        literal = optimized.execute(f"SELECT sum(x) AS s FROM t WHERE x {op} NULL")
        assert bound.equals(literal)
        assert bound.equals(naive.execute(f"SELECT sum(x) AS s FROM t WHERE x {op} ?", (None,)))


def test_unbound_placeholder_raises_bind_error():
    engine = Database(seed=0)
    engine.register_table("t", {"x": np.arange(32)})
    with pytest.raises(BindParameterError):
        engine.execute("SELECT count(*) FROM t WHERE x > ?")
    with pytest.raises(BindParameterError):
        engine.execute("SELECT count(*) FROM t WHERE x > :lo", {"hi": 3})


def test_aggregate_under_a_bound_range_where():
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table("t", {"x": np.arange(1000), "v": np.arange(1000) * 0.5})
        engines.append(engine)
    optimized, naive = engines
    literal = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n FROM t WHERE x >= 200 AND x < 500"
    expected = naive.execute(literal)
    for template, params in _bound_twins(literal):
        assert optimized.execute(template, params).equals(expected)
    template = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n FROM t WHERE x >= ? AND x < ?"
    assert optimized.execute(template, (250, 500)).equals(naive.execute(template, (250, 500)))


class TestAggregatesUnderRangeWhere:
    """MIN/MAX/COUNT under range and string WHERE clauses."""

    def _db(self, optimize=True):
        db = Database(seed=0, optimize=optimize)
        rng = np.random.default_rng(3)
        db.register_table(
            "events",
            {
                "ts": np.arange(1_000, dtype=np.int64),
                "value": rng.normal(size=1_000),
                "kind": rng.choice(["click", "view"], 1_000).astype(object),
            },
        )
        return db

    def test_range_predicates(self):
        db, serial = self._db(), self._db(optimize=False)
        for sql in (
            "SELECT count(*) AS n FROM events WHERE ts >= 200",
            "SELECT count(*) AS n FROM events WHERE ts >= 200 AND ts < 700",
            "SELECT min(ts) AS lo, max(ts) AS hi FROM events WHERE ts >= 300",
            "SELECT count(*) AS n FROM events WHERE ts < 0",
            "SELECT count(*) AS n FROM events WHERE ts >= 250",
        ):
            assert db.execute(sql).equals(serial.execute(sql)), sql

    def test_string_predicate(self):
        db, serial = self._db(), self._db(optimize=False)
        sql = "SELECT count(*) AS n FROM events WHERE kind = 'click'"
        assert db.execute(sql).equals(serial.execute(sql))


def test_rebound_template_answers_each_binding():
    rows = 2000
    rng = np.random.default_rng(5)
    columns = {"k": np.arange(rows), "g": rng.integers(0, 4, rows), "v": rng.random(rows)}
    optimized = Database(seed=0)
    naive = Database(seed=0, optimize=False)
    for engine in (optimized, naive):
        engine.register_table("t", {name: array.copy() for name, array in columns.items()})
    template = (
        "SELECT g, count(*) AS n, max(v) AS hi FROM t WHERE k >= ? AND k < ? "
        "GROUP BY g ORDER BY g"
    )
    for low, high in [(350, 850), (1000, 1400), (0, 2000)]:
        got = optimized.execute(template, (low, high))
        assert got.equals(naive.execute(template, (low, high)))
        literal = template.replace("?", "{}").format(low, high)
        assert optimized.execute(literal).equals(got)
    # One plan served all three bindings of the template.
    assert optimized.stats["plan_cache_misses"] == 1 + 3  # the template + three literal texts
    assert optimized.stats["plan_cache_hits"] == 2


# ---------------------------------------------------------------------------
# edge values: NULL-only columns, NaN, NUL-prefixed strings, type mismatches
# ---------------------------------------------------------------------------


def _edge_pair(columns):
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table("t", {k: v.copy() for k, v in columns.items()})
        engines.append(engine)
    return engines


def _assert_counts(columns, expected):
    """Each ``WHERE`` clause in ``expected`` counts its rows in both modes."""
    optimized, naive = _edge_pair(columns)
    for where, count in expected.items():
        query = f"SELECT count(*) AS n FROM t WHERE {where}"
        assert optimized.execute(query).scalar() == count, where
        assert naive.execute(query).scalar() == count, where


def test_nan_rows_never_satisfy_a_range():
    columns = {"x": np.array([np.nan, 2.0, 8.0, np.nan])}
    _assert_counts(columns, {"x > 1": 2, "x < 100": 2, "x BETWEEN 2 AND 8": 2, "x >= 9": 0})
    optimized, naive = _edge_pair(columns)
    query = "SELECT min(x) AS lo, max(x) AS hi, count(x) AS c FROM t"
    assert optimized.execute(query).fetchall() == [(2.0, 8.0, 2)]
    assert_identical_results(optimized.execute(query), naive.execute(query))


def test_all_null_float_column_matches_only_is_null():
    _assert_counts(
        {"x": np.full(6, np.nan)},
        {
            "x = 1": 0,
            "x < 1": 0,
            "x BETWEEN 0 AND 9": 0,
            "x IN (1, 2)": 0,
            "x IS NULL": 6,
            "x IS NOT NULL": 0,
            # A NaN is NULL: it satisfies no comparison, <> included.
            "x <> 1": 0,
            "x NOT IN (1, 2)": 0,
            "x NOT BETWEEN 0 AND 9": 0,
        },
    )


def test_all_null_string_column_matches_only_is_null():
    # An object NULL satisfies no comparison, <> included, as a float NaN.
    _assert_counts(
        {"s": np.array([None] * 5, dtype=object)},
        {
            "s = 'a'": 0,
            "s <> 'a'": 0,
            "s < 'z'": 0,
            "s BETWEEN 'a' AND 'z'": 0,
            "s IN ('a', 'b')": 0,
            "s IS NULL": 5,
            "s IS NOT NULL": 0,
        },
    )


def test_strings_starting_with_nul_compare_in_raw_order():
    # The key codec escapes a leading NUL so it cannot pose as the NULL
    # sentinel; comparisons and MIN/MAX still follow the raw string order.
    columns = {"s": np.array(["\0weird", "apple", None, "b"], dtype=object)}
    _assert_counts(columns, {"s < 'a'": 1, "s > 'a'": 2, "s = '\0weird'": 1, "s IS NULL": 1})
    optimized, naive = _edge_pair(columns)
    for query, expected in [
        ("SELECT s FROM t WHERE s < 'a'", [("\0weird",)]),
        ("SELECT min(s) AS lo, max(s) AS hi FROM t", [("\0weird", "b")]),
    ]:
        assert optimized.execute(query).fetchall() == expected, query
        assert naive.execute(query).fetchall() == expected, query


def test_operand_of_the_other_type_compares_per_value():
    # A string operand against a numeric column (and a number against a
    # string column) compares the values' normalized strings row by row.
    _assert_counts(
        {
            "k": np.arange(4),
            "x": np.array([1.0, 2.0, 3.0, np.nan]),
            "s": np.array(["1", "1.0", "a", None], dtype=object),
        },
        {"k = '1'": 1, "k = '9'": 0, "x = '1'": 0, "x = '1.0'": 1, "s = 1": 1, "s = 1.0": 1},
    )


def test_comparison_with_a_null_literal():
    columns = {
        "x": np.array([1.0, np.nan, 3.0]),
        "s": np.array(["a", None, "b"], dtype=object),
    }
    # = NULL and <> NULL are never true, as in SQLite: a NULL (a float NaN
    # or an object None) satisfies no comparison.
    _assert_counts(columns, {"x = NULL": 0, "s = NULL": 0, "x <> NULL": 0, "s <> NULL": 0})


def test_predicate_column_names_resolve_case_insensitively():
    _assert_counts(
        {"Value": np.arange(40)},
        {"value = 35": 1, "VALUE BETWEEN 10 AND 19": 10, "vAlUe >= 38": 2},
    )


def test_range_selects_exactly_the_rows_in_it():
    optimized, naive = _edge_pair({"x": np.arange(100)})
    for query, expected in [
        ("SELECT x FROM t WHERE x BETWEEN 35 AND 44", list(range(35, 45))),
        ("SELECT x FROM t WHERE x >= 0", list(range(100))),
        ("SELECT x FROM t WHERE x = 1000", []),
    ]:
        for engine in (optimized, naive):
            assert [row[0] for row in engine.execute(query).fetchall()] == expected, query


# ---------------------------------------------------------------------------
# ranges name their rows: literal, bound and at scale
# ---------------------------------------------------------------------------


def test_narrow_range_sums_exactly_the_matching_rows():
    engine = Database(seed=0)
    engine.register_table("t", {"x": np.arange(1000), "v": np.ones(1000)})
    assert engine.execute("SELECT sum(v) FROM t WHERE x BETWEEN 250 AND 260").scalar() == 11.0
    assert engine.execute("SELECT sum(v) FROM t WHERE x BETWEEN ? AND ?", (250, 260)).scalar() == 11.0


def test_bound_range_answers_the_rows_it_names():
    optimized, naive = _orders_pair()
    query = "SELECT count(*) AS n, sum(qty) AS s FROM orders WHERE order_id BETWEEN 300 AND 340"
    _assert_bound_answers_like_literal(optimized, naive, query)
    qty = optimized.table("orders").column("qty")
    assert optimized.execute(query).fetchall() == [(41, int(qty[300:341].sum()))]


def test_bound_range_on_a_large_table():
    rows = 400_000
    values = np.random.default_rng(3).random(rows)
    engine = Database(seed=0)
    engine.register_table("t", {"k": np.arange(rows), "v": values})
    literal = engine.execute("SELECT sum(v) FROM t WHERE k >= 100000 AND k < 120000")
    for template, params in (
        ("SELECT sum(v) FROM t WHERE k >= ? AND k < ?", (100_000, 120_000)),
        ("SELECT sum(v) FROM t WHERE k >= :lo AND k < :hi", {"lo": 100_000, "hi": 120_000}),
    ):
        assert engine.execute(template, params).equals(literal)
    assert literal.scalar() == pytest.approx(math.fsum(values[100_000:120_000]), rel=1e-12)
    count = engine.execute("SELECT count(*) FROM t WHERE k >= ? AND k < ?", (100_000, 120_000))
    assert count.scalar() == 20_000

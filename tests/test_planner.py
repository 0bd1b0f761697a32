"""Tests for the logical planner, the engine caches and their correctness.

The core guarantee of the optimizer is *plan invariance*: ``optimize=True``
and ``optimize=False`` must return bit-identical result sets (same columns,
same rows, same order) for every supported query.  The A/B corpus below runs
both modes over the same data and compares exhaustively, and its
derived-table statements are checked against SQLite as well; the remaining
tests cover the planner's analysis, cache invalidation, the ambiguous-column
fix and LIKE escape handling.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.sqlengine import Database, parse_select, plan_select, sqlast as ast
from repro.sqlengine.expressions import Frame
from repro.sqlengine.planner import ScanPlan


# ---------------------------------------------------------------------------
# data + helpers
# ---------------------------------------------------------------------------


def _tables(seed: int = 7, num_rows: int = 500) -> dict[str, dict[str, np.ndarray]]:
    """The planner corpus's tables: name -> columns."""
    tables: dict[str, dict[str, np.ndarray]] = {}
    rng = np.random.default_rng(seed)
    cities = ["ann arbor", "detroit", "chicago", "nyc", None]
    tables["orders"] = {
        "order_id": np.arange(num_rows),
        "customer_id": rng.integers(0, 40, num_rows),
        "price": np.round(rng.normal(10.0, 5.0, num_rows), 3),
        "qty": rng.integers(1, 9, num_rows),
        "city": rng.choice(np.array(cities, dtype=object), num_rows, p=[0.3, 0.3, 0.2, 0.1, 0.1]),
        "status": rng.choice(np.array(["open", "closed", "5%_off"], dtype=object), num_rows),
        "unused_wide_1": rng.normal(size=num_rows),
        "unused_wide_2": rng.choice(np.array(["x", "y"], dtype=object), num_rows),
    }
    tables["customers"] = {
        "customer_id": np.arange(40),
        "name": np.array([f"cust_{i % 13}" for i in range(40)], dtype=object),
        "segment": np.array(
            [["consumer", "corporate", "home"][i % 3] for i in range(40)], dtype=object
        ),
        "unused_note": np.array([f"note {i}" for i in range(40)], dtype=object),
    }
    tables["regions"] = {
        "city": np.array(["ann arbor", "detroit", "chicago", "nyc"], dtype=object),
        "state": np.array(["MI", "MI", "IL", "NY"], dtype=object),
    }
    # NaN/NULL-heavy inputs: one in ten city/price values is NULL, and the
    # dimension's name/tax columns hold NULLs too.
    rng = np.random.default_rng(seed + 1_000)
    cities = rng.choice(["ann arbor", "boston", "chicago", "detroit"], 600).astype(object)
    cities[rng.random(600) < 0.1] = None
    prices = rng.normal(10.0, 5.0, 600)
    prices[rng.random(600) < 0.1] = np.nan
    tables["sales"] = {
        "city": cities,
        "region_id": rng.integers(0, 6, 600),
        "qty": rng.integers(-50, 50, 600),
        "price": prices,
        "flag": rng.random(600) < 0.5,
    }
    tables["areas"] = {
        "id": np.arange(5),  # sparser than sales.region_id: some rows drop
        "name": np.array(["ann arbor", "boston", None, "region-3", "chicago"], dtype=object),
        "tax": np.array([0.1, np.nan, 0.2, 0.05, np.nan]),
    }
    tables["mixed"] = {"k": np.array(["a", 1, "b", None] * 25, dtype=object), "v": np.arange(100)}
    # An object column whose values are equal as Python values (1 == 1.0)
    # but not as the engine's normalized strings ("1", "1.0").
    tables["loose"] = {"v": np.array([1, 1.0, "a", None] * 5, dtype=object), "n": np.arange(20)}
    return tables


def _populate(engine: Database, seed: int = 7, num_rows: int = 500) -> None:
    for name, columns in _tables(seed, num_rows).items():
        engine.register_table(name, columns)


def _pair(seed: int = 7) -> tuple[Database, Database]:
    optimized = Database(seed=0, optimize=True)
    naive = Database(seed=0, optimize=False)
    _populate(optimized, seed=seed)
    _populate(naive, seed=seed)
    return optimized, naive


def _values_equal(a: object, b: object) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (int, float, np.integer, np.floating)) and isinstance(
        b, (int, float, np.integer, np.floating)
    ):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        return fa == fb
    return a == b


def assert_identical_results(optimized, naive) -> None:
    assert optimized.column_names == naive.column_names
    assert optimized.num_rows == naive.num_rows
    for name, opt_col, naive_col in zip(
        optimized.column_names, optimized.columns(), naive.columns()
    ):
        opt_list = opt_col.tolist()
        naive_list = naive_col.tolist()
        for row, (a, b) in enumerate(zip(opt_list, naive_list)):
            assert _values_equal(a, b), (
                f"column {name!r} row {row}: optimize=True gave {a!r}, "
                f"optimize=False gave {b!r}"
            )


# ---------------------------------------------------------------------------
# A/B corpus: optimize=True vs optimize=False must be bit-identical
# ---------------------------------------------------------------------------


AB_CORPUS = [
    # plain scans, predicates, projection
    "SELECT * FROM orders",
    "SELECT order_id, price FROM orders WHERE price > 10",
    "SELECT order_id FROM orders WHERE price > 5 AND qty = 2",
    "SELECT order_id FROM orders WHERE city = 'detroit'",
    "SELECT order_id FROM orders WHERE city <> 'detroit'",
    "SELECT order_id FROM orders WHERE city < 'detroit'",
    "SELECT order_id FROM orders WHERE city >= 'detroit'",
    "SELECT order_id FROM orders WHERE city = 'not a city'",
    "SELECT order_id FROM orders WHERE city IS NULL",
    "SELECT order_id FROM orders WHERE city IS NOT NULL AND price < 8",
    # IN / LIKE / BETWEEN over string keys
    "SELECT count(*) FROM orders WHERE city IN ('detroit', 'nyc')",
    "SELECT count(*) FROM orders WHERE city NOT IN ('detroit', 'nyc')",
    "SELECT count(*) FROM orders WHERE city IN ('detroit', 'missing', 'nyc')",
    "SELECT count(*) FROM orders WHERE city LIKE 'det%'",
    "SELECT count(*) FROM orders WHERE city LIKE '%o%'",
    "SELECT count(*) FROM orders WHERE city NOT LIKE 'a%'",
    "SELECT count(*) FROM orders WHERE status LIKE '5\\%_o%'",
    "SELECT order_id FROM orders WHERE price BETWEEN 5 AND 10 AND qty BETWEEN 2 AND 4",
    # string-keyed grouping and HAVING
    "SELECT city, count(*) AS n FROM orders GROUP BY city",
    "SELECT city, sum(price) AS total, avg(qty) AS avg_qty FROM orders GROUP BY city",
    "SELECT city, status, count(*) AS n FROM orders GROUP BY city, status",
    "SELECT city, count(*) AS n FROM orders GROUP BY city HAVING count(*) > 50",
    "SELECT city, sum(price) AS t FROM orders WHERE qty > 2 GROUP BY city HAVING sum(price) > 100 ORDER BY t DESC",
    # ORDER BY / DISTINCT / LIMIT / OFFSET
    "SELECT city FROM orders ORDER BY city",
    "SELECT DISTINCT city FROM orders ORDER BY city DESC",
    "SELECT DISTINCT city, status FROM orders ORDER BY city, status",
    "SELECT order_id, city FROM orders ORDER BY city, order_id DESC LIMIT 20",
    "SELECT order_id FROM orders ORDER BY price DESC LIMIT 10 OFFSET 5",
    # joins with single-table conjuncts (pushdown targets)
    "SELECT o.order_id, c.name FROM orders AS o INNER JOIN customers AS c "
    "ON o.customer_id = c.customer_id WHERE o.price > 12 AND c.segment = 'corporate'",
    "SELECT c.segment, count(*) AS n, sum(o.price) AS total FROM orders AS o "
    "INNER JOIN customers AS c ON o.customer_id = c.customer_id "
    "WHERE o.qty > 3 GROUP BY c.segment ORDER BY c.segment",
    "SELECT o.city, c.name, sum(o.price * o.qty) AS revenue FROM orders AS o "
    "INNER JOIN customers AS c ON o.customer_id = c.customer_id "
    "WHERE c.segment <> 'home' AND o.city IS NOT NULL "
    "GROUP BY o.city, c.name HAVING count(*) > 1 ORDER BY revenue DESC LIMIT 15",
    # three-way join with a string equi-key
    "SELECT r.state, count(*) AS n FROM orders AS o "
    "INNER JOIN customers AS c ON o.customer_id = c.customer_id "
    "INNER JOIN regions AS r ON o.city = r.city "
    "WHERE o.price > 0 AND r.state <> 'NY' GROUP BY r.state ORDER BY n DESC",
    # join with residual (cross-table) predicate: must NOT be pushed
    "SELECT count(*) FROM orders AS o INNER JOIN regions AS r "
    "ON o.city = r.city WHERE o.order_id > r.state || ''",
    # derived tables and scalar subqueries
    "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "WHERE t.n > 40 ORDER BY t.n DESC",
    "SELECT order_id FROM orders WHERE price > (SELECT avg(price) FROM orders) "
    "ORDER BY order_id LIMIT 12",
    # expressions, CASE, window functions
    "SELECT order_id, CASE WHEN price > 10 THEN 'high' ELSE 'low' END AS bucket "
    "FROM orders ORDER BY order_id LIMIT 25",
    "SELECT city, count(*) AS n, sum(count(*)) OVER (PARTITION BY city) AS total "
    "FROM orders GROUP BY city, status ORDER BY city, n DESC",
    "SELECT upper(city) AS u, count(*) AS n FROM orders WHERE city IS NOT NULL "
    "GROUP BY upper(city) ORDER BY u",
    # SELECT * through a join (duplicate key columns with equal data)
    "SELECT o.* FROM orders AS o INNER JOIN customers AS c "
    "ON o.customer_id = c.customer_id WHERE c.segment = 'consumer' "
    "ORDER BY o.order_id LIMIT 10",
    # count(*) only — prunes every column
    "SELECT count(*) FROM orders",
    "SELECT count(*) FROM orders AS o INNER JOIN customers AS c ON o.customer_id = c.customer_id",
    # --- round 2: derived-table pushdown -------------------------------------
    # group-key conjunct moves inside the subquery (and on to the base scan)
    "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "WHERE t.city = 'detroit'",
    "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "WHERE t.city <> 'nyc' AND t.n > 40 ORDER BY t.n DESC",
    # pass-through expression key (upper(city)) referenced by the outer WHERE
    "SELECT t.u, t.n FROM (SELECT upper(city) AS u, count(*) AS n FROM orders "
    "WHERE city IS NOT NULL GROUP BY upper(city)) AS t WHERE t.u < 'D' ORDER BY t.u",
    # plain (non-aggregating) subquery: any deterministic item is pass-through
    "SELECT s.order_id FROM (SELECT order_id, price * qty AS amount FROM orders) AS s "
    "WHERE s.amount > 30 ORDER BY s.order_id LIMIT 20",
    # nested aggregates: outer aggregate over an aggregate derived table
    "SELECT avg(t.n) AS m, count(*) AS groups FROM "
    "(SELECT city, status, count(*) AS n FROM orders GROUP BY city, status) AS t "
    "WHERE t.status = 'open'",
    # LIMIT / OFFSET blockers: the conjunct must stay outside the subquery
    "SELECT t.city FROM (SELECT city, count(*) AS n FROM orders GROUP BY city "
    "ORDER BY n DESC LIMIT 3) AS t WHERE t.city IS NOT NULL ORDER BY t.city",
    "SELECT t.order_id FROM (SELECT order_id, city FROM orders ORDER BY order_id "
    "LIMIT 50 OFFSET 5) AS t WHERE t.city = 'detroit' ORDER BY t.order_id",
    # DISTINCT blocker
    "SELECT t.city FROM (SELECT DISTINCT city, status FROM orders) AS t "
    "WHERE t.city = 'chicago' ORDER BY t.city, t.status",
    # window-function blocker
    "SELECT t.city, t.share FROM (SELECT city, count(*) AS n, "
    "sum(count(*)) OVER (PARTITION BY city) AS share FROM orders GROUP BY city, status) AS t "
    "WHERE t.city = 'detroit' ORDER BY t.share DESC",
    # rand() in the subquery: nothing may move inside (RNG stream must match)
    "SELECT t.city FROM (SELECT city, rand() AS r FROM orders) AS t "
    "WHERE t.city = 'detroit' ORDER BY t.city LIMIT 10",
    # correlated column names: city exists in orders, regions and the outer scope
    "SELECT t.city, r.state FROM (SELECT city, count(*) AS n FROM orders "
    "WHERE city IS NOT NULL GROUP BY city) AS t "
    "INNER JOIN regions AS r ON t.city = r.city WHERE t.city <> 'nyc' AND r.state = 'MI' "
    "ORDER BY t.city",
    # aggregate-output conjunct: becomes an inner HAVING clause (round 3b)
    "SELECT t.city FROM (SELECT city, sum(price) AS s FROM orders GROUP BY city) AS t "
    "WHERE t.s > 500 ORDER BY t.city",
    # --- round 3b: aggregate-output conjuncts as inner HAVING -----------------
    "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "WHERE t.n > 40 ORDER BY t.city",
    "SELECT t.city FROM (SELECT city, sum(price) AS s FROM orders GROUP BY city "
    "HAVING count(*) > 5) AS t WHERE t.s > 100 ORDER BY t.city",
    "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "WHERE t.n > 40 AND t.city <> 'nyc' ORDER BY t.n DESC, t.city",
    "SELECT count(*) FROM (SELECT city, status, avg(price) AS m FROM orders "
    "GROUP BY city, status) AS t WHERE t.m > 9 AND t.status = 'open'",
    "SELECT t.d FROM (SELECT city, count(DISTINCT status) AS d FROM orders "
    "GROUP BY city) AS t WHERE t.d >= 2 ORDER BY t.d",
    # global aggregate (one group, no GROUP BY) filtered on its output
    "SELECT t.s FROM (SELECT sum(price) AS s FROM orders) AS t WHERE t.s > 0",
    # --- round 3a: derived string keys reused by the outer aggregation --------
    "SELECT t.city, count(*) AS groups, sum(t.n) AS rows_total FROM "
    "(SELECT city, status, count(*) AS n FROM orders GROUP BY city, status) AS t "
    "GROUP BY t.city ORDER BY t.city",
    "SELECT t.city FROM (SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "WHERE t.city >= 'chicago' ORDER BY t.city DESC",
    "SELECT DISTINCT t.city FROM (SELECT city, status FROM orders) AS t ORDER BY t.city",
    # --- dictionary-broadcast scalar string functions --------------------------
    "SELECT order_id, upper(city) AS u, lower(status) AS l, length(city) AS n, "
    "substr(city, 2, 3) AS mid FROM orders ORDER BY order_id LIMIT 30",
    "SELECT upper(city) AS u, count(*) AS n FROM orders GROUP BY upper(city) ORDER BY u",
    "SELECT count(*) FROM orders WHERE length(city) > 3 AND substr(status, 1, 1) = 'o'",
    # --- round 2: derived-table output pruning --------------------------------
    # outer touches one of four subquery outputs
    "SELECT t.city FROM (SELECT city, count(*) AS n, sum(price) AS s, avg(qty) AS m "
    "FROM orders GROUP BY city) AS t ORDER BY t.city",
    # outer count(*) over a wide subquery: every output is prunable but one
    "SELECT count(*) FROM (SELECT city, status, count(*) AS n, sum(price) AS s "
    "FROM orders GROUP BY city, status) AS t",
    # subquery ORDER BY references an otherwise-unused alias: it must survive
    "SELECT t.city FROM (SELECT city, sum(price) AS s FROM orders GROUP BY city "
    "ORDER BY s DESC) AS t LIMIT 2",
    # --- round 2: ON-clause pushdown and join ordering ------------------------
    "SELECT c.segment, count(*) AS n FROM orders AS o INNER JOIN customers AS c "
    "ON o.customer_id = c.customer_id AND c.segment = 'corporate' AND o.price > 10 "
    "GROUP BY c.segment",
    # small left input joined to the large fact table (build-side swap)
    "SELECT c.segment, count(*) AS n, sum(o.price) AS s FROM customers AS c "
    "INNER JOIN orders AS o ON c.customer_id = o.customer_id "
    "WHERE o.qty > 2 GROUP BY c.segment ORDER BY c.segment",
    # ON residual that references both sides survives below the pushed conjunct
    "SELECT count(*) FROM orders AS o INNER JOIN customers AS c "
    "ON o.customer_id = c.customer_id AND o.order_id > c.customer_id AND o.price > 12",
    # derived table on the join's right side with a pushable ON conjunct
    "SELECT o.order_id, t.n FROM orders AS o INNER JOIN "
    "(SELECT city, count(*) AS n FROM orders GROUP BY city) AS t "
    "ON o.city = t.city AND t.city <> 'nyc' WHERE o.price > 15 ORDER BY o.order_id LIMIT 25",
    # --- NaN/NULL-heavy aggregates ---------------------------------------------
    "SELECT count(*) AS n FROM sales",
    "SELECT count(price) AS n, count(*) AS total FROM sales",
    "SELECT sum(qty) AS s, avg(qty) AS a FROM sales",
    "SELECT min(price) AS lo, max(price) AS hi FROM sales",
    "SELECT avg(flag) AS share FROM sales",
    "SELECT sum(price) AS s FROM sales",
    "SELECT count(DISTINCT city) AS n FROM sales",
    "SELECT city, count(*) AS n FROM sales GROUP BY city",
    "SELECT city, sum(qty) AS s, min(price) AS lo FROM sales GROUP BY city ORDER BY city",
    "SELECT city, avg(qty) AS a FROM sales WHERE qty > 0 GROUP BY city ORDER BY a DESC",
    "SELECT city, flag, count(*) AS n FROM sales GROUP BY city, flag ORDER BY city, flag",
    "SELECT city, max(price) AS hi FROM sales GROUP BY city HAVING count(*) > 10 ORDER BY city",
    "SELECT city, count(*) AS n FROM (SELECT city FROM sales) t GROUP BY city ORDER BY city",
    "SELECT k, count(*) AS n FROM mixed GROUP BY k ORDER BY n DESC",
    "SELECT v, count(*) AS n, count(DISTINCT n) AS d FROM loose GROUP BY v ORDER BY v",
    "SELECT DISTINCT v FROM loose ORDER BY v",
    # expression group keys
    "SELECT qty + 1 AS k, count(*) AS n FROM sales GROUP BY qty + 1 ORDER BY k",
    "SELECT qty * 2 AS k, sum(qty) AS s FROM sales GROUP BY qty * 2 ORDER BY k",
    "SELECT upper(city) AS k, count(*) AS n FROM sales GROUP BY upper(city) ORDER BY k",
    # joins against a NULL-bearing dimension, NULL keys included
    "SELECT a.name AS name, count(*) AS n FROM sales s JOIN areas a "
    "ON s.region_id = a.id GROUP BY a.name ORDER BY a.name",
    "SELECT a.name AS name, sum(s.qty) AS q, min(s.price) AS lo, max(s.price) AS hi "
    "FROM sales s JOIN areas a ON s.region_id = a.id GROUP BY a.name ORDER BY a.name",
    "SELECT a.name AS name, count(*) AS n FROM sales s JOIN areas a "
    "ON s.region_id = a.id AND a.id > 0 WHERE s.qty > 2 GROUP BY a.name ORDER BY a.name",
    "SELECT name, count(*) AS n FROM sales JOIN areas ON region_id = id "
    "GROUP BY name ORDER BY name",
    "SELECT s.city, count(*) AS n, sum(a.tax) AS t FROM sales s JOIN areas a "
    "ON s.city = a.name GROUP BY s.city ORDER BY s.city",
    "SELECT count(*) AS n, sum(s.qty) AS q FROM sales s JOIN areas a "
    "ON s.region_id = a.id AND s.price > a.tax",
]


@pytest.mark.parametrize("query", AB_CORPUS)
def test_optimized_matches_naive(query):
    optimized, naive = _pair()
    assert_identical_results(optimized.execute(query), naive.execute(query))


# ---------------------------------------------------------------------------
# derived tables against SQLite, an oracle independent of the engine
# ---------------------------------------------------------------------------


def _has_derived_table(relation) -> bool:
    if isinstance(relation, ast.DerivedTable):
        return True
    if isinstance(relation, ast.Join):
        return _has_derived_table(relation.left) or _has_derived_table(relation.right)
    return False


# Every AB_CORPUS statement with a FROM-clause subquery, except those that
# draw rand(): the two backends' random streams differ.
DERIVED_CORPUS = [
    query
    for query in AB_CORPUS
    if _has_derived_table(parse_select(query).from_relation) and "rand()" not in query
]


@pytest.fixture(scope="module")
def sqlite_pair(both_backends):
    engine, sqlite = both_backends(_tables())
    yield engine, sqlite
    sqlite.close()


def _sqlite_close(a: object, b: object) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


@pytest.mark.parametrize("query", DERIVED_CORPUS)
def test_derived_tables_match_sqlite(sqlite_pair, answers, query):
    """The optimized engine answers every derived-table statement of the A/B
    corpus as SQLite does.

    Normalisation: every value reads as SQLite reports it (a float NaN is
    the engine's NULL, a bool is 0/1).  Answers compare as sorted multisets
    unless the statement's ORDER BY fixes the order, and floats compare with
    ``math.isclose(rel_tol=1e-9)`` (the backends sum in different orders).

    Left out: statements that draw ``rand()``, and the known divergences
    of the engine from SQLite, none of which a derived-table statement here
    reaches: a negative literal evaluates as ``float64``
    (``k = -9007199254740993`` rounds), ``NOT (p)`` over a predicate that is
    NULL for some rows is true there (the engine's predicates are
    two-valued), and a float NaN sorts last where SQLite sorts NULL first.
    """
    engine, sqlite = sqlite_pair
    ours, theirs = answers(engine, sqlite, query, ordered=bool(parse_select(query).order_by))
    assert len(ours) == len(theirs), (ours, theirs)
    for mine, reference in zip(ours, theirs):
        assert len(mine) == len(reference)
        assert all(_sqlite_close(a, b) for a, b in zip(mine, reference)), (mine, reference)


def test_repeated_execution_with_caches_is_stable():
    optimized, naive = _pair()
    query = (
        "SELECT c.segment, count(*) AS n FROM orders AS o INNER JOIN customers AS c "
        "ON o.customer_id = c.customer_id WHERE o.price > 8 GROUP BY c.segment ORDER BY n DESC"
    )
    expected = naive.execute(query)
    for _ in range(3):  # second+ runs hit the statement and plan caches
        assert_identical_results(optimized.execute(query), expected)


def test_concurrent_queries_match_naive_and_count_every_cache_hit():
    optimized, naive = _pair()
    query = "SELECT city, sum(qty) AS s FROM sales GROUP BY city ORDER BY city"
    expected = naive.execute(query)
    assert optimized.execute(query).equals(expected)  # files the plan
    before = optimized.stats["plan_cache_hits"]
    errors = []

    def run():
        try:
            for _ in range(5):
                assert optimized.execute(query).equals(expected)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=run) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert optimized.stats["plan_cache_hits"] == before + 40


@pytest.mark.parametrize(
    "predicate",
    [
        "s <> 'a'",
        "s = '\0N'",
        "s < 'a'",
        "s IN ('\0N', 'a')",
        "s LIKE '%N%'",
        "s IS NULL",
    ],
)
def test_null_sentinel_lookalike_data_matches_naive(predicate):
    # Data containing NUL-prefixed strings (including the old sentinel text)
    # must never be conflated with real NULLs by the coded fast paths.
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table(
            "t", {"s": np.array(["a", None, "\0N", "\0NULL", ""], dtype=object)}
        )
        result = engine.execute(f"SELECT s FROM t WHERE {predicate}")
        if optimize:
            optimized_rows = result.fetchall()
        else:
            assert optimized_rows == result.fetchall(), predicate


def test_null_sentinel_lookalike_grouping_and_ordering():
    queries = [
        "SELECT s, count(*) AS n FROM t GROUP BY s ORDER BY s",
        "SELECT DISTINCT s FROM t ORDER BY s DESC",
    ]
    for query in queries:
        results = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table(
                "t",
                {"s": np.array(["\0N", None, "a", "\0NULL", "", "a"], dtype=object)},
            )
            results.append(engine.execute(query).fetchall())
        assert results[0] == results[1], query


@pytest.mark.parametrize("optimize", [True, False])
def test_count_distinct_counts_the_groups_group_by_forms(optimize):
    """``count(DISTINCT x)`` is the number of non-NULL groups of ``GROUP BY
    x`` — for ``loose.v`` (1, 1.0, 'a', NULL) that is 3, not the 2 a Python
    set makes of it — and the planner's cardinality says the same."""
    engine = Database(seed=0, optimize=optimize)
    _populate(engine)
    for table, column in (
        ("loose", "v"), ("mixed", "k"), ("sales", "city"), ("sales", "price"),
        ("sales", "qty"), ("sales", "flag"), ("areas", "tax"),
    ):
        distinct = engine.execute(f"SELECT count(DISTINCT {column}) AS d FROM {table}").scalar()
        groups = engine.execute(
            f"SELECT {column} FROM {table} WHERE {column} IS NOT NULL GROUP BY {column}"
        ).num_rows
        assert distinct == groups, (table, column)
        assert engine.table(table).distinct_count(column) == groups, (table, column)
    assert engine.execute("SELECT count(DISTINCT v) AS d FROM loose").scalar() == 3


def test_seeded_rand_is_identical_across_modes():
    optimized, naive = _pair()
    query = "SELECT count(*) FROM orders WHERE rand() < 0.5 AND price > 10"
    assert_identical_results(optimized.execute(query), naive.execute(query))


def test_rand_in_a_group_key_matches_naive():
    optimized, naive = _pair()
    query = (
        "SELECT floor(rand() * 0) + qty AS k, count(*) AS n FROM sales "
        "GROUP BY floor(rand() * 0) + qty ORDER BY k"
    )
    result = optimized.execute(query)
    assert_identical_results(result, naive.execute(query))
    plain = optimized.execute("SELECT qty AS k, count(*) AS n FROM sales GROUP BY qty ORDER BY k")
    assert result.fetchall() == plain.fetchall()


SALES_CORPUS = [query for query in AB_CORPUS if " sales" in query or "mixed" in query]


@pytest.mark.parametrize("part_rows", [1, 7, 64, 250, 100_000])
def test_append_batch_size_never_changes_an_answer(part_rows):
    # A table built by appends holds one part per batch until a read joins
    # them; scans, grouping and joins must answer as over a table loaded at
    # once.
    optimized = Database(seed=0)
    naive = Database(seed=0, optimize=False)
    _populate(naive)
    for name, columns in _tables().items():
        rows = len(next(iter(columns.values())))
        optimized.register_table(name, {k: v[:part_rows] for k, v in columns.items()})
        for start in range(part_rows, rows, part_rows):
            optimized.append_columns(
                name, {k: v[start:start + part_rows] for k, v in columns.items()}
            )
        assert optimized.table(name).num_rows == rows
    for query in SALES_CORPUS:
        assert_identical_results(optimized.execute(query), naive.execute(query))


def test_aggregates_over_no_rows():
    # A sum over no rows is NULL, as in SQL, like every other aggregate but
    # count, which is 0 — in both modes.
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table(
            "t", {"v": np.arange(10, dtype=np.int64), "f": np.arange(10.0)}
        )
        for where in ("f < 0", "v > 100"):
            (row,) = engine.execute(
                "SELECT sum(v) AS s, avg(v) AS a, min(f) AS lo, max(f) AS hi, "
                f"count(f) AS c, count(*) AS n FROM t WHERE {where}"
            ).fetchall()
            total, average, low, high, count, rows = row
            assert count == 0 and rows == 0, (optimize, where)
            assert np.isnan(total) and np.isnan(average), (optimize, where)
            assert np.isnan(low) and np.isnan(high), (optimize, where)


def test_health_counts_plan_cache_and_key_index_use():
    optimized, naive = _pair()
    query = (
        "SELECT a.name AS name, count(*) AS n FROM sales s JOIN areas a "
        "ON s.region_id = a.id GROUP BY a.name ORDER BY a.name"
    )
    for _ in range(3):
        assert_identical_results(optimized.execute(query), naive.execute(query))
    stats = optimized.health().stats
    assert stats["plan_cache_misses"] == 1 and stats["plan_cache_hits"] == 2
    assert stats["key_index_joins"] == 3 and stats["key_index_builds"] >= 1
    assert naive.health().stats["key_index_joins"] == 0


# ---------------------------------------------------------------------------
# planner analysis
# ---------------------------------------------------------------------------


def _pushed(scan: ScanPlan) -> list[str]:
    """The conjuncts a scan applies, as SQL."""
    if scan.predicate is None:
        return []
    return [conjunct.to_sql() for conjunct in ast.flatten_and(scan.predicate)]


class TestPlanAnalysis:
    def _plan(self, engine: Database, sql: str):
        return plan_select(parse_select(sql), engine.catalog)

    def test_single_table_conjuncts_are_pushed(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT o.order_id FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id "
            "WHERE o.price > 5 AND c.segment = 'home' AND o.order_id > c.customer_id",
        )
        assert _pushed(plan.scan_for("o")) == ["(o.price > 5)"]
        assert _pushed(plan.scan_for("c")) == ["(c.segment = 'home')"]
        # the cross-table conjunct stays in the residual WHERE
        assert plan.residual_where is not None
        assert "order_id" in plan.residual_where.to_sql()

    def test_projection_pruning_keeps_only_referenced_columns(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT o.price FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id WHERE c.segment = 'home'",
        )
        assert plan.scan_for("o").names == ["customer_id", "price"]
        assert plan.scan_for("c").names == ["customer_id", "segment"]

    def test_star_disables_pruning(self):
        engine, _ = _pair()
        plan = self._plan(engine, "SELECT * FROM orders AS o WHERE o.price > 5")
        assert plan.scan_for("o").names == engine.table("orders").column_names

    def test_qualified_star_prunes_other_relations(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT o.* FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id",
        )
        assert plan.scan_for("o").names == engine.table("orders").column_names
        assert plan.scan_for("c").names == ["customer_id"]

    def test_count_star_needs_no_columns(self):
        engine, _ = _pair()
        plan = self._plan(engine, "SELECT count(*) FROM orders")
        assert plan.scan_for("orders").names == []

    def test_nondeterministic_predicates_are_not_pushed(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT o.order_id FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id WHERE o.price > 5 AND rand() < 0.5",
        )
        assert plan.scan_for("o").predicate is None
        assert plan.residual_where is not None

    def test_subquery_predicates_are_not_pushed(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT o.order_id FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id "
            "WHERE o.price > (SELECT avg(price) FROM orders)",
        )
        assert plan.scan_for("o").predicate is None

    def test_ambiguous_unqualified_column_is_not_pushed(self):
        engine, _ = _pair()
        # ``city`` exists in both orders and regions
        plan = self._plan(
            engine,
            "SELECT count(*) FROM orders AS o INNER JOIN regions AS r "
            "ON o.city = r.city WHERE city = 'detroit'",
        )
        assert plan.scan_for("o").predicate is None
        assert plan.scan_for("r").predicate is None
        assert plan.residual_where is not None


# ---------------------------------------------------------------------------
# derived tables and ON-clause pushdown
# ---------------------------------------------------------------------------


class TestDerivedTablePlanning:
    def _plan(self, engine: Database, sql: str):
        return plan_select(parse_select(sql), engine.catalog)

    def test_a_derived_table_runs_as_written_under_its_own_plan(self):
        # The subquery keeps its statement; the outer conjunct filters its
        # result before any join, and the inner WHERE reaches the base scan.
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders "
            "WHERE qty > 2 GROUP BY city) AS t WHERE t.city = 'detroit'",
        )
        assert _pushed(plan.scan_for("t")) == ["(t.city = 'detroit')"]
        assert plan.residual_where is None
        derived = plan.derived_for("t")
        assert _pushed(derived.scan_for("orders")) == ["(qty > 2)"]
        assert derived.scan_for("orders").names == ["qty", "city"]
        # A derived table's own scan reads every column of its result.
        assert plan.scan_for("t").names is None

    def test_single_side_on_conjuncts_move_to_the_scans(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT count(*) FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id AND c.segment = 'corporate' "
            "AND o.price > 10 AND o.order_id > c.customer_id",
        )
        assert _pushed(plan.scan_for("c")) == ["(c.segment = 'corporate')"]
        assert _pushed(plan.scan_for("o")) == ["(o.price > 10)"]
        residual = plan.join_residuals[0]
        assert residual is not None
        residual_sql = residual.to_sql()
        assert "customer_id = c.customer_id" in residual_sql  # equi pair stays
        assert "order_id > c.customer_id" in residual_sql  # cross-side stays
        assert "segment" not in residual_sql
        assert "price" not in residual_sql

    def test_conjuncts_survive_past_the_derived_depth_limit(self):
        # Beyond _MAX_DERIVED_DEPTH the executor plans each subquery per
        # execution; the outer filter must still apply.
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table(
                "t", {"city": np.array(["a", "a", "b", "c"], dtype=object)}
            )
            inner = "SELECT city FROM t"
            for _ in range(10):
                inner = f"SELECT city FROM ({inner}) AS s"
            result = engine.execute(inner)
            deep = engine.execute(
                f"SELECT city FROM ({inner}) AS q WHERE city = 'a'"
            )
            assert result.num_rows == 4
            assert deep.column("city").tolist() == ["a", "a"]

    def test_nondeterministic_on_disables_all_pushdown(self):
        engine, _ = _pair()
        plan = self._plan(
            engine,
            "SELECT count(*) FROM orders AS o INNER JOIN customers AS c "
            "ON o.customer_id = c.customer_id AND rand() < 0.9 "
            "WHERE o.price > 10",
        )
        assert plan.join_residuals is None
        assert plan.scan_for("o").predicate is None
        assert plan.residual_where is not None


# ---------------------------------------------------------------------------
# cache invalidation: DDL/DML after a cached plan must not serve stale data
# ---------------------------------------------------------------------------


class TestCacheInvalidation:
    def test_insert_after_cached_plan(self):
        engine = Database(optimize=True)
        engine.register_table("t", {"k": np.array(["a", "b"], dtype=object), "v": [1, 2]})
        query = "SELECT k, sum(v) AS total FROM t GROUP BY k ORDER BY k"
        first = engine.execute(query)
        assert first.column("total").tolist() == [1, 2]
        engine.execute("INSERT INTO t (k, v) VALUES ('a', 10), ('c', 5)")
        second = engine.execute(query)
        assert second.column("k").tolist() == ["a", "b", "c"]
        assert second.column("total").tolist() == [11, 2, 5]

    def test_drop_and_recreate_after_cached_plan(self):
        engine = Database(optimize=True)
        engine.register_table("t", {"k": np.array(["a"], dtype=object), "v": [1]})
        query = "SELECT k, v FROM t"
        assert engine.execute(query).num_rows == 1
        engine.execute("DROP TABLE t")
        engine.register_table("t", {"k": np.array(["x", "y"], dtype=object), "v": [7, 8]})
        result = engine.execute(query)
        assert result.column("k").tolist() == ["x", "y"]
        assert result.column("v").tolist() == [7, 8]

    def test_create_table_as_after_cached_plan(self):
        engine = Database(optimize=True)
        engine.register_table("t", {"v": [1, 2, 3, 4]})
        query = "SELECT count(*) FROM u"
        engine.execute("CREATE TABLE u AS SELECT v FROM t WHERE v > 2")
        assert engine.execute(query).scalar() == 2
        engine.execute("DROP TABLE u")
        engine.execute("CREATE TABLE u AS SELECT v FROM t")
        assert engine.execute(query).scalar() == 4

    def test_schema_change_invalidates_pruned_plan(self):
        engine = Database(optimize=True)
        engine.register_table("t", {"a": [1, 2], "b": [3, 4]})
        query = "SELECT a FROM t WHERE b > 3"
        assert engine.execute(query).column("a").tolist() == [2]
        # replace with a table whose referenced columns have different data
        engine.register_table("t", {"a": [9, 10], "b": [5, 0]})
        assert engine.execute(query).column("a").tolist() == [9]

    def test_replace_with_the_same_columns_keeps_the_plan(self):
        engine = Database(optimize=True)
        engine.register_table("t", {"a": [1, 2], "b": [3, 4]})
        query = "SELECT a, sum(b) AS s FROM t WHERE b > 3 GROUP BY a"
        assert engine.execute(query).fetchall() == [(2, 4.0)]
        engine.register_table("t", {"a": [9, 10], "b": [5, 0]})
        assert engine.execute(query).fetchall() == [(9, 5.0)]
        assert engine.stats["plan_cache_misses"] == 1
        # New column names (or order) re-plan, as a new table would.
        engine.register_table("t", {"b": [5, 6], "a": [7, 8]})
        assert engine.execute(query).fetchall() == [(7, 5.0), (8, 6.0)]
        engine.register_table("t", {"a": [1, 2], "b": [4, 4], "c": [0, 0]})
        assert engine.execute(query).fetchall() == [(1, 4.0), (2, 4.0)]
        assert engine.stats["plan_cache_misses"] == 3

    def test_prepared_reexecution_reuses_one_plan(self):
        optimized, naive = _pair()
        query = (
            "SELECT city, count(*) AS n, sum(qty) AS s FROM sales "
            "WHERE qty > ? GROUP BY city ORDER BY city"
        )
        for threshold in range(-2, 6):
            assert optimized.execute(query, (threshold,)).equals(
                naive.execute(query, (threshold,))
            ), threshold
        assert optimized.stats["plan_cache_misses"] == 1
        assert optimized.stats["plan_cache_hits"] == 7

    def test_rebound_range_reuses_one_plan(self):
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            _populate(engine)
            engines.append(engine)
        optimized, naive = engines
        query = (
            "SELECT city, count(*) AS n, sum(qty) AS s FROM orders "
            "WHERE order_id >= ? AND order_id < ? GROUP BY city ORDER BY city"
        )
        for low in (0, 64, 130, 300, 390):
            params = (low, low + 128)
            assert optimized.execute(query, params).equals(naive.execute(query, params)), params
        assert optimized.stats["plan_cache_misses"] == 1
        assert optimized.stats["plan_cache_hits"] == 4

    def test_insert_between_bindings_of_a_cached_plan(self):
        optimized, naive = _pair()
        query = "SELECT city, count(*) AS n FROM sales WHERE qty >= ? GROUP BY city ORDER BY city"
        assert optimized.execute(query, (0,)).equals(naive.execute(query, (0,)))
        for engine in (optimized, naive):
            engine.execute(
                "INSERT INTO sales (city, region_id, qty, price, flag) "
                "VALUES ('zzz', 1, 7, 1.5, TRUE)"
            )
        result = optimized.execute(query, (0,))
        assert result.equals(naive.execute(query, (0,)))
        assert result.fetchall()[-1] == ("zzz", 1)
        assert optimized.stats["plan_cache_hits"] == 1  # the plan survived the insert

    def test_dictionary_cache_invalidated_by_append(self):
        engine = Database(optimize=True)
        engine.register_table("t", {"k": np.array(["a", "b"], dtype=object)})
        table = engine.table("t")
        codes_before, dictionary_before = table.dictionary_codes("k")
        assert dictionary_before.tolist() == ["a", "b"]
        # memoized while unchanged
        again, _ = table.dictionary_codes("k")
        assert again is codes_before
        engine.execute("INSERT INTO t (k) VALUES ('c')")
        codes_after, dictionary_after = table.dictionary_codes("k")
        assert dictionary_after.tolist() == ["a", "b", "c"]
        assert len(codes_after) == 3


# ---------------------------------------------------------------------------
# satellite: ambiguous-column resolution
# ---------------------------------------------------------------------------


class TestAmbiguousColumns:
    def test_ambiguous_with_different_data_raises(self):
        frame = Frame()
        frame.add_column("a", "x", np.array([1, 2, 3]))
        frame.add_column("b", "x", np.array([1, 2, 4]))
        with pytest.raises(ExecutionError, match="ambiguous column"):
            frame.resolve("x")

    def test_ambiguous_with_identical_data_is_tolerated(self):
        frame = Frame()
        shared = np.array([1.0, np.nan, 3.0])
        frame.add_column("a", "x", shared)
        frame.add_column("b", "x", np.array([1.0, np.nan, 3.0]))
        assert frame.resolve("x") is shared

    def test_qualified_lookup_bypasses_ambiguity(self):
        frame = Frame()
        frame.add_column("a", "x", np.array([1, 2]))
        frame.add_column("b", "x", np.array([3, 4]))
        assert frame.resolve("x", "b").tolist() == [3, 4]

    def test_join_on_shared_key_still_resolves_unqualified(self):
        engine = Database(optimize=True)
        engine.register_table("l", {"k": np.array(["a", "b"], dtype=object), "v": [1, 2]})
        engine.register_table("r", {"k": np.array(["a", "b"], dtype=object), "w": [3, 4]})
        result = engine.execute(
            "SELECT k, v, w FROM l INNER JOIN r ON l.k = r.k ORDER BY k"
        )
        assert result.column("k").tolist() == ["a", "b"]

    def test_ambiguous_in_query_raises(self):
        engine = Database(optimize=True)
        engine.register_table("l", {"k": np.array(["a", "b"], dtype=object), "v": [1, 2]})
        engine.register_table("r", {"k": np.array(["b", "c"], dtype=object), "w": [1, 2]})
        with pytest.raises(ExecutionError, match="ambiguous column"):
            engine.execute("SELECT v FROM l INNER JOIN r ON l.v = r.w WHERE k = 'a'")


# ---------------------------------------------------------------------------
# satellite: LIKE escape handling + regex memoization
# ---------------------------------------------------------------------------


class TestLikeCompilation:
    @pytest.fixture()
    def engine(self):
        engine = Database(optimize=True)
        engine.register_table(
            "t",
            {
                "s": np.array(
                    ["100%", "100x", "a_b", "axb", "plain", None], dtype=object
                )
            },
        )
        return engine

    def test_escaped_percent_is_literal(self, engine):
        result = engine.execute("SELECT s FROM t WHERE s LIKE '100\\%'")
        assert result.column("s").tolist() == ["100%"]

    def test_unescaped_percent_is_wildcard(self, engine):
        result = engine.execute("SELECT s FROM t WHERE s LIKE '100%'")
        assert sorted(result.column("s").tolist()) == ["100%", "100x"]

    def test_escaped_underscore_is_literal(self, engine):
        result = engine.execute("SELECT s FROM t WHERE s LIKE 'a\\_b'")
        assert result.column("s").tolist() == ["a_b"]

    def test_unescaped_underscore_is_wildcard(self, engine):
        result = engine.execute("SELECT s FROM t WHERE s LIKE 'a_b'")
        assert sorted(result.column("s").tolist()) == ["a_b", "axb"]

    def test_compiled_patterns_are_memoized(self):
        from repro.sqlengine.expressions import _compile_like

        assert _compile_like("abc%") is _compile_like("abc%")

    def test_null_rows_never_match(self, engine):
        assert engine.execute("SELECT count(*) FROM t WHERE s LIKE '%'").scalar() == 5


# ---------------------------------------------------------------------------
# satellite: integer sort precision above 2**53
# ---------------------------------------------------------------------------


class TestIntegerSortPrecision:
    def test_sort_indices_distinguishes_large_int64_keys(self):
        from repro.sqlengine.encoding import sort_indices

        # adjacent int64 values that collapse to the same float64
        values = np.array([2**53 + 1, 2**53, 2**53 + 3, 2**53 + 2], dtype=np.int64)
        ascending = sort_indices([(values, True)])
        assert values[ascending].tolist() == sorted(values.tolist())
        descending = sort_indices([(values, False)])
        assert values[descending].tolist() == sorted(values.tolist(), reverse=True)

    def test_descending_int64_min_does_not_overflow(self):
        from repro.sqlengine.encoding import sort_indices

        info = np.iinfo(np.int64)
        values = np.array([0, info.min, info.max], dtype=np.int64)
        order = sort_indices([(values, False)])
        assert values[order].tolist() == [info.max, 0, info.min]

    def test_order_by_large_integers_matches_across_modes(self):
        base = 2**53
        ids = np.array([base + 2, base, base + 3, base + 1], dtype=np.int64)
        results = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("t", {"k": ids, "v": np.arange(4)})
            results.append(
                engine.execute("SELECT k, v FROM t ORDER BY k DESC").fetchall()
            )
        assert results[0] == results[1]
        assert [row[0] for row in results[0]] == sorted(ids.tolist(), reverse=True)


# ---------------------------------------------------------------------------
# satellite: join-key packing overflow guard
# ---------------------------------------------------------------------------


class TestJoinKeyPackingOverflow:
    def _collision_tables(self):
        """Nine key columns whose cardinalities multiply to 256**9 = 2**72.

        Without the guard the packing weight of the first column is
        ``256**8 = 2**64 ≡ 0 (mod 2**64)``, so rows differing *only* in the
        first column silently collide.  Row A is all zeros, row B differs
        from A in the first column alone; the filler rows give every column
        its full 256-value range.
        """
        filler = np.arange(1, 256, dtype=np.int64)
        columns = {}
        for position in range(9):
            first = 0 if position != 0 else 0  # row A value
            row_b = 1 if position == 0 else 0
            columns[f"k{position}"] = np.concatenate(
                [np.array([first, row_b], dtype=np.int64), filler]
            )
        right = {f"k{position}": np.array([0], dtype=np.int64) for position in range(9)}
        return columns, right

    def test_packed_join_codes_do_not_conflate_distinct_tuples(self):
        from repro.sqlengine.encoding import encode_join_keys

        left_columns, right_columns = self._collision_tables()
        left_keys = [left_columns[f"k{i}"] for i in range(9)]
        right_keys = [right_columns[f"k{i}"] for i in range(9)]
        left_codes, right_codes = encode_join_keys(left_keys, right_keys)
        # row 0 (all zeros) must match the probe row; row 1 must not
        assert left_codes[0] == right_codes[0]
        assert left_codes[1] != right_codes[0]
        # packed codes must be injective over the distinct left tuples
        assert len(np.unique(left_codes)) == len(left_codes)

    def test_packed_group_codes_do_not_conflate_distinct_tuples(self):
        from repro.sqlengine.encoding import encode_key, pack_codes

        left_columns, _ = self._collision_tables()
        keys = [encode_key(left_columns[f"k{i}"]) for i in range(9)]
        assert [key.cardinality for key in keys] == [256] * 9
        packed = pack_codes(keys)
        # 256**9 = 2**72 would wrap: the packer re-densified on the way
        assert packed.cardinality <= 1 << 62
        assert packed.codes[0] != packed.codes[1]
        assert len(np.unique(packed.codes)) == len(packed.codes)

    def test_nine_column_join_returns_exactly_one_match(self):
        left_columns, right_columns = self._collision_tables()
        condition = " AND ".join(f"l.k{i} = r.k{i}" for i in range(9))
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("l", left_columns)
            engine.register_table("r", right_columns)
            result = engine.execute(
                f"SELECT count(*) FROM l INNER JOIN r ON {condition}"
            )
            assert result.scalar() == 1

    def test_nine_column_group_by_keeps_groups_apart(self):
        # Same collision construction for the GROUP BY packing: rows A and B
        # differ only in the first key column, whose packing weight would be
        # 256**8 = 2**64 (= 0 under silent wraparound).
        left_columns, _ = self._collision_tables()
        keys = ", ".join(f"k{i}" for i in range(9))
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("l", left_columns)
            result = engine.execute(f"SELECT {keys}, count(*) AS n FROM l GROUP BY {keys}")
            assert result.num_rows == 257  # every row is its own group
            assert result.column("n").tolist() == [1.0] * 257


# ---------------------------------------------------------------------------
# satellite: DISTINCT over dictionary codes
# ---------------------------------------------------------------------------


class TestDistinctOverCodes:
    def test_distinct_consumes_scan_codes(self, monkeypatch):
        import repro.sqlengine.executor as executor_module

        engine = Database(seed=0, optimize=True)
        engine.register_table(
            "t",
            {
                "city": np.array(["b", "a", None, "b", "a"], dtype=object),
                "status": np.array(["x", "y", "x", "x", "y"], dtype=object),
            },
        )
        calls = {"object_encodes": 0}
        original = executor_module.encode_key

        def counting(values, encoded=None):
            if values.dtype == object and encoded is None:
                calls["object_encodes"] += 1
            return original(values, encoded)

        monkeypatch.setattr(executor_module, "encode_key", counting)
        result = engine.execute("SELECT DISTINCT city, status FROM t")
        # both columns carried scan codes, so no object column was re-encoded
        assert calls["object_encodes"] == 0
        assert result.num_rows == 3

    def test_distinct_results_identical_across_modes(self):
        rows = np.array(["b", "a", None, "b", "a", "c"], dtype=object)
        results = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("t", {"city": rows, "n": [1, 2, 3, 1, 2, 4]})
            results.append(
                engine.execute("SELECT DISTINCT city, n FROM t").fetchall()
            )
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# middleware rewrite cache
# ---------------------------------------------------------------------------


class TestRewriteCache:
    @staticmethod
    def _counts(session):
        stats = session.connector.database.stats
        return stats.get("rewrite_cache_hits", 0), stats.get("rewrite_cache_misses", 0)

    def test_repeated_queries_hit_the_rewrite_cache(self, verdict):
        # A text no other test sends, so the first run is this session's miss.
        query = "SELECT city, avg(price) AS rewrite_cache_probe FROM orders GROUP BY city"
        hits, misses = self._counts(verdict)
        first = verdict.sql(query)
        assert self._counts(verdict) == (hits, misses + 1)
        second = verdict.sql(query)
        assert self._counts(verdict) == (hits + 1, misses + 1)
        assert first.raw.column_names == second.raw.column_names
        assert (
            first.column("rewrite_cache_probe").tolist()
            == second.column("rewrite_cache_probe").tolist()
        )

    def test_sample_changes_invalidate_the_rewrite_cache(self, orders_columns):
        from repro import SampleSpec, VerdictSession
        from repro.core.sample_planner import PlannerConfig

        context = VerdictSession(
            planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000)
        )
        context.load_table("orders", orders_columns)
        spec = SampleSpec("uniform", (), 0.05)
        context.create_sample("orders", spec)
        query = "SELECT avg(price) AS m FROM orders"
        approx = context.sql(query)
        assert not approx.is_exact
        assert not context.sql(query).is_exact
        assert self._counts(context) == (1, 1)
        context.drop_samples("orders")
        exact = context.sql(query)  # falls back to exact: no samples remain
        assert exact.is_exact
        # The rebuilt sample has the same name, hence the same plan signature
        # and the same cache key — the rewrite prepared before the drop must
        # still not be served.
        context.create_sample("orders", spec)
        assert not context.sql(query).is_exact
        assert self._counts(context) == (1, 2)

    def test_scan_plan_defaults(self):
        scan = ScanPlan()
        assert scan.predicate is None
        assert scan.names is None

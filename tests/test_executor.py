"""Tests for the query executor of the built-in engine."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.sqlengine import Database
from tests.conftest import build_orders_columns


@pytest.fixture()
def db() -> Database:
    engine = Database(seed=0)
    engine.register_table(
        "sales",
        {
            "id": np.arange(10),
            "price": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
            "qty": np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2]),
            "city": np.array(["a", "a", "b", "b", "a", "b", "a", "b", "a", "b"], dtype=object),
        },
    )
    engine.register_table(
        "cities",
        {
            "city": np.array(["a", "b"], dtype=object),
            "state": np.array(["MI", "IL"], dtype=object),
        },
    )
    return engine


class TestProjectionAndFilter:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM sales")
        assert result.num_rows == 10
        assert result.column_names == ["id", "price", "qty", "city"]

    def test_select_expressions_and_aliases(self, db):
        result = db.execute("SELECT price * qty AS total, city FROM sales LIMIT 3")
        assert result.column_names == ["total", "city"]
        assert result.column("total")[1] == 4.0

    def test_where_filtering(self, db):
        result = db.execute("SELECT id FROM sales WHERE price > 5 AND qty = 2")
        assert sorted(result.column("id").tolist()) == [5, 7, 9]

    def test_where_with_in_and_like(self, db):
        assert db.execute("SELECT count(*) FROM sales WHERE city IN ('a')").scalar() == 5
        assert db.execute("SELECT count(*) FROM sales WHERE city LIKE 'b%'").scalar() == 5

    def test_between_and_not(self, db):
        assert db.execute("SELECT count(*) FROM sales WHERE price BETWEEN 2 AND 4").scalar() == 3
        assert db.execute("SELECT count(*) FROM sales WHERE NOT price BETWEEN 2 AND 4").scalar() == 7

    def test_case_expression(self, db):
        result = db.execute(
            "SELECT sum(CASE WHEN city = 'a' THEN 1 ELSE 0 END) AS a_rows FROM sales"
        )
        assert result.scalar() == 5

    def test_order_by_and_limit_offset(self, db):
        result = db.execute("SELECT id FROM sales ORDER BY price DESC LIMIT 3 OFFSET 1")
        assert result.column("id").tolist() == [8, 7, 6]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT city FROM sales")
        assert sorted(result.column("city").tolist()) == ["a", "b"]

    def test_select_without_from(self, db):
        assert db.execute("SELECT 1 + 2 AS v").scalar() == 3


class TestAggregation:
    def test_global_aggregates(self, db):
        result = db.execute(
            "SELECT count(*) AS c, sum(price) AS s, avg(price) AS a, min(price) AS lo, max(price) AS hi FROM sales"
        )
        row = result.fetchall()[0]
        assert row == (10.0, 55.0, 5.5, 1.0, 10.0)

    def test_group_by_with_order(self, db):
        result = db.execute(
            "SELECT city, count(*) AS c, sum(price) AS s FROM sales GROUP BY city ORDER BY city"
        )
        assert result.fetchall() == [("a", 5.0, 24.0), ("b", 5.0, 31.0)]

    def test_group_by_expression(self, db):
        result = db.execute("SELECT qty * 10 AS bucket, count(*) c FROM sales GROUP BY qty * 10 ORDER BY bucket")
        assert result.fetchall() == [(10.0, 5.0), (20.0, 5.0)]

    def test_having(self, db):
        result = db.execute(
            "SELECT city, sum(price) AS s FROM sales GROUP BY city HAVING sum(price) > 25"
        )
        assert result.fetchall() == [("b", 31.0)]

    def test_count_distinct_and_stddev(self, db):
        result = db.execute(
            "SELECT count(DISTINCT qty) AS dq, stddev(price) AS sd, var_pop(price) AS vp FROM sales"
        )
        dq, sd, vp = result.fetchall()[0]
        assert dq == 2
        assert sd == pytest.approx(np.std(np.arange(1.0, 11.0), ddof=1))
        assert vp == pytest.approx(np.var(np.arange(1.0, 11.0)))

    def test_median_and_percentile(self, db):
        result = db.execute("SELECT median(price) AS m, percentile(price, 0.9) AS p FROM sales")
        m, p = result.fetchall()[0]
        assert m == pytest.approx(5.5)
        assert p == pytest.approx(np.quantile(np.arange(1.0, 11.0), 0.9))

    def test_aggregate_of_empty_group_returns_zero_count_and_null_sum(self, db):
        result = db.execute("SELECT count(*) AS c, sum(price) AS s FROM sales WHERE price > 100")
        [(count, total)] = result.fetchall()
        assert count == 0.0
        assert np.isnan(total)  # SQL: a sum over no value is NULL

    @pytest.mark.parametrize("rows", [0, 1, 257])
    def test_stacked_sums_and_dispersions_equal_each_aggregate_bit_for_bit(self, rows):
        from repro.sqlengine import functions

        rng = np.random.default_rng(rows)
        inverse = rng.integers(0, 5, rows)
        groups = len(np.unique(inverse)) if rows else 1
        inverse = np.searchsorted(np.unique(inverse), inverse)
        with_nulls = rng.normal(size=rows)
        with_nulls[::3] = np.nan
        columns = [rng.normal(size=rows) * 1e6, with_nulls, np.full(rows, np.nan)]
        sums = functions.group_sums(columns, inverse, groups)
        for name in ("stddev", "var_pop"):
            dispersions = functions.group_dispersions(name, columns, inverse, groups)
            for column, dispersion in zip(columns, dispersions):
                expected = functions.aggregate(name, [column], inverse, groups)
                assert np.array_equal(dispersion, expected, equal_nan=True)
        for column, total in zip(columns, sums):
            expected = functions.aggregate("sum", [column], inverse, groups)
            assert np.array_equal(total, expected, equal_nan=True)
            assert total.dtype == np.float64

    def test_window_function_over_groups(self, db):
        result = db.execute(
            "SELECT city, qty, count(*) AS c, sum(count(*)) OVER (PARTITION BY city) AS total "
            "FROM sales GROUP BY city, qty ORDER BY city, qty"
        )
        rows = result.fetchall()
        assert all(row[3] == 5.0 for row in rows)

    def test_window_function_without_partition(self, db):
        result = db.execute(
            "SELECT qty, count(*) AS c, sum(count(*)) OVER () AS total FROM sales GROUP BY qty"
        )
        assert all(row[2] == 10.0 for row in result.fetchall())

    def test_star_with_aggregate_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT *, count(*) FROM sales")

    def test_order_by_aggregate_alias(self, db):
        result = db.execute("SELECT city, sum(price) AS s FROM sales GROUP BY city ORDER BY s DESC")
        assert result.column("city").tolist() == ["b", "a"]


class TestJoins:
    def test_inner_join(self, db):
        result = db.execute(
            "SELECT s.city, state, count(*) AS c FROM sales s INNER JOIN cities ON s.city = cities.city "
            "GROUP BY s.city, state ORDER BY s.city"
        )
        assert result.fetchall() == [("a", "MI", 5.0), ("b", "IL", 5.0)]

    def test_join_with_residual_condition(self, db):
        result = db.execute(
            "SELECT count(*) AS c FROM sales s INNER JOIN cities c2 ON s.city = c2.city AND s.price > 5"
        )
        assert result.scalar() == 5

    def test_join_fanout(self, db):
        db.register_table(
            "dup", {"city": np.array(["a", "a"], dtype=object), "tag": np.array([1, 2])}
        )
        result = db.execute("SELECT count(*) FROM sales INNER JOIN dup ON sales.city = dup.city")
        assert result.scalar() == 10  # 5 'a' rows x 2 matches

    def test_cross_join(self, db):
        result = db.execute("SELECT count(*) FROM sales, cities")
        assert result.scalar() == 20

    def test_join_no_matches(self, db):
        db.register_table("empty_dim", {"city": np.array(["zz"], dtype=object)})
        result = db.execute(
            "SELECT count(*) FROM sales INNER JOIN empty_dim ON sales.city = empty_dim.city"
        )
        assert result.scalar() == 0

    def test_left_join_unsupported(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM sales LEFT JOIN cities ON sales.city = cities.city")


class TestSubqueries:
    def test_derived_table(self, db):
        result = db.execute(
            "SELECT avg(s) AS a FROM (SELECT city, sum(price) AS s FROM sales GROUP BY city) AS t"
        )
        assert result.scalar() == pytest.approx(27.5)

    def test_scalar_subquery_in_where(self, db):
        result = db.execute(
            "SELECT count(*) FROM sales WHERE price > (SELECT avg(price) FROM sales)"
        )
        assert result.scalar() == 5

    def test_unknown_column_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT nonexistent FROM sales")

    def test_unknown_function_raises(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT frobnicate(price) FROM sales")


class TestDerivedEncodingPropagation:
    def test_outer_group_by_reuses_inner_codes(self, monkeypatch):
        import repro.sqlengine.executor as executor_module

        engine = Database(seed=0, optimize=True)
        rng = np.random.default_rng(3)
        engine.register_table(
            "orders",
            {
                "city": rng.choice(np.array(["a", "b", "c", None], dtype=object), 2000),
                "status": rng.choice(np.array(["x", "y"], dtype=object), 2000),
                "price": rng.normal(10, 2, 2000),
            },
        )
        calls = {"object_encodes": 0}
        original = executor_module.encode_key

        def counting(values, encoded=None):
            if values.dtype == object and encoded is None:
                calls["object_encodes"] += 1
            return original(values, encoded)

        monkeypatch.setattr(executor_module, "encode_key", counting)
        monkeypatch.setattr("repro.sqlengine.expressions.encode_key", counting)
        result = engine.execute(
            "SELECT t.city, count(*) AS groups FROM "
            "(SELECT city, status, sum(price) AS s FROM orders GROUP BY city, status) AS t "
            "GROUP BY t.city ORDER BY t.city"
        )
        # the outer GROUP BY consumed the propagated codes: no object column
        # was re-encoded anywhere in the statement
        assert calls["object_encodes"] == 0
        assert result.num_rows == 4

    def test_propagated_codes_survive_having_order_and_limit(self):
        queries = [
            "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders "
            "GROUP BY city HAVING count(*) > 10 ORDER BY city DESC LIMIT 3) AS t "
            "WHERE t.city <> 'nyc' ORDER BY t.city",
            "SELECT t.city, count(*) AS n FROM "
            "(SELECT city, qty FROM orders ORDER BY order_id LIMIT 200 OFFSET 10) AS t "
            "GROUP BY t.city ORDER BY t.city",
        ]
        for query in queries:
            results = []
            for optimize in (True, False):
                engine = Database(seed=0, optimize=optimize)
                engine.register_table("orders", build_orders_columns(num_rows=2_000, seed=9))
                results.append(engine.execute(query).fetchall())
            assert results[0] == results[1], query


class TestDictionaryScalarFunctions:
    CORPUS = [
        "SELECT s, upper(s) AS u FROM t ORDER BY k",
        "SELECT s, lower(s) AS l FROM t ORDER BY k",
        "SELECT s, length(s) AS n FROM t ORDER BY k",
        "SELECT s, substr(s, 2) AS tail FROM t ORDER BY k",
        "SELECT s, substr(s, 1, 2) AS head FROM t ORDER BY k",
        "SELECT count(*) FROM t WHERE upper(s) = 'APPLE'",
        "SELECT upper(s) AS u, count(*) AS n FROM t GROUP BY upper(s) ORDER BY u",
    ]

    @pytest.mark.parametrize("query", CORPUS)
    def test_matches_naive(self, query):
        rows = np.array(
            ["apple", "Banana", None, "", "\0weird", "apple", 42], dtype=object
        )
        results = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("t", {"s": rows.copy(), "k": np.arange(len(rows))})
            results.append(engine.execute(query).fetchall())
        assert results[0] == results[1], query

    def test_per_row_comprehension_runs_over_dictionary(self, monkeypatch):
        import repro.sqlengine.functions as functions_module

        engine = Database(seed=0, optimize=True)
        engine.register_table(
            "t", {"s": np.array(["a", "b"] * 500, dtype=object)}
        )
        seen = {}
        original = functions_module.SCALAR_FUNCTIONS["upper"]

        def spy(context, values):
            seen["rows"] = len(values)
            return original(context, values)

        monkeypatch.setitem(functions_module.SCALAR_FUNCTIONS, "upper", spy)
        result = engine.execute("SELECT upper(s) AS u FROM t")
        assert result.num_rows == 1000
        assert seen["rows"] == 2  # dictionary entries, not rows


class TestOrderByOrdinals:
    """An integer literal in ORDER BY names that output column, as in SQLite."""

    TABLES = {
        "t": {
            "id": np.arange(8),
            "city": np.array(["d", "a", "c", "b", "a", "d", "b", "c"], dtype=object),
            "price": np.array([4.5, 1.25, 9.0, 3.5, 2.0, 7.75, 6.0, 0.75]),
            "qty": np.array([3, 8, 1, 6, 2, 7, 5, 4]),
        }
    }

    STATEMENTS = [
        # grouped
        "SELECT city, sum(price) AS s FROM t GROUP BY city ORDER BY 2",
        "SELECT city, sum(price) AS s FROM t GROUP BY city ORDER BY 2 DESC",
        "SELECT city, max(qty) AS m FROM t GROUP BY city ORDER BY 1 DESC",
        "SELECT city, sum(qty) AS q, min(price) AS p FROM t GROUP BY city ORDER BY 3 DESC, city",
        "SELECT city, count(*) AS n, sum(price) AS s FROM t GROUP BY city ORDER BY n, 3 DESC",
        # plain
        "SELECT id, price FROM t ORDER BY 2",
        "SELECT id, price FROM t ORDER BY 2 DESC",
        "SELECT city, qty FROM t ORDER BY 1, 2 DESC",
        "SELECT city, qty FROM t ORDER BY city DESC, 2",
        "SELECT * FROM t ORDER BY 4 DESC",
        "SELECT price * 2 AS doubled, id FROM t WHERE qty > 2 ORDER BY 1 DESC",
    ]

    @pytest.mark.parametrize("sql", STATEMENTS)
    def test_ordinals_match_sqlite(self, both_backends, answers, sql):
        engine, sqlite = both_backends(self.TABLES)
        try:
            ours, theirs = answers(engine, sqlite, sql)
        finally:
            sqlite.close()
        assert ours == theirs

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT city, sum(price) AS s FROM t GROUP BY city ORDER BY 3",
            "SELECT id, price FROM t ORDER BY 0",
            "SELECT * FROM t ORDER BY 5",
        ],
    )
    def test_an_ordinal_out_of_range_raises(self, sql):
        engine = Database(seed=0)
        engine.register_table("t", self.TABLES["t"])
        with pytest.raises(ExecutionError, match="out of range"):
            engine.execute(sql)


def _count_renders(monkeypatch) -> list[str]:
    """Record every ``to_sql()`` call on any AST node class."""
    from repro.sqlengine import sqlast as ast

    calls: list[str] = []
    for node_class in vars(ast).values():
        if isinstance(node_class, type) and "to_sql" in vars(node_class):
            def counted(self, *args, _render=node_class.to_sql, **kwargs):
                calls.append(type(self).__name__)
                return _render(self, *args, **kwargs)

            monkeypatch.setattr(node_class, "to_sql", counted)
    return calls


def test_a_cached_grouped_statement_renders_no_sql(db, monkeypatch):
    """Every statement-pure decision of grouped execution lives on the cached
    plan: a repeated statement walks no AST into SQL text."""
    sql = (
        "SELECT city, qty % 2 AS parity, count(*) AS n, sum(price / qty) AS a, "
        "sum(1.0 / qty) AS b, sum(price * (1.0 / qty)) AS c FROM sales "
        "WHERE price > ? GROUP BY city, qty % 2 HAVING count(*) > 0 ORDER BY 3 DESC, city"
    )
    first = db.execute(sql, (2.0,))
    calls = _count_renders(monkeypatch)
    again = db.execute(sql, (2.0,))
    assert calls == []
    assert again.equals(first)


def test_a_repeated_approximate_statement_renders_no_sql(monkeypatch):
    from repro import SampleSpec, VerdictSession
    from repro.core.sample_planner import PlannerConfig

    session = VerdictSession(planner_config=PlannerConfig(io_budget=0.5, large_table_rows=1_000))
    session.load_table("orders", build_orders_columns(num_rows=5_000, seed=3))
    session.create_sample("orders", SampleSpec("uniform", (), 0.1))
    sql = "SELECT city, count(*) AS n, avg(price) AS a FROM orders WHERE qty > ? GROUP BY city"
    first = session.sql(sql, params=(1,))
    assert not first.is_exact
    calls = _count_renders(monkeypatch)
    again = session.sql(sql, params=(1,))
    assert calls == []
    assert again.raw.equals(first.raw)
    session.close()

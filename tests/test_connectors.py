"""Tests for dialects, the syntax changer and the two backend connectors."""

import zlib

import numpy as np
import pytest

from repro.connectors import (
    BuiltinConnector,
    SqliteConnector,
    GENERIC,
    IMPALA_LIKE,
    REDSHIFT_LIKE,
    SQLITE,
    SyntaxChanger,
    get_dialect,
)
from repro.errors import ConnectorError, ExecutionError
from repro.sqlengine.parser import parse_select


class TestDialects:
    def test_lookup_by_name(self):
        assert get_dialect("impala") is IMPALA_LIKE
        with pytest.raises(KeyError):
            get_dialect("oracle")

    def test_identifier_quoting(self):
        assert GENERIC.quote_identifier("simple") == "simple"
        assert GENERIC.quote_identifier("weird name") == '"weird name"'
        assert IMPALA_LIKE.quote_identifier("weird name") == "`weird name`"

    def test_function_renames(self):
        assert REDSHIFT_LIKE.rename_function("rand") == "random"
        assert REDSHIFT_LIKE.rename_function("stddev") == "stddev_samp"
        assert GENERIC.rename_function("rand") == "rand"
        assert SQLITE.rename_function("rand") == "vdb_rand"


class TestSyntaxChanger:
    def test_function_rename_in_rendered_sql(self):
        statement = parse_select("SELECT stddev(x) FROM t WHERE rand() < 0.5")
        sql = SyntaxChanger(REDSHIFT_LIKE).to_sql(statement)
        assert "stddev_samp(" in sql
        assert "random()" in sql

    def test_rand_in_where_pushed_into_derived_table_for_impala(self):
        statement = parse_select("SELECT x FROM t WHERE rand() < 0.01")
        sql = SyntaxChanger(IMPALA_LIKE).to_sql(statement)
        assert "__vdb_rand" in sql
        # The predicate itself no longer calls rand().
        where_clause = sql.split("WHERE")[-1]
        assert "rand()" not in where_clause

    def test_rand_in_where_untouched_for_generic(self):
        statement = parse_select("SELECT x FROM t WHERE rand() < 0.01")
        sql = SyntaxChanger(GENERIC).to_sql(statement)
        assert "__vdb_rand" not in sql

    def test_impala_workaround_produces_equivalent_sampling(self):
        connector = BuiltinConnector(dialect=IMPALA_LIKE, seed=7)
        connector.load_table("t", {"x": np.arange(20_000)})
        statement = parse_select("SELECT count(*) AS c FROM t WHERE rand() < 0.1")
        count = float(connector.execute(statement).scalar())
        assert 1_500 < count < 2_500

    def test_create_table_as_select_adapted(self):
        from repro.sqlengine.parser import parse

        statement = parse("CREATE TABLE s AS SELECT * FROM t WHERE rand() < 0.5")
        sql = SyntaxChanger(IMPALA_LIKE).to_sql(statement)
        assert sql.startswith("CREATE TABLE s AS")
        assert "__vdb_rand" in sql


def _assert_ctas_writes_every_row(connector):
    select = "SELECT order_id, price, city FROM orders WHERE price > 10"
    connector.execute(f"CREATE TABLE orders_copy AS {select}")
    expected = connector.execute(f"{select} ORDER BY order_id").fetchall()
    assert 0 < len(expected) < connector.row_count("orders")
    assert connector.row_count("orders_copy") == len(expected)
    assert connector.column_names("orders_copy") == ["order_id", "price", "city"]
    copied = connector.execute(
        "SELECT order_id, price, city FROM orders_copy ORDER BY order_id"
    ).fetchall()
    assert copied == expected


class TestBuiltinConnector:
    def test_load_and_query(self, builtin_connector):
        assert builtin_connector.row_count("orders") == 40_000
        result = builtin_connector.execute("SELECT count(*) AS c FROM orders WHERE price > 0")
        assert float(result.scalar()) > 0

    def test_table_and_column_introspection(self, builtin_connector):
        assert "orders" in builtin_connector.table_names()
        assert builtin_connector.column_names("orders") == ["order_id", "price", "qty", "city"]
        assert builtin_connector.column_cardinality("orders", "city") == 4

    def test_append_columns(self, builtin_connector):
        before = builtin_connector.row_count("orders")
        state = builtin_connector.catalog_state()
        logged = len(builtin_connector.queries_issued)
        builtin_connector.append_columns(
            "orders",
            {"order_id": [999_999, 1_000_000], "price": [1.0, None], "qty": [1, 2],
             "city": ["nowhere", None]},
        )
        assert builtin_connector.row_count("orders") == before + 2
        assert builtin_connector.catalog_state() != state
        # Rows travelled as columns: nothing was rendered to INSERT text.
        assert len(builtin_connector.queries_issued) == logged
        tail = builtin_connector.execute(
            "SELECT price, city FROM orders WHERE order_id >= 999999 ORDER BY order_id"
        ).fetchall()
        assert tail[0] == (1.0, "nowhere")
        assert np.isnan(tail[1][0]) and tail[1][1] is None

    def test_append_columns_is_atomic(self, builtin_connector):
        before = builtin_connector.execute("SELECT * FROM orders")
        state = builtin_connector.catalog_state()
        bad_batches = [
            {"order_id": [1], "price": [1.0], "qty": [1]},  # a column missing
            {"order_id": [1], "price": [1.0], "qty": [1], "city": ["x"], "extra": [0]},
            {"order_id": [1, 2], "price": [1.0], "qty": [1], "city": ["x"]},  # ragged
            {"order_id": [[1]], "price": [1.0], "qty": [1], "city": ["x"]},  # 2-D
        ]
        for batch in bad_batches:
            with pytest.raises(ExecutionError):
                builtin_connector.append_columns("orders", batch)
        assert builtin_connector.catalog_state() == state
        assert builtin_connector.execute("SELECT * FROM orders").equals(before)

    def test_create_table_as_select_writes_every_row(self, builtin_connector):
        # The statement form a sample is written with: straight into its table.
        _assert_ctas_writes_every_row(builtin_connector)

    def test_queries_are_recorded(self, builtin_connector):
        builtin_connector.execute("SELECT 1 AS x")
        assert any("SELECT 1" in sql for sql in builtin_connector.queries_issued)


@pytest.mark.parametrize("connector_type", [BuiltinConnector, SqliteConnector])
def test_hashes_read_a_number_by_value_and_null_as_empty(connector_type):
    """``crc32`` and ``vdb_hash`` agree on both backends: ``2.0`` reads as
    ``"2"`` and NULL as ``""``.  SQLite's ``crc32(NULL)`` read ``"None"``
    (3,751,981,041) where the engine gives 0."""
    connector = connector_type(seed=0)
    try:
        connector.load_table("t", {"i": np.arange(4), "x": np.array([1, 2.0, 2.5, np.nan])})
        rows = connector.execute("SELECT crc32(x) AS c, vdb_hash(x) AS h FROM t ORDER BY i")
        expected = [zlib.crc32(text) for text in (b"1", b"2", b"2.5", b"")]
        assert [int(c) for c, _ in rows.fetchall()] == expected == [
            2212294583, 450215437, 2233083363, 0
        ]
        assert [float(h) for _, h in rows.fetchall()] == [c / 2**32 for c in expected]
    finally:
        connector.close()


class TestSqliteConnector:
    def test_load_and_query(self, sqlite_connector):
        assert sqlite_connector.row_count("orders") == 40_000
        result = sqlite_connector.execute(
            "SELECT city, count(*) AS c FROM orders GROUP BY city ORDER BY city"
        )
        assert result.num_rows == 4

    def test_registered_functions(self, sqlite_connector):
        stddev = sqlite_connector.execute("SELECT stddev(price) AS s FROM orders").scalar()
        assert 9.0 < float(stddev) < 11.0
        median = sqlite_connector.execute("SELECT median(price) AS m FROM orders").scalar()
        assert 8.0 < float(median) < 12.0
        hashes = sqlite_connector.execute("SELECT vdb_hash(order_id) AS h FROM orders LIMIT 5")
        assert all(0.0 <= float(h) < 1.0 for (h,) in hashes.rows())

    def test_append_columns(self, sqlite_connector):
        before = sqlite_connector.row_count("orders")
        state = sqlite_connector.catalog_state()
        logged = len(sqlite_connector.queries_issued)
        assert [str(dtype) for dtype in sqlite_connector.column_dtypes("orders").values()] == [
            "int64", "float64", "int64", "object",
        ]
        sqlite_connector.append_columns(
            "orders",
            {"order_id": np.array([999_999.0, 1_000_000.0]), "price": [1.0, None],
             "qty": [1, 2], "city": ["nowhere", None]},
        )
        assert sqlite_connector.catalog_state() != state
        assert len(sqlite_connector.queries_issued) == logged
        assert sqlite_connector.row_count("orders") == before + 2
        tail = sqlite_connector.execute(
            "SELECT order_id, price, city FROM orders WHERE order_id >= 999999 ORDER BY order_id"
        ).fetchall()
        assert tail == [(999_999, 1.0, "nowhere"), (1_000_000, None, None)]
        assert isinstance(tail[0][0], int)  # cast to the stored type, not the caller's
        with pytest.raises(ExecutionError):  # the same batch rule on every backend
            sqlite_connector.append_columns("orders", {"order_id": [1]})
        assert sqlite_connector.row_count("orders") == before + 2

    def test_create_table_as_select_writes_every_row(self, sqlite_connector):
        _assert_ctas_writes_every_row(sqlite_connector)

    def test_column_introspection_missing_table(self, sqlite_connector):
        with pytest.raises(ConnectorError):
            sqlite_connector.column_names("missing")

    def test_bad_sql_raises_connector_error(self, sqlite_connector):
        with pytest.raises(ConnectorError):
            sqlite_connector.execute_sql("SELECT FROM WHERE")

    def test_window_function_support(self, sqlite_connector):
        result = sqlite_connector.execute(
            "SELECT city, count(*) AS c, sum(count(*)) OVER () AS total FROM orders GROUP BY city"
        )
        assert all(float(row[2]) == 40_000 for row in result.rows())

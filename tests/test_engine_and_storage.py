"""Tests for DDL/DML handling, Table, Catalog, ResultSet, functions and sketches."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.sqlengine import Database, ResultSet, Table
from repro.sqlengine import functions, sketches
from repro.sqlengine.catalog import Catalog


class TestDdlDml:
    def test_create_insert_select_drop(self):
        db = Database(seed=0)
        db.execute("CREATE TABLE t (a int, b varchar)")
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert db.execute("SELECT count(*) FROM t").scalar() == 2
        db.execute("DROP TABLE t")
        assert not db.has_table("t")

    def test_create_table_as_select(self):
        db = Database(seed=0)
        db.register_table("src", {"x": np.arange(100), "y": np.arange(100) * 2.0})
        db.execute("CREATE TABLE dst AS SELECT x, y FROM src WHERE x < 10")
        assert db.table("dst").num_rows == 10

    def test_create_existing_table_raises_unless_if_not_exists(self):
        db = Database(seed=0)
        db.execute("CREATE TABLE t (a int)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a int)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a int)")  # no error

    def test_drop_missing_table(self):
        db = Database(seed=0)
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE missing")
        db.execute("DROP TABLE IF EXISTS missing")  # no error

    def test_insert_from_select(self):
        db = Database(seed=0)
        db.register_table("src", {"x": np.arange(5)})
        db.execute("CREATE TABLE dst (x int)")
        db.execute("INSERT INTO dst SELECT x FROM src WHERE x >= 3")
        assert db.execute("SELECT count(*) FROM dst").scalar() == 2

    def test_insert_wrong_arity_raises(self):
        db = Database(seed=0)
        db.execute("CREATE TABLE t (a int, b int)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_rand_is_seeded_and_reproducible(self):
        values = []
        for _ in range(2):
            db = Database(seed=123)
            db.register_table("t", {"x": np.arange(100)})
            values.append(db.execute("SELECT count(*) FROM t WHERE rand() < 0.5").scalar())
        assert values[0] == values[1]


class TestTable:
    def test_from_rows_and_rows_round_trip(self):
        table = Table.from_rows("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert list(table.rows()) == [(1, "x"), (2, "y")]

    def test_mixed_int_float_promotes_to_float(self):
        table = Table.from_rows("t", ["a"], [(1,), (2.5,)])
        assert table.column("a").dtype == np.float64

    def test_none_becomes_nan_for_numeric(self):
        table = Table.from_rows("t", ["a"], [(1,), (None,)])
        assert np.isnan(table.column("a")[1])

    def test_column_length_mismatch_raises(self):
        table = Table("t", {"a": np.arange(3)})
        with pytest.raises(ExecutionError):
            table.add_column("b", np.arange(4))

    def test_append_rows_and_filter(self):
        table = Table("t", {"a": np.arange(3), "b": np.array(["x", "y", "z"], dtype=object)})
        table.append_rows(["a", "b"], [(3, "w")])
        assert table.num_rows == 4
        filtered = table.filter(table.column("a") > 1)
        assert filtered.num_rows == 2

    def test_append_missing_column_raises(self):
        table = Table("t", {"a": np.arange(3), "b": np.arange(3)})
        with pytest.raises(ExecutionError):
            table.append_rows(["a"], [(1,)])

    def test_estimated_bytes_positive(self):
        table = Table("t", {"a": np.arange(10), "s": np.array(["hello"] * 10, dtype=object)})
        assert table.estimated_bytes() > 0

    def test_copy_is_independent(self):
        table = Table("t", {"a": np.arange(3)})
        clone = table.copy("u")
        clone.column("a")[0] = 99
        assert table.column("a")[0] == 0


class TestCatalogAndResultSet:
    def test_catalog_case_insensitive(self):
        catalog = Catalog()
        catalog.register(Table("Orders", {"a": np.arange(2)}))
        assert catalog.has("ORDERS")
        assert catalog.get("orders").num_rows == 2

    def test_catalog_duplicate_and_drop(self):
        catalog = Catalog()
        catalog.register(Table("t", {"a": np.arange(1)}))
        with pytest.raises(CatalogError):
            catalog.register(Table("t", {"a": np.arange(1)}))
        catalog.drop("t")
        with pytest.raises(CatalogError):
            catalog.get("t")

    def test_resultset_scalar_and_errors(self):
        result = ResultSet(["a"], [np.array([5.0])])
        assert result.scalar() == 5.0
        wide = ResultSet(["a", "b"], [np.array([1]), np.array([2])])
        with pytest.raises(ExecutionError):
            wide.scalar()

    def test_resultset_from_rows_and_to_dict(self):
        result = ResultSet.from_rows(["a", "b"], [(1, "x"), (2, "y")])
        assert result.to_dict() == {"a": [1, 2], "b": ["x", "y"]}

    def test_resultset_length_mismatch_raises(self):
        with pytest.raises(ExecutionError):
            ResultSet(["a", "b"], [np.array([1]), np.array([1, 2])])


class TestScalarFunctions:
    def _context(self, n=4):
        return functions.EvaluationContext(num_rows=n, rng=np.random.default_rng(0))

    def test_round_floor_ceil_abs_sqrt(self):
        ctx = self._context()
        values = np.array([1.4, -1.6, 2.5, 9.0])
        assert functions.call_scalar("floor", ctx, [values]).tolist() == [1.0, -2.0, 2.0, 9.0]
        assert functions.call_scalar("abs", ctx, [values])[1] == pytest.approx(1.6)
        assert functions.call_scalar("sqrt", ctx, [np.array([4.0, 9.0, 16.0, 25.0])]).tolist() == [
            2.0, 3.0, 4.0, 5.0,
        ]

    def test_rand_in_unit_interval(self):
        ctx = self._context(1000)
        values = functions.call_scalar("rand", ctx, [])
        assert len(values) == 1000
        assert values.min() >= 0.0 and values.max() < 1.0

    def test_string_functions(self):
        ctx = self._context(2)
        names = np.array(["Alice", "bob"], dtype=object)
        assert functions.call_scalar("upper", ctx, [names]).tolist() == ["ALICE", "BOB"]
        assert functions.call_scalar("length", ctx, [names]).tolist() == [5, 3]
        assert functions.call_scalar(
            "substr", ctx, [names, np.array([1, 1]), np.array([3, 3])]
        ).tolist() == ["Ali", "bob"]

    def test_vdb_hash_uniform_range(self):
        ctx = self._context(100)
        hashes = functions.call_scalar("vdb_hash", ctx, [np.arange(100).astype(object)])
        assert hashes.min() >= 0.0 and hashes.max() < 1.0
        # Hash must be deterministic.
        again = functions.call_scalar("vdb_hash", ctx, [np.arange(100).astype(object)])
        assert np.array_equal(hashes, again)

    def test_nan_reads_as_null_in_string_functions(self):
        ctx = self._context(3)
        values = np.array([1.5, np.nan, 2.0])
        assert functions.call_scalar("upper", ctx, [values]).tolist() == ["1.5", None, "2.0"]
        assert functions.call_scalar("length", ctx, [values]).tolist() == [3, 0, 3]
        bar = np.array(["|"] * 3, dtype=object)
        assert functions.call_scalar("concat", ctx, [values, bar]).tolist() == [
            "1.5|", "|", "2.0|",
        ]

    def test_nan_hashes_like_null(self):
        ctx = self._context(2)
        nan = np.array([np.nan, 4.0])
        null = np.array([None, 4.0], dtype=object)
        for name in ("crc32", "vdb_hash"):
            assert functions.call_scalar(name, ctx, [nan]).tolist() == functions.call_scalar(
                name, ctx, [null]
            ).tolist()
        # NULL hashes as the empty string, whose CRC-32 is 0.
        assert functions.call_scalar("crc32", ctx, [nan])[0] == 0

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            functions.call_scalar("nope", self._context(), [])


class TestAggregateHelpers:
    def test_aggregate_dispatch_errors(self):
        inverse = np.zeros(3, dtype=np.int64)
        with pytest.raises(ExecutionError):
            functions.aggregate("sum", [], inverse, 1)
        with pytest.raises(ExecutionError):
            functions.aggregate("nope", [np.arange(3)], inverse, 1)

    def test_min_max_with_strings(self):
        inverse = np.array([0, 0, 1, 1])
        values = np.array(["b", "a", "z", "c"], dtype=object)
        assert functions.aggregate("min", [values], inverse, 2).tolist() == ["a", "c"]
        assert functions.aggregate("max", [values], inverse, 2).tolist() == ["b", "z"]


class TestSketches:
    def test_hyperloglog_accuracy(self):
        sketch = sketches.HyperLogLog(precision=12)
        sketch.add_many(range(50_000))
        estimate = sketch.estimate()
        assert abs(estimate - 50_000) / 50_000 < 0.05

    def test_hyperloglog_merge(self):
        left, right = sketches.HyperLogLog(10), sketches.HyperLogLog(10)
        left.add_many(range(0, 1000))
        right.add_many(range(500, 1500))
        left.merge(right)
        assert abs(left.estimate() - 1500) / 1500 < 0.1

    def test_hyperloglog_merge_precision_mismatch(self):
        with pytest.raises(ValueError):
            sketches.HyperLogLog(10).merge(sketches.HyperLogLog(12))

    def test_hyperloglog_invalid_precision(self):
        with pytest.raises(ValueError):
            sketches.HyperLogLog(precision=2)

    def test_approx_median_close_to_exact(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10, 5, 20_000)
        assert sketches.approx_median(values) == pytest.approx(np.median(values), rel=0.02)

    def test_approx_percentile_edge_cases(self):
        assert np.isnan(sketches.approx_percentile(np.array([]), 0.5))
        assert sketches.approx_percentile(np.array([3.0, 3.0, 3.0]), 0.5) == 3.0

    def test_ndv_function(self):
        values = np.repeat(np.arange(1000), 3)
        assert abs(sketches.ndv(values) - 1000) / 1000 < 0.1

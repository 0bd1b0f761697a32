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

    def test_empty_table_roundtrip(self):
        table = Table("t")
        table.add_column("x", np.array([], dtype=np.float64))
        assert table.num_rows == 0
        assert table.column("x").tolist() == []
        table.append_rows(["x"], [(1.5,), (2.5,)])
        assert table.column("x").tolist() == [1.5, 2.5]

    def test_object_promotion_on_append(self):
        table = Table("t", {"x": np.arange(3)})
        table.append_rows(["x"], [("mixed",)])
        assert table.column_dtype("x") == object
        assert table.column("x").dtype == object
        assert table.column("x").tolist() == [0, 1, 2, "mixed"]
        table.append_rows(["x"], [(4,)])
        assert table.column("x").tolist() == [0, 1, 2, "mixed", 4]

    def test_appends_join_on_first_read_without_copying_stored_rows(self):
        loaded = np.arange(4)
        table = Table("t", {"x": loaded})
        assert table.column("x") is loaded
        table.append_rows(["x"], [(4,)])
        table.append_rows(["x"], [(5,), (6,)])
        assert table.num_rows == 7
        flat = table.column("x")
        assert flat.tolist() == list(range(7))
        assert table.column("x") is flat  # joined once, then kept

    def test_many_appended_parts_read_back_in_order(self):
        table = Table("t", {"x": np.arange(5), "s": np.array(["r0"] * 5, dtype=object)})
        start = 5
        for size in (1, 3, 20_000, 2, 17):
            table.append_columns({
                "x": np.arange(start, start + size),
                "s": np.array([f"r{start}"] * size, dtype=object),
            })
            start += size
        assert table.num_rows == start
        assert table.column("x").tolist() == list(range(start))
        # each batch's label marks its first row
        assert table.column("s")[[0, 5, 6, 9, 20_008, 20_009, start - 1]].tolist() == [
            "r0", "r5", "r6", "r9", "r9", "r20009", "r20011",
        ]

    def test_append_extends_a_current_dictionary_without_joining_parts(self):
        table = Table("t", {"s": np.array(["b", "a", None, "b"], dtype=object)})
        table.dictionary_codes("s")  # make the encoding current
        table.append_columns({"s": np.array(["c", "a", None], dtype=object)})
        assert table._dictionary_cache["s"][0] == table.version  # extended, not dropped
        assert len(table._parts["s"]) == 2  # ... without joining the parts
        codes, dictionary = table.dictionary_codes("s")
        rebuilt = Table("u", {"s": table.column("s").copy()})
        rebuilt_codes, rebuilt_dictionary = rebuilt.dictionary_codes("s")
        assert codes.tolist() == rebuilt_codes.tolist()
        assert dictionary.tolist() == rebuilt_dictionary.tolist()
        assert table.distinct_count("s") == rebuilt.distinct_count("s") == 3

    def test_take_and_copy_read_through_unjoined_parts(self):
        table = Table("t", {"x": np.arange(4)})
        table.append_columns({"x": np.arange(4, 10)})
        taken = table.take(np.array([1, 3, 5, 9]))
        assert taken.column("x").tolist() == [1, 3, 5, 9]
        clone = table.copy("u")
        table.append_columns({"x": np.array([10])})
        assert clone.num_rows == 10 and clone.column("x").tolist() == list(range(10))
        assert table.column("x").tolist() == list(range(11))

    def test_widening_append_casts_every_stored_part(self):
        table = Table("t", {"x": np.arange(3)})
        table.append_columns({"x": np.array([3, 4])})
        table.append_columns({"x": np.array([np.nan, 5.5])})
        assert table.column_dtype("x") == np.float64
        assert all(part.dtype == np.float64 for part in table._parts["x"])
        table.append_columns({"x": np.array([6])})
        values = table.column("x")
        assert values.dtype == np.float64
        assert values[[0, 1, 2, 3, 4, 6, 7]].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.5, 6.0]
        assert np.isnan(values[5])


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


class TestAppendsToSortedCopies:
    """Rows appended to a ``CREATE TABLE AS ... ORDER BY`` copy land after
    the sorted rows, in or out of order; scans over the result still answer
    as the naive engine does."""

    QUERIES = [
        "SELECT count(*) AS n, sum(weight) AS w FROM sorted_copy WHERE sid >= 90",
        "SELECT count(*) AS n FROM sorted_copy WHERE sid < 10",
        "SELECT count(*) AS n FROM sorted_copy WHERE sid BETWEEN 40 AND 60",
        "SELECT sid, count(*) AS n FROM sorted_copy WHERE sid <= 5 GROUP BY sid ORDER BY sid",
        "SELECT min(sid) AS lo, max(sid) AS hi, count(*) AS n FROM sorted_copy",
    ]

    def _pair(self):
        rng = np.random.default_rng(4)
        columns = {
            "sid": rng.integers(0, 100, 400),
            "weight": rng.normal(size=400),
            "label": rng.choice(["a", "b"], 400).astype(object),
        }
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("raw", {name: array.copy() for name, array in columns.items()})
            engine.execute("CREATE TABLE sorted_copy AS SELECT * FROM raw ORDER BY sid")
            engines.append(engine)
        return engines

    def _append_and_compare(self, sids):
        optimized, naive = self._pair()
        for engine in (optimized, naive):
            engine.table("sorted_copy").append_rows(
                ["sid", "weight", "label"], [(sid, 0.5, "a") for sid in sids]
            )
        for sql in self.QUERIES:
            assert optimized.execute(sql).equals(naive.execute(sql)), sql
        stored = optimized.table("sorted_copy").column("sid")
        assert stored[-len(sids):].tolist() == list(sids)  # appended, not merged
        return stored

    def test_in_order_append_keeps_the_column_sorted(self):
        stored = self._append_and_compare([99, 100, 250])
        assert np.all(stored[:-1] <= stored[1:])

    def test_out_of_order_append(self):
        stored = self._append_and_compare([5])
        assert not np.all(stored[:-1] <= stored[1:])

    def test_unsorted_batch(self):
        self._append_and_compare([200, 150, 3])

    def test_float_key_with_nan_tail(self):
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table(
                "m",
                {"x": np.random.default_rng(1).normal(size=200), "y": np.arange(200)},
            )
            engine.execute("CREATE TABLE mc AS SELECT * FROM m ORDER BY x")
            engine.table("mc").append_rows(
                ["x", "y"], [(50.0, 0), (60.0, 1), (float("nan"), 2), (float("nan"), 4), (70.0, 5)]
            )
            engines.append(engine)
        optimized, naive = engines
        for sql in (
            "SELECT count(*) AS n FROM mc WHERE x > 55",
            "SELECT count(*) AS n FROM mc WHERE x IS NULL",
            "SELECT count(*) AS n, sum(y) AS s FROM mc WHERE x <> 60",
            "SELECT min(x) AS lo, max(x) AS hi, count(x) AS c FROM mc",
        ):
            assert optimized.execute(sql).equals(naive.execute(sql)), sql
        assert optimized.execute("SELECT count(*) AS n FROM mc WHERE x > 55").scalar() == 2

    def test_string_key(self):
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table(
                "s", {"name": np.array(list("dcba") * 25, dtype=object), "v": np.arange(100)}
            )
            engine.execute("CREATE TABLE sc AS SELECT * FROM s ORDER BY name")
            engine.table("sc").append_rows(["name", "v"], [("zzz", 1), ("a", 2)])
            engines.append(engine)
        optimized, naive = engines
        assert optimized.table("sc").column("name")[:100].tolist() == sorted(list("dcba") * 25)
        for sql in (
            "SELECT count(*) AS n FROM sc WHERE name = 'a'",
            "SELECT count(*) AS n FROM sc WHERE name > 'c'",
            "SELECT name, sum(v) AS s FROM sc GROUP BY name ORDER BY name",
        ):
            assert optimized.execute(sql).equals(naive.execute(sql)), sql

    def test_grouped_aggregates_after_insert(self):
        rng = np.random.default_rng(9)
        columns = {"sid": np.sort(rng.integers(0, 20, 300)), "v": rng.normal(size=300)}
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("raw", {name: array.copy() for name, array in columns.items()})
            engine.execute("CREATE TABLE sc AS SELECT * FROM raw ORDER BY sid")
            engine.execute("INSERT INTO sc (sid, v) VALUES (20, 1.25), (21, -0.5), (3, 2.0)")
            engines.append(engine)
        optimized, naive = engines
        sql = "SELECT sid, stddev(v) AS s, sum(v) AS t, count(*) AS n FROM sc GROUP BY sid ORDER BY sid"
        result = optimized.execute(sql)
        assert result.equals(naive.execute(sql))
        assert result.num_rows == 22

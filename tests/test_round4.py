"""MIN/MAX/COUNT edge cases and joins over sorted inputs, A/B-tested.

Each shape is executed by the optimized engine and by
``Database(optimize=False)`` — the naive engine that scans whole columns —
and asserted bit-identical via ``ResultSet.equals``: NaN and infinite
extremes, NULL-only runs, empty tables, object MIN/MAX, LIMIT/OFFSET,
NaN join keys, derived join sides with ``ORDER BY``, pushed predicates and
a cached plan reused after DML.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sqlengine import Database


def _ab_pair(columns: dict):
    optimized = Database(seed=0)
    naive = Database(seed=0, optimize=False)
    for engine in (optimized, naive):
        engine.register_table("t", columns)
    return optimized, naive


def _assert_identical(optimized: Database, naive: Database, sql: str):
    fast = optimized.execute(sql)
    slow = naive.execute(sql)
    assert fast.equals(slow), (sql, fast.fetchall(), slow.fetchall())
    return fast


# ---------------------------------------------------------------------------
# MIN/MAX/COUNT over one table
# ---------------------------------------------------------------------------


class TestMinMaxCount:
    def test_min_max_count(self):
        rng = np.random.default_rng(3)
        optimized, naive = _ab_pair(
            {"k": np.arange(5_000), "v": rng.normal(size=5_000)}
        )
        sql = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n, count(v) AS nv FROM t"
        _assert_identical(optimized, naive, sql)

    def test_int_bool_and_qualified_columns(self):
        optimized, naive = _ab_pair(
            {"i": np.arange(1_000) - 500, "b": np.arange(1_000) % 2 == 0}
        )
        _assert_identical(
            optimized, naive, "SELECT min(t.i) AS a, max(i) AS b, min(b) AS c FROM t"
        )

    def test_nulls_and_a_null_only_run(self):
        values = np.arange(600, dtype=np.float64)
        values[100:300] = np.nan
        optimized, naive = _ab_pair({"v": values})
        _assert_identical(
            optimized, naive, "SELECT min(v) AS lo, max(v) AS hi, count(v) AS nv FROM t"
        )

    def test_all_null_column_yields_nan(self):
        optimized, naive = _ab_pair({"v": np.full(300, np.nan)})
        result = _assert_identical(
            optimized, naive, "SELECT min(v) AS lo, max(v) AS hi, count(v) AS nv FROM t"
        )
        assert np.isnan(result.column("lo")[0]) and result.column("nv")[0] == 0.0

    def test_infinite_extremes_collapse_to_nan_like_naive(self):
        # functions._group_extreme uses +/-inf as its empty-group fill and
        # collapses a result equal to the fill to NaN — a true max of -inf
        # (or min of +inf) must come out identically on both engines.
        optimized, naive = _ab_pair(
            {"v": np.array([-np.inf, -np.inf]), "w": np.array([np.inf, np.inf])}
        )
        result = _assert_identical(
            optimized, naive,
            "SELECT max(v) AS hi, min(w) AS lo, min(v) AS v_lo, max(w) AS w_hi FROM t",
        )
        assert np.isnan(result.column("hi")[0]) and np.isnan(result.column("lo")[0])

    def test_empty_table(self):
        optimized, naive = _ab_pair({"v": np.array([], dtype=np.float64)})
        _assert_identical(
            optimized, naive, "SELECT min(v) AS lo, count(*) AS n, count(v) AS nv FROM t"
        )

    def test_count_of_object_column_counts_none_only(self):
        optimized, naive = _ab_pair(
            {"s": np.array(["a", None, "b", None, "c"] * 50, dtype=object)}
        )
        _assert_identical(optimized, naive, "SELECT count(s) AS n, count(*) AS all_n FROM t")

    def test_object_min_max_falls_back(self):
        optimized, naive = _ab_pair(
            {"s": np.array(["b", "a", "c"], dtype=object)}
        )
        _assert_identical(optimized, naive, "SELECT min(s) AS lo, max(s) AS hi FROM t")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT min(v) AS lo FROM t WHERE v > 0",  # predicate: subset
            "SELECT k, min(v) AS lo FROM t GROUP BY k",  # grouped
            "SELECT min(v + 1) AS lo FROM t",  # non-bare argument
            "SELECT min(v) + 1 AS lo FROM t",  # expression over the aggregate
            "SELECT count(DISTINCT v) AS n FROM t",  # DISTINCT
            "SELECT sum(v) AS s FROM t",  # unsupported aggregate
        ],
    )
    def test_ineligible_shapes_fall_back_identically(self, sql):
        rng = np.random.default_rng(5)
        optimized, naive = _ab_pair(
            {"k": np.arange(400) % 7, "v": rng.normal(size=400)}
        )
        _assert_identical(optimized, naive, sql)

    def test_limit_and_offset_apply(self):
        optimized, naive = _ab_pair({"v": np.arange(10.0)})
        _assert_identical(optimized, naive, "SELECT min(v) AS lo FROM t LIMIT 1")
        _assert_identical(optimized, naive, "SELECT min(v) AS lo FROM t LIMIT 5 OFFSET 1")

    def test_append_is_seen_by_the_next_aggregate(self):
        optimized, naive = _ab_pair({"v": np.arange(200.0)})
        sql = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n FROM t WHERE v < 100000"
        _assert_identical(optimized, naive, sql)
        for engine in (optimized, naive):
            engine.execute("INSERT INTO t (v) VALUES (-5.0), (999.0)")
        result = _assert_identical(optimized, naive, sql)
        assert result.column("lo")[0] == -5.0 and result.column("hi")[0] == 999.0

    def test_replaced_column_is_seen_by_the_next_aggregate(self):
        optimized, naive = _ab_pair({"v": np.arange(200.0)})
        sql = "SELECT min(v) AS lo, max(v) AS hi FROM t WHERE v < 100000"
        _assert_identical(optimized, naive, sql)
        for engine in (optimized, naive):
            engine.table("t").add_column("v", np.arange(200.0) - 1_000.0)
        result = _assert_identical(optimized, naive, sql)
        assert result.column("lo")[0] == -1_000.0


# ---------------------------------------------------------------------------
# equi-joins over sorted (CREATE TABLE AS ... ORDER BY) inputs
# ---------------------------------------------------------------------------


def _merge_pair(left: dict, right: dict):
    """Two engines with ``ls``/``rs`` sorted copies of the same two tables."""
    optimized = Database(seed=0)
    naive = Database(seed=0, optimize=False)
    for engine in (optimized, naive):
        engine.register_table("l", left)
        engine.register_table("r", right)
        engine.execute("CREATE TABLE ls AS SELECT * FROM l ORDER BY k")
        engine.execute("CREATE TABLE rs AS SELECT * FROM r ORDER BY k")
    return optimized, naive


class TestSortedMergeJoin:
    def test_ctas_order_by_writes_rows_in_order(self):
        engine = Database(seed=0)
        engine.register_table("l", {"k": np.array([3, 1, 2]), "v": np.arange(3.0)})
        engine.execute("CREATE TABLE ls AS SELECT * FROM l ORDER BY k")
        assert engine.table("ls").column("k").tolist() == [1, 2, 3]
        engine.execute("CREATE TABLE ld AS SELECT * FROM l ORDER BY k DESC")
        assert engine.table("ld").column("k").tolist() == [3, 2, 1]
        engine.execute("CREATE TABLE la AS SELECT k AS kk, v FROM l ORDER BY kk")
        assert engine.table("la").column("v").tolist() == [1.0, 2.0, 0.0]

    def test_insert_lands_after_the_sorted_rows(self):
        optimized, naive = _merge_pair(
            {"k": np.arange(10)[::-1].copy(), "v": np.arange(10.0)},
            {"k": np.array([0, 5, 9]), "w": np.arange(3.0)}
        )
        for engine in (optimized, naive):
            engine.execute("INSERT INTO ls (k, v) VALUES (0, 0.5)")
        assert optimized.table("ls").column("k").tolist() == [*range(10), 0]
        for sql in (
            "SELECT ls.v, rs.w FROM ls INNER JOIN rs ON ls.k = rs.k ORDER BY ls.v",
            "SELECT count(*) AS n, sum(v) AS s FROM ls WHERE k < 2",
        ):
            _assert_identical(optimized, naive, sql)
        assert optimized.execute("SELECT count(*) AS n FROM ls WHERE k = 0").scalar() == 2

    def test_unsorted_inputs_join_as_their_sorted_copies(self):
        rng = np.random.default_rng(13)
        left = {"k": rng.integers(0, 40, 300), "v": rng.integers(0, 9, 300)}
        right = {"k": rng.integers(0, 40, 100), "w": rng.integers(0, 9, 100)}
        optimized, naive = _merge_pair(left, right)
        unsorted = "SELECT count(*) AS n, sum(l.v * r.w) AS x FROM l INNER JOIN r ON l.k = r.k"
        _assert_identical(optimized, naive, unsorted)
        sorted_copies = (
            "SELECT count(*) AS n, sum(ls.v * rs.w) AS x FROM ls INNER JOIN rs ON ls.k = rs.k"
        )
        _assert_identical(optimized, naive, sorted_copies)
        assert optimized.execute(unsorted).fetchall() == optimized.execute(sorted_copies).fetchall()

    def test_merge_join_bit_identical(self):
        rng = np.random.default_rng(9)
        optimized, naive = _merge_pair(
            {"k": rng.integers(0, 200, 3_000), "v": rng.normal(size=3_000)},
            {"k": rng.integers(0, 200, 500), "w": rng.normal(size=500)}
        )
        sql = (
            "SELECT count(*) AS n, sum(ls.v * rs.w) AS x "
            "FROM ls INNER JOIN rs ON ls.k = rs.k"
        )
        _assert_identical(optimized, naive, sql)

    def test_merge_join_with_pushed_predicates_keeps_order(self):
        rng = np.random.default_rng(10)
        optimized, naive = _merge_pair(
            {"k": rng.integers(0, 100, 2_000), "v": rng.normal(size=2_000)},
            {"k": rng.integers(0, 100, 400), "w": rng.normal(size=400)}
        )
        sql = (
            "SELECT count(*) AS n, sum(ls.v) AS x FROM ls INNER JOIN rs "
            "ON ls.k = rs.k WHERE ls.v > 0 AND rs.k BETWEEN 10 AND 80"
        )
        _assert_identical(optimized, naive, sql)

    def test_nan_keys_match_nothing_on_either_path(self):
        optimized, naive = _merge_pair(
            {"k": np.array([1.0, 2.0, np.nan, np.nan]), "v": np.arange(4.0)},
            {"k": np.array([2.0, np.nan]), "w": np.array([10.0, 20.0])},
        )
        sql = (
            "SELECT ls.v, rs.w FROM ls INNER JOIN rs ON ls.k = rs.k "
            "ORDER BY ls.v, rs.w"
        )
        _assert_identical(optimized, naive, sql)
        assert optimized.execute(sql).fetchall() == [(1.0, 10.0)]

    def test_derived_table_side(self):
        rng = np.random.default_rng(11)
        optimized, naive = _merge_pair(
            {"k": rng.integers(0, 50, 2_000), "v": rng.normal(size=2_000)},
            {"k": rng.integers(0, 50, 600), "w": rng.normal(size=600)},
        )
        sql = (
            "SELECT count(*) AS n, sum(ls.v * d.m) AS x FROM ls INNER JOIN "
            "(SELECT k AS kk, min(w) AS m FROM rs GROUP BY k ORDER BY k) AS d "
            "ON ls.k = d.kk"
        )
        _assert_identical(optimized, naive, sql)

    def test_cached_plan_falls_back_after_dml(self):
        rng = np.random.default_rng(12)
        optimized, naive = _merge_pair(
            {"k": rng.integers(0, 30, 500), "v": rng.normal(size=500)},
            {"k": rng.integers(0, 30, 200), "w": rng.normal(size=200)},
        )
        sql = "SELECT count(*) AS n FROM ls INNER JOIN rs ON ls.k = rs.k"
        _assert_identical(optimized, naive, sql)
        # DML does not invalidate the cached plan (the plan cache is keyed on
        # the catalog's schema version): the reused plan must still see the
        # appended row.
        for engine in (optimized, naive):
            engine.execute("INSERT INTO rs (k, w) VALUES (0, 1.5)")
        _assert_identical(optimized, naive, sql)

    def test_object_keys_fall_back(self):
        optimized, naive = _merge_pair(
            {"k": np.array(["a", "b", "c"], dtype=object), "v": np.arange(3.0)},
            {"k": np.array(["b", "c"], dtype=object), "w": np.arange(2.0)},
        )
        sql = "SELECT count(*) AS n FROM ls INNER JOIN rs ON ls.k = rs.k"
        _assert_identical(optimized, naive, sql)

    def test_multi_key_join_falls_back(self):
        rng = np.random.default_rng(14)
        optimized, naive = _merge_pair(
            {"k": rng.integers(0, 20, 300), "g": rng.integers(0, 3, 300)},
            {"k": rng.integers(0, 20, 100), "g": rng.integers(0, 3, 100)},
        )
        sql = (
            "SELECT count(*) AS n FROM ls INNER JOIN rs "
            "ON ls.k = rs.k AND ls.g = rs.g"
        )
        _assert_identical(optimized, naive, sql)

"""Tests for the AQP rewriter, the answer rewriter and the accuracy contract."""

import math

import numpy as np
import pytest

from repro.core.answer import ApproximateResult
from repro.core.hac import AccuracyContract
from repro.core.query_info import analyze
from repro.core.rewriter import AqpRewriter
from repro.core.sample_planner import SamplePlan
from repro.errors import RewriteError
from repro.sampling.params import SampleInfo
from repro.sqlengine.parser import parse_select
from repro.sqlengine.resultset import ResultSet


def sample_info(table="orders", sample_type="uniform", columns=(), b=100):
    return SampleInfo(
        original_table=table,
        sample_table=f"{table}_sample",
        sample_type=sample_type,
        columns=columns,
        ratio=0.01,
        original_rows=1_000_000,
        sample_rows=10_000,
        subsample_count=b,
    )


def plan_for(*infos):
    return SamplePlan(assignments={info.original_table: info for info in infos}, score=1.0)


def per_subsample_rows(columns: dict) -> ResultSet:
    """A backend result of the per-(group, sid) statement, built by hand."""
    return ResultSet(list(columns), [np.asarray(values) for values in columns.values()])


class TestRewriterSqlShape:
    def test_flat_rewrite_structure(self):
        statement = parse_select(
            "SELECT city, count(*) AS c, sum(price) AS s, avg(price) AS a "
            "FROM orders WHERE price > 0 GROUP BY city ORDER BY city"
        )
        output = AqpRewriter().rewrite(statement, analyze(statement), plan_for(sample_info()))
        sql = output.statement.to_sql()
        # The one statement the backend runs scans the sample table and
        # groups by the subsample id, which it does not select: the fold
        # never reads it.
        assert "orders_sample" in sql
        assert "vdb_sid" in output.statement.group_by[-1].to_sql()
        assert all(
            item.output_name(position) != "vdb_sid"
            and "vdb_sid" not in item.expression.to_sql()
            for position, item in enumerate(output.statement.select_items)
        )
        assert "vdb_sampling_prob" in sql
        # No second SQL level: no derived table, no stddev or sqrt of its own.
        assert "vdb_inner" not in sql and "stddev" not in sql and "sqrt" not in sql
        # The fold reports one error column per aggregate.
        assert output.estimate_columns == {"c": "c_err", "s": "s_err", "a": "a_err"}
        assert output.group_columns == ["city"]
        rows = per_subsample_rows(
            {
                "vdb_g0": np.array(["nyc", "nyc", "nyc", "sf"], dtype=object),
                "vdb_sub_size": [2.0, 3.0, 5.0, 4.0],
                "vdb_val_0": [200.0, 300.0, 500.0, 400.0],
                "vdb_val_1": [20.0, 60.0, 70.0, 8.0],
                "vdb_val_2": [20.0, 60.0, 70.0, 8.0],
                "vdb_den_2": [200.0, 300.0, 500.0, 400.0],
            }
        )
        answer = output.fold.apply(rows)
        assert answer.column_names == ["city", "c", "c_err", "s", "s_err", "a", "a_err"]
        assert list(answer.column("city")) == ["nyc", "sf"]
        assert list(answer.column("c")) == [1000.0, 400.0]
        # The Appendix G combination: b * stddev(v) * sqrt(avg(sub)) / sqrt(sum(sub)).
        factor = np.sqrt(np.mean([2.0, 3.0, 5.0])) / np.sqrt(10.0)
        expected = 100 * np.std([20.0, 60.0, 70.0], ddof=1) * factor
        assert answer.column("s_err")[0] == pytest.approx(expected)
        assert answer.column("a")[0] == pytest.approx(150.0 / 1000.0)
        ratios = [20.0 / 200.0, 60.0 / 300.0, 70.0 / 500.0]
        assert answer.column("a_err")[0] == pytest.approx(np.std(ratios, ddof=1) * factor)
        # One subsample gives no spread: the error is NULL, not 0.
        assert np.isnan(answer.column("c_err")[1])

    def test_order_limit_and_having_applied_by_the_fold(self):
        statement = parse_select(
            "SELECT city, count(*) AS c FROM orders GROUP BY city "
            "HAVING count(*) > 10 ORDER BY c DESC LIMIT 3"
        )
        output = AqpRewriter().rewrite(statement, analyze(statement), plan_for(sample_info()))
        # The backend's statement has no tail: the fold applies it.
        emitted = output.statement
        assert emitted.having is None and not emitted.order_by
        assert emitted.limit is None and emitted.offset is None
        cities = ["a", "b", "c", "d", "e", "f"]
        rows = per_subsample_rows(
            {
                "vdb_g0": np.array([city for city in cities for _ in range(2)], dtype=object),
                "vdb_sub_size": np.ones(12),
                # Per city, two subsamples whose estimates sum to 4, 30, 8, 20, 50, 11.
                "vdb_val_0": [2, 2, 10, 20, 4, 4, 10, 10, 25, 25, 5, 6],
            }
        )
        answer = output.fold.apply(rows)
        # HAVING drops a and c, ORDER BY c DESC ranks e, b, d, f, LIMIT 3 keeps three.
        assert answer.column_names == ["city", "c", "c_err"]
        assert list(answer.column("city")) == ["e", "b", "d"]
        assert list(answer.column("c")) == [50.0, 30.0, 20.0]

    def test_errors_can_be_disabled(self):
        statement = parse_select("SELECT count(*) AS c FROM orders")
        output = AqpRewriter(include_errors=False).rewrite(
            statement, analyze(statement), plan_for(sample_info())
        )
        assert output.estimate_columns == {"c": None}
        assert "stddev" not in output.statement.to_sql()

    def test_join_rewrite_combines_probabilities_and_sids(self):
        statement = parse_select(
            "SELECT count(*) AS c FROM orders o INNER JOIN items i ON o.order_id = i.order_id"
        )
        orders = sample_info("orders", "hashed", ("order_id",))
        items = sample_info("items", "hashed", ("order_id",))
        output = AqpRewriter().rewrite(statement, analyze(statement), plan_for(orders, items))
        sql = output.statement.to_sql()
        # Joint inclusion probability is the product of the two probabilities.
        assert sql.count("vdb_sampling_prob") >= 2
        # The h(i, j) combination uses sqrt(b) = 10 buckets.
        assert "floor" in sql and "10" in sql

    def test_join_rewrite_requires_perfect_square_subsample_count(self):
        statement = parse_select(
            "SELECT count(*) AS c FROM orders o INNER JOIN items i ON o.order_id = i.order_id"
        )
        orders = sample_info("orders", "hashed", ("order_id",), b=50)
        items = sample_info("items", "hashed", ("order_id",), b=50)
        with pytest.raises(RewriteError):
            AqpRewriter().rewrite(statement, analyze(statement), plan_for(orders, items))

    def test_nested_rewrite_builds_variational_derived_table(self):
        statement = parse_select(
            "SELECT avg(sales) AS avg_sales FROM "
            "(SELECT city, sum(price) AS sales FROM orders GROUP BY city) AS t"
        )
        output = AqpRewriter().rewrite(statement, analyze(statement), plan_for(sample_info()))
        sql = output.statement.to_sql()
        # The derived table is grouped by (city, sid) in a single scan.
        assert "vdb_sid" in sql
        assert sql.count("GROUP BY") == 2
        assert "vdb_inner" not in sql and "stddev" not in sql and "sqrt" not in sql
        # The variational table selects its sid: the emitted statement
        # groups on it, and the fold combines its rows.
        variational = output.statement.from_relation.query
        names = [item.output_name(i) for i, item in enumerate(variational.select_items)]
        assert "vdb_sid" in names
        assert "t.vdb_sid" in output.statement.group_by[-1].to_sql()
        assert output.estimate_columns == {"avg_sales": "avg_sales_err"}
        rows = per_subsample_rows(
            {"vdb_sub_size": [3.0, 1.0], "vdb_val_0": [10.0, 30.0], "vdb_den_0": [2.0, 1.0]}
        )
        answer = output.fold.apply(rows)
        assert answer.column_names == ["avg_sales", "avg_sales_err"]
        assert answer.column("avg_sales")[0] == pytest.approx(40.0 / 3.0)
        factor = np.sqrt(2.0) / np.sqrt(4.0)
        assert answer.column("avg_sales_err")[0] == pytest.approx(
            np.std([5.0, 30.0], ddof=1) * factor
        )

    def test_plan_without_samples_rejected(self):
        statement = parse_select("SELECT count(*) AS c FROM orders")
        empty_plan = SamplePlan(assignments={"orders": None})
        with pytest.raises(RewriteError):
            AqpRewriter().rewrite(statement, analyze(statement), empty_plan)

    def test_count_distinct_rewrite_scales_by_hash_ratio(self):
        statement = parse_select("SELECT count(DISTINCT order_id) AS d FROM orders")
        info = sample_info("orders", "hashed", ("order_id",))
        output = AqpRewriter().rewrite_count_distinct(
            statement, analyze(statement), plan_for(info)
        )
        # The backend only counts; the fold divides by the sample's ratio
        # (10,000 of 1,000,000 rows) and adds the binomial error.
        assert output.statement.to_sql() == (
            "SELECT count(DISTINCT order_id) AS vdb_val_0 FROM orders_sample AS orders"
        )
        assert output.estimate_columns == {"d": "d_err"}
        answer = output.fold.apply(per_subsample_rows({"vdb_val_0": [250]}))
        assert answer.column("d").tolist() == [250 / 0.01]
        assert answer.column("d_err").tolist() == [math.sqrt(250 * 0.99) / 0.01]


class TestRewrittenQueryCorrectness:
    """Execute rewritten SQL against the engine and compare with exact answers."""

    @pytest.fixture()
    def prepared(self, verdict):
        return verdict

    def _compare(self, verdict, sql, rel=0.15):
        exact = verdict.execute_exact(sql)
        approx = verdict.sql(sql)
        assert not approx.is_exact, approx.plan_description
        exact_row = exact.fetchall()[0]
        approx_row = approx.fetchall()[0]
        for exact_value, approx_value in zip(exact_row, approx_row):
            if isinstance(exact_value, str):
                assert exact_value == approx_value
            elif float(exact_value) != 0:
                assert abs(float(approx_value) - float(exact_value)) / abs(float(exact_value)) < rel

    def test_global_count_sum_avg(self, prepared):
        self._compare(
            prepared,
            "SELECT count(*) AS c, sum(price) AS s, avg(price) AS a FROM orders WHERE price > 0",
        )

    def test_grouped_aggregates(self, prepared):
        sql = "SELECT city, count(*) AS c, avg(price) AS a FROM orders GROUP BY city ORDER BY city"
        exact = prepared.execute_exact(sql)
        approx = prepared.sql(sql)
        exact_by_city = {row[0]: row for row in exact.rows()}
        for row in approx.fetchall():
            exact_row = exact_by_city[row[0]]
            assert abs(row[1] - exact_row[1]) / exact_row[1] < 0.2
            assert abs(row[2] - exact_row[2]) / abs(exact_row[2]) < 0.2

    def test_universe_join(self, prepared):
        self._compare(
            prepared,
            "SELECT count(*) AS c, sum(i.amount) AS s FROM orders o "
            "INNER JOIN items i ON o.order_id = i.order_id",
            rel=0.35,
        )

    def test_nested_aggregate(self, prepared):
        self._compare(
            prepared,
            "SELECT avg(sales) AS avg_sales FROM "
            "(SELECT city, sum(price) AS sales FROM orders GROUP BY city) AS t",
            rel=0.2,
        )

    def test_error_columns_are_positive_and_calibrated(self, prepared):
        sql = "SELECT city, count(*) AS c FROM orders GROUP BY city ORDER BY city"
        exact = prepared.execute_exact(sql)
        approx = prepared.sql(sql)
        exact_by_city = {row[0]: row[1] for row in exact.rows()}
        errors = approx.standard_errors("c")
        estimates = approx.column("c")
        cities = approx.column("city")
        assert np.all(errors > 0)
        for city, estimate, error in zip(cities, estimates, errors):
            # The true value should be within 5 standard errors essentially always.
            assert abs(exact_by_city[city] - estimate) < 5 * error


class TestApproximateResultAndMerge:
    def _result(self):
        raw = ResultSet(
            ["city", "c", "c_err"],
            [
                np.array(["a", "b"], dtype=object),
                np.array([100.0, 200.0]),
                np.array([5.0, 8.0]),
            ],
        )
        return ApproximateResult(
            raw,
            group_columns=["city"],
            estimate_columns={"c": "c_err"},
            confidence=0.95,
        )

    def test_error_columns_hidden_by_default(self):
        result = self._result()
        assert result.column_names() == ["city", "c"]
        assert result.column_names(include_errors=True) == ["city", "c", "c_err"]
        assert result.fetchall() == [("a", 100.0), ("b", 200.0)]

    def test_confidence_interval_and_relative_errors(self):
        result = self._result()
        interval = result.confidence_interval("c", row=0)
        assert interval.lower < 100.0 < interval.upper
        assert interval.half_width == pytest.approx(1.96 * 5.0, rel=0.01)
        relative = result.relative_errors("c")
        assert relative[0] == pytest.approx(1.96 * 5.0 / 100.0, rel=0.01)
        assert result.max_relative_error() == pytest.approx(relative.max())

    def test_exact_result_reports_zero_error(self):
        raw = ResultSet(["c"], [np.array([10.0])])
        result = ApproximateResult(raw, is_exact=True)
        assert result.max_relative_error() == 0.0
        assert result.standard_errors("c").tolist() == [0.0]

    def test_scalar_accessor(self):
        raw = ResultSet(["c", "c_err"], [np.array([10.0]), np.array([1.0])])
        result = ApproximateResult(raw, estimate_columns={"c": "c_err"})
        assert result.scalar() == 10.0


class TestFoldStitchesParts:
    """One fold makes the mean-like, count-distinct and min/max parts one answer."""

    def _mixed(self, sql):
        statement = parse_select(sql)
        info = sample_info("orders", "hashed", ("order_id",))
        return AqpRewriter().rewrite(statement, analyze(statement), plan_for(info))

    def test_parts_align_on_the_key_codec_and_missing_groups_read_null(self):
        output = self._mixed(
            "SELECT city, avg(price) AS a, count(DISTINCT order_id) AS d, max(price) AS m "
            "FROM orders GROUP BY city"
        )
        assert output.fold.parts == ["mean_like", "count_distinct", "extreme"]
        assert [part.having or part.order_by or part.limit for part in output.parts] == [
            None, None, None
        ]
        cities = np.array([None, "None", "a"], dtype=object)
        mean_rows = per_subsample_rows(
            {
                "vdb_g0": cities,
                "vdb_sub_size": [1.0, 1.0, 1.0],
                "vdb_val_0": [1.0, 2.0, 3.0],
                "vdb_den_0": [1.0, 1.0, 1.0],
            }
        )
        # The other parts list their groups in another order, and "a" has no
        # count-distinct row.
        distinct_rows = per_subsample_rows(
            {"vdb_g0": np.array(["None", None], dtype=object), "vdb_val_1": [20, 10]}
        )
        extreme_rows = per_subsample_rows(
            {"vdb_g0": np.array(["a", "None", None], dtype=object), "vdb_val_2": [7.5, 6.5, 5.5]}
        )
        answer = output.fold.apply(mean_rows, distinct_rows, extreme_rows)
        assert answer.column_names == ["city", "a", "a_err", "d", "d_err", "m"]
        assert list(answer.column("city")) == [None, "None", "a"]
        assert answer.column("d").tolist()[:2] == [10 / 0.01, 20 / 0.01]
        assert np.isnan(answer.column("d")[2]) and np.isnan(answer.column("d_err")[2])
        assert answer.column("m").dtype == np.float64
        assert answer.column("m").tolist() == [5.5, 6.5, 7.5]

    def test_an_int_key_meets_the_same_float_key(self):
        output = self._mixed("SELECT qty, avg(price) AS a, min(price) AS m FROM orders GROUP BY qty")
        mean_rows = per_subsample_rows(
            {"vdb_g0": [1, 2], "vdb_sub_size": [1.0, 1.0], "vdb_val_0": [1.0, 2.0],
             "vdb_den_0": [1.0, 1.0]}
        )
        extreme_rows = per_subsample_rows({"vdb_g0": [2.0, 1.0], "vdb_val_1": [4, 3]})
        answer = output.fold.apply(mean_rows, extreme_rows)
        assert answer.column("m").tolist() == [3, 4]
        assert answer.column("m").dtype == np.int64

    def test_ungrouped_parts_are_one_row(self):
        output = self._mixed(
            "SELECT count(*) AS c, max(price) / avg(price) AS spread FROM orders"
        )
        mean_rows = per_subsample_rows(
            {"vdb_sub_size": [2.0, 2.0], "vdb_val_0": [1.0, 1.0], "vdb_val_2": [4.0, 6.0],
             "vdb_den_2": [2.0, 2.0]}
        )
        extreme_rows = per_subsample_rows({"vdb_val_1": [10.0]})
        answer = output.fold.apply(mean_rows, extreme_rows)
        assert answer.column_names == ["c", "c_err", "spread"]
        assert answer.column("spread").tolist() == [4.0]
        # No extreme row (an empty backend answer) reads NULL.
        empty = per_subsample_rows({"vdb_val_1": np.zeros(0)})
        assert np.isnan(output.fold.apply(mean_rows, empty).column("spread")[0])

    def test_the_tail_runs_over_every_kind(self):
        output = self._mixed(
            "SELECT city, avg(price) AS a FROM orders GROUP BY city "
            "HAVING count(DISTINCT order_id) > 1500 ORDER BY max(price) DESC"
        )
        assert output.estimate_columns == {"a": "a_err"}
        mean_rows = per_subsample_rows(
            {"vdb_g0": np.array(["x", "y", "z"], dtype=object), "vdb_sub_size": [1.0] * 3,
             "vdb_val_0": [1.0, 2.0, 3.0], "vdb_den_0": [1.0] * 3}
        )
        distinct_rows = per_subsample_rows(
            {"vdb_g0": np.array(["x", "y", "z"], dtype=object), "vdb_val_1": [10, 20, 30]}
        )
        extreme_rows = per_subsample_rows(
            {"vdb_g0": np.array(["x", "y", "z"], dtype=object), "vdb_val_2": [5.0, 6.0, 9.0]}
        )
        answer = output.fold.apply(mean_rows, distinct_rows, extreme_rows)
        assert answer.column_names == ["city", "a", "a_err"]
        assert list(answer.column("city")) == ["z", "y"]


class TestAccuracyContract:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccuracyContract(min_accuracy=1.5)
        with pytest.raises(ValueError):
            AccuracyContract(min_accuracy=0.9, confidence=0.0)

    def test_satisfaction(self):
        raw = ResultSet(["c", "c_err"], [np.array([100.0]), np.array([0.5])])
        result = ApproximateResult(raw, estimate_columns={"c": "c_err"})
        assert AccuracyContract(min_accuracy=0.95).is_satisfied_by(result)
        assert not AccuracyContract(min_accuracy=0.999).is_satisfied_by(result)

    def test_exact_results_always_satisfy(self):
        raw = ResultSet(["c"], [np.array([100.0])])
        assert AccuracyContract(0.9999).is_satisfied_by(ApproximateResult(raw, is_exact=True))

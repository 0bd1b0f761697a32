"""Tests for the workload generators, the 33 benchmark queries and the baselines."""

import numpy as np
import pytest

from repro.api.session import VerdictSession
from repro.baselines import (
    IntegratedAqpEngine,
    exact_count_distinct,
    exact_median,
    native_count_distinct,
    native_median,
)
from repro.connectors import BuiltinConnector
from repro.core.sample_planner import PlannerConfig
from repro.sampling.params import SampleSpec
from repro.workloads import instacart, synthetic, tpch


class TestTpchGenerator:
    def test_schema_and_sizes(self):
        dataset = tpch.generate(scale_factor=0.2, seed=0)
        assert set(dataset.table_names) == {
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        }
        assert dataset.num_rows("lineitem") == 12_000
        assert dataset.num_rows("nation") == 25
        assert dataset.total_rows() > 15_000

    def test_reproducible_with_seed(self):
        first = tpch.generate(scale_factor=0.1, seed=7)
        second = tpch.generate(scale_factor=0.1, seed=7)
        assert np.array_equal(
            first.tables["lineitem"]["l_extendedprice"],
            second.tables["lineitem"]["l_extendedprice"],
        )

    def test_foreign_keys_reference_existing_rows(self):
        dataset = tpch.generate(scale_factor=0.1, seed=0)
        assert dataset.tables["lineitem"]["l_orderkey"].max() < dataset.num_rows("orders")
        assert dataset.tables["orders"]["o_custkey"].max() < dataset.num_rows("customer")

    def test_dates_are_valid_yyyymmdd(self):
        dataset = tpch.generate(scale_factor=0.1, seed=0)
        dates = dataset.tables["lineitem"]["l_shipdate"]
        assert dates.min() >= 19920101 and dates.max() <= 19981231

    def test_query_set_complete(self):
        assert len(tpch.TPCH_QUERIES) == 18
        assert set(tpch.HIGH_CARDINALITY_QUERIES) <= set(tpch.TPCH_QUERIES)


class TestInstacartGenerator:
    def test_schema_and_sizes(self):
        dataset = instacart.generate(scale_factor=0.2, seed=0)
        assert set(dataset.table_names) == {
            "departments", "aisles", "products", "orders", "order_products",
        }
        assert dataset.num_rows("order_products") == 12_000

    def test_department_skew(self):
        dataset = instacart.generate(scale_factor=0.5, seed=0)
        counts = np.bincount(dataset.tables["products"]["department_id"])
        assert counts[0] > counts[-1]

    def test_query_set_complete(self):
        assert len(instacart.INSTACART_QUERIES) == 15


class TestSyntheticGenerator:
    def test_statistics_match_config(self):
        columns = synthetic.generate(num_rows=50_000, value_mean=10.0, value_std=10.0, seed=0)
        stats = synthetic.population_statistics(columns)
        assert stats["mean"] == pytest.approx(10.0, abs=0.2)
        assert stats["std"] == pytest.approx(10.0, abs=0.2)

    def test_selectivity_key_uniform(self):
        columns = synthetic.generate(num_rows=100_000, seed=1)
        assert (columns["selectivity_key"] < 0.25).mean() == pytest.approx(0.25, abs=0.01)

    def test_groundtruth_error_formulas(self):
        assert synthetic.true_count_error(0.5, 10_000, 1_000_000) == pytest.approx(
            1.96 * np.sqrt(0.25 / 10_000) / 0.5
        )
        assert synthetic.true_mean_error(10.0, 10.0, 10_000) == pytest.approx(
            1.96 * 10.0 / np.sqrt(10_000) / 10.0
        )
        assert synthetic.true_count_error(0.0, 100, 1000) == float("inf")


@pytest.fixture(scope="module")
def tpch_verdict():
    dataset = tpch.generate(scale_factor=0.5, seed=1)
    context = VerdictSession(planner_config=PlannerConfig(io_budget=0.15, large_table_rows=5_000))
    for name, columns in dataset.tables.items():
        context.load_table(name, columns)
    context.create_sample("lineitem", SampleSpec("uniform", (), 0.05))
    context.create_sample("lineitem", SampleSpec("hashed", ("l_orderkey",), 0.05))
    context.create_sample("lineitem", SampleSpec("stratified", ("l_returnflag",), 0.05))
    context.create_sample("orders", SampleSpec("hashed", ("o_orderkey",), 0.05))
    context.create_sample("orders", SampleSpec("uniform", (), 0.05))
    context.create_sample("partsupp", SampleSpec("uniform", (), 0.05))
    return context


class TestBenchmarkQueriesRun:
    @pytest.mark.parametrize("name", sorted(tpch.TPCH_QUERIES))
    def test_tpch_query_runs_exact_and_approximate(self, tpch_verdict, name):
        sql = tpch.TPCH_QUERIES[name]
        exact = tpch_verdict.execute_exact(sql)
        approx = tpch_verdict.sql(sql)
        assert approx.num_rows >= 0
        if name in tpch.HIGH_CARDINALITY_QUERIES:
            # The paper reports these as not benefiting from AQP; at this
            # scale some of them may still be approximated, but their accuracy
            # is not meaningful.
            return
        if name == "tq-9":
            # Profit = revenue - cost is a difference of near-cancelling terms;
            # its relative error is not meaningful at this tiny test scale
            # (a handful of sampled rows per (nation, year) group).
            return
        if not approx.is_exact and approx.num_rows and exact.num_rows:
            # The first aggregate column must be in the right ballpark for the
            # groups present in both results.
            from repro.experiments.harness import mean_relative_error

            assert mean_relative_error(exact, approx) < 0.6

    def test_high_cardinality_queries_fall_back_to_exact(self, tpch_verdict):
        for name in ("tq-3", "tq-10"):
            assert tpch_verdict.sql(tpch.TPCH_QUERIES[name]).is_exact


class TestIntegratedBaseline:
    @pytest.fixture()
    def setup(self):
        connector = BuiltinConnector(seed=4)
        dataset = instacart.generate(scale_factor=0.5, seed=3)
        context = VerdictSession(
            connector=connector,
            planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000),
        )
        for name, columns in dataset.tables.items():
            context.load_table(name, columns)
        info = context.create_sample("order_products", SampleSpec("uniform", (), 0.05))
        engine = IntegratedAqpEngine(connector.database)
        engine.register_sample("order_products", info.sample_table, info.effective_ratio)
        return context, engine

    def test_integrated_answers_are_scaled(self, setup):
        context, engine = setup
        exact = float(
            context.execute_exact("SELECT count(*) AS c FROM order_products").scalar()
        )
        approx = float(engine.execute("SELECT count(*) AS c FROM order_products").scalar())
        assert abs(approx - exact) / exact < 0.2

    def test_integrated_join_uses_full_second_relation(self, setup):
        context, engine = setup
        sql = (
            "SELECT order_dow, count(*) AS c FROM order_products "
            "INNER JOIN orders ON order_products.order_id = orders.order_id "
            "GROUP BY order_dow ORDER BY order_dow"
        )
        exact = context.execute_exact(sql)
        approx = engine.execute(sql)
        assert approx.num_rows == exact.num_rows
        assert not engine.supports_sample_joins()

    def test_unsupported_queries_pass_through(self, setup):
        _, engine = setup
        result = engine.execute("SELECT order_id FROM orders ORDER BY order_id LIMIT 3")
        assert result.num_rows == 3

    def test_tables_without_samples_run_exactly(self, setup):
        context, engine = setup
        exact = float(context.execute_exact("SELECT count(*) AS c FROM orders").scalar())
        assert float(engine.execute("SELECT count(*) AS c FROM orders").scalar()) == exact


class TestNativeApproximations:
    @pytest.fixture(scope="class")
    def connector(self):
        connector = BuiltinConnector(seed=5)
        dataset = instacart.generate(scale_factor=0.3, seed=3)
        for name, columns in dataset.tables.items():
            connector.load_table(name, columns)
        return connector

    def test_native_count_distinct_close_to_exact(self, connector):
        exact = exact_count_distinct(connector, "order_products", "order_id")
        native = native_count_distinct(connector, "order_products", "order_id")
        assert abs(native.value - exact.value) / exact.value < 0.1
        assert native.rows_scanned == connector.row_count("order_products")

    def test_native_median_close_to_exact(self, connector):
        exact = exact_median(connector, "order_products", "unit_price")
        native = native_median(connector, "order_products", "unit_price")
        assert abs(native.value - exact.value) / abs(exact.value) < 0.05

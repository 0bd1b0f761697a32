"""End-to-end tests of the VerdictSession middleware."""

import pytest

from repro import SampleSpec, VerdictSession
from repro.connectors import SqliteConnector
from repro.core.sample_planner import PlannerConfig
from tests.conftest import build_orders_columns


class TestOfflineStage:
    def test_samples_are_listed_and_dropped(self, orders_columns):
        context = VerdictSession()
        context.load_table("orders", orders_columns)
        context.create_sample("orders", SampleSpec("uniform", (), 0.05))
        assert len(context.samples("orders")) == 1
        context.drop_samples("orders")
        assert context.samples("orders") == []

    def test_default_policy_via_ratio(self, orders_columns):
        context = VerdictSession()
        context.load_table("orders", orders_columns)
        infos = context.create_samples("orders", ratio=0.05)
        types = {info.sample_type for info in infos}
        assert "uniform" in types

    def test_append_data_keeps_samples_fresh(self):
        context = VerdictSession(
            planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000)
        )
        context.load_table("orders", build_orders_columns(num_rows=20_000, seed=1))
        context.create_sample("orders", SampleSpec("uniform", (), 0.05))
        inserted = context.append_data("orders", build_orders_columns(num_rows=10_000, seed=2))
        assert sum(inserted.values()) > 0
        # The appended rows are visible to both exact and approximate queries.
        assert context.execute_exact("SELECT count(*) AS c FROM orders").scalar() == 30_000
        approx = context.sql("SELECT count(*) AS c FROM orders")
        assert abs(float(approx.column("c")[0]) - 30_000) / 30_000 < 0.15

    def test_appends_stay_out_of_the_statement_cache_and_the_query_log(self):
        # Appended rows travel as columns, never as INSERT text: 300 batches
        # must neither evict the dashboard's SELECTs from the engine's
        # 256-entry statement cache nor show up in queries_issued.
        from repro.connectors.base import LOGGED_DML_PREFIX

        context = VerdictSession(
            planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000)
        )
        context.load_table("orders", build_orders_columns(num_rows=20_000, seed=1))
        context.create_sample("orders", SampleSpec("uniform", (), 0.05))
        context.create_sample("orders", SampleSpec("stratified", ("city",), 0.05))
        dashboard = [
            ("SELECT city, sum(price) AS revenue FROM orders WHERE qty > ? GROUP BY city", (2,)),
            ("SELECT count(*) AS n, avg(price) AS p FROM orders WHERE price < ?", (30.0,)),
            ("SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city", None),
        ]
        for sql, params in dashboard:
            assert not context.execute(sql, params).is_exact
        batch = build_orders_columns(num_rows=40, seed=3)
        for _ in range(300):
            context.append_data("orders", batch)
        assert context.execute_exact("SELECT count(*) AS c FROM orders").scalar() == 32_000
        stats = context.connector.database.stats
        misses = stats["statement_cache_misses"]
        # The data version moved, so the rewrites are recomputed — into the
        # same placeholder-carrying SQL text the engine still holds parsed.
        for sql, params in dashboard:
            assert not context.execute(sql, params).is_exact
        assert stats["statement_cache_misses"] - misses == 0
        cached = context.connector.database._statement_cache
        assert all(sql.lstrip().upper().startswith("SELECT") for sql in cached._entries)
        log = context.connector.queries_issued
        assert not any(sql.startswith("INSERT INTO") for sql in log)
        assert all(
            len(sql) <= LOGGED_DML_PREFIX for sql in log if not sql.startswith("SELECT")
        )

    def test_append_data_is_reproducible_across_sessions(self):
        """Regression: SampleMaintainer drew from an unseeded generator, so
        two runs over the same data and appends disagreed on which appended
        rows entered the samples — and hence on every later answer."""

        def run():
            context = VerdictSession(
                planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000)
            )
            context.load_table("orders", build_orders_columns(num_rows=20_000, seed=1))
            uniform = context.create_sample("orders", SampleSpec("uniform", (), 0.05))
            stratified = context.create_sample(
                "orders", SampleSpec("stratified", ("city",), 0.05)
            )
            for seed in (2, 3):
                context.append_data("orders", build_orders_columns(num_rows=4_000, seed=seed))
            tables = [
                context.execute_exact(f"SELECT * FROM {info.sample_table}").fetchall()
                for info in (uniform, stratified)
            ]
            answer = context.sql(
                "SELECT city, count(*) AS c, sum(price) AS s FROM orders GROUP BY city ORDER BY city"
            )
            assert not answer.is_exact
            return tables, answer.fetchall(include_errors=True)

        assert run() == run()


class TestOnlineStage:
    def test_approximate_answer_close_to_exact(self, verdict):
        approx = verdict.sql("SELECT avg(price) AS a FROM orders")
        exact = verdict.execute_exact("SELECT avg(price) AS a FROM orders").scalar()
        assert not approx.is_exact
        assert abs(float(approx.column("a")[0]) - float(exact)) / abs(float(exact)) < 0.1

    def test_unsupported_query_passes_through(self, verdict):
        result = verdict.sql("SELECT city FROM orders WHERE price > 100 ORDER BY city LIMIT 5")
        assert result.is_exact
        assert "exact execution" in (result.plan_description or "")

    def test_non_select_statement_passes_through(self, verdict):
        result = verdict.sql("CREATE TABLE scratch_pad (x int)")
        assert result.is_exact
        verdict.sql("DROP TABLE scratch_pad")

    def test_no_samples_means_exact(self, orders_columns):
        context = VerdictSession()
        context.load_table("orders", orders_columns)
        result = context.sql("SELECT count(*) AS c FROM orders")
        assert result.is_exact
        assert float(result.column("c")[0]) == len(orders_columns["order_id"])

    def test_high_cardinality_group_by_runs_exactly(self, verdict):
        result = verdict.sql("SELECT order_id, count(*) AS c FROM orders GROUP BY order_id LIMIT 5")
        assert result.is_exact

    def test_comparison_subquery_is_flattened_and_approximated(self, verdict):
        sql = "SELECT count(*) AS c FROM orders WHERE price > (SELECT avg(price) FROM orders)"
        approx = verdict.sql(sql)
        exact = verdict.execute_exact(sql).scalar()
        assert not approx.is_exact
        assert abs(float(approx.column("c")[0]) - float(exact)) / float(exact) < 0.15

    def test_extreme_aggregates_are_exact_in_mixed_query(self, verdict):
        sql = "SELECT city, min(price) AS mn, max(price) AS mx, avg(price) AS a FROM orders GROUP BY city ORDER BY city"
        approx = verdict.sql(sql)
        exact = verdict.execute_exact(sql)
        assert not approx.is_exact
        assert approx.column_names() == ["city", "mn", "mx", "a"]
        exact_by_city = {row[0]: row for row in exact.rows()}
        for row in approx.fetchall():
            assert float(row[1]) == float(exact_by_city[row[0]][1])  # min exact
            assert float(row[2]) == float(exact_by_city[row[0]][2])  # max exact

    def test_count_distinct_uses_hashed_sample(self, verdict):
        approx = verdict.sql("SELECT count(DISTINCT order_id) AS d FROM orders")
        assert not approx.is_exact
        assert "hashed" in (approx.plan_description or "")
        exact = verdict.execute_exact("SELECT count(DISTINCT order_id) AS d FROM orders").scalar()
        assert abs(float(approx.column("d")[0]) - float(exact)) / float(exact) < 0.1

    def test_accuracy_contract_triggers_exact_rerun(self, verdict):
        result = verdict.sql("SELECT sum(price) AS s FROM orders WHERE price > 30", accuracy=0.999)
        # A 5% sample cannot hit 99.9% accuracy on this selective sum, so the
        # contract forces an exact re-run.
        assert result.is_exact

    def test_accuracy_contract_satisfied_keeps_approximation(self, verdict):
        result = verdict.sql("SELECT count(*) AS c FROM orders", accuracy=0.5)
        assert not result.is_exact

    def test_rewritten_sql_is_exposed(self, verdict):
        approx = verdict.sql("SELECT count(*) AS c FROM orders")
        assert approx.rewritten_sql is not None
        assert "vdb_sid" in approx.rewritten_sql
        assert verdict.last_rewritten_sql == approx.rewritten_sql

    def test_include_errors_override(self, verdict):
        without = verdict.sql("SELECT count(*) AS c FROM orders", include_errors=False)
        assert without.estimate_columns == {"c": None}
        assert without.standard_errors("c").tolist() == [0.0]

    def test_having_and_order_preserved(self, verdict):
        sql = (
            "SELECT city, count(*) AS c FROM orders GROUP BY city "
            "HAVING count(*) > 100 ORDER BY c DESC"
        )
        approx = verdict.sql(sql)
        counts = [float(value) for value in approx.column("c")]
        assert counts == sorted(counts, reverse=True)
        assert all(count > 100 for count in counts)


class TestSamplePlanCache:
    """A shape's sample plan is chosen once per backend version."""

    @staticmethod
    def counting_planner(session):
        calls = []
        plan = session.planner.plan

        def counted(*args, **kwargs):
            calls.append(args)
            return plan(*args, **kwargs)

        session.planner.plan = counted
        return calls

    def test_one_plan_per_shape_until_the_backend_changes(self):
        session = VerdictSession(
            planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000)
        )
        session.load_table("orders", build_orders_columns(num_rows=20_000, seed=1))
        session.create_sample("orders", SampleSpec("uniform", (), 0.05))
        calls = self.counting_planner(session)
        first = session.sql("SELECT count(*) AS c FROM orders WHERE price > 3")
        plan = session.last_plan
        # Another literal is the same shape: the cached plan serves it.
        second = session.sql("SELECT count(*) AS c FROM orders WHERE price > 7")
        assert not first.is_exact and not second.is_exact
        assert len(calls) == 1
        assert session.last_plan is plan
        assert second.plan_description == first.plan_description
        # A new sample moves the catalog token: the shape is planned again.
        session.create_sample("orders", SampleSpec("stratified", ("city",), 0.05))
        session.sql("SELECT count(*) AS c FROM orders WHERE price > 7")
        assert len(calls) == 2

    def test_no_feasible_plan_is_cached_too(self, orders_columns):
        session = VerdictSession()
        session.load_table("orders", orders_columns)
        calls = self.counting_planner(session)
        for _ in range(2):
            answer = session.sql("SELECT count(*) AS c FROM orders")
            assert answer.is_exact
            assert "no feasible sample plan" in answer.plan_description
            assert session.last_plan is None
        assert len(calls) == 1


class TestSqliteBackend:
    """The same middleware drives the stdlib sqlite3 engine (universality)."""

    @pytest.fixture(scope="class")
    def sqlite_verdict(self):
        connector = SqliteConnector(seed=9)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=4))
        context = VerdictSession(
            connector=connector,
            planner_config=PlannerConfig(io_budget=0.2, large_table_rows=5_000),
        )
        context.create_sample("orders", SampleSpec("uniform", (), 0.05))
        context.create_sample("orders", SampleSpec("stratified", ("city",), 0.05))
        yield context
        connector.close()

    def test_grouped_query_on_sqlite(self, sqlite_verdict):
        sql = "SELECT city, count(*) AS c, avg(price) AS a FROM orders GROUP BY city ORDER BY city"
        exact = sqlite_verdict.execute_exact(sql)
        approx = sqlite_verdict.sql(sql)
        assert not approx.is_exact
        exact_by_city = {row[0]: row for row in exact.rows()}
        for row in approx.fetchall():
            reference = exact_by_city[row[0]]
            assert abs(float(row[1]) - float(reference[1])) / float(reference[1]) < 0.25
            assert abs(float(row[2]) - float(reference[2])) / abs(float(reference[2])) < 0.25

    def test_global_sum_on_sqlite(self, sqlite_verdict):
        exact = float(sqlite_verdict.execute_exact("SELECT sum(price) AS s FROM orders").scalar())
        approx = sqlite_verdict.sql("SELECT sum(price) AS s FROM orders")
        assert abs(float(approx.column("s")[0]) - exact) / abs(exact) < 0.2

"""Tests for the DB-API-style session layer (repro.api).

Covers the connection/cursor/prepared-statement surface, AST-level parameter
binding below the caches (the acceptance criterion: re-executing a template
with different parameters must hit the statement/plan/rewrite caches),
ExecutionOptions, the unified error hierarchy, elapsed-time accounting on
accuracy-contract fallbacks, lifecycle management and concurrent sessions
over one shared engine.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro import ExecutionOptions, SampleSpec, VerdictSession
from repro.api import PreparedStatement
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.sample_planner import PlannerConfig
from repro.errors import (
    AccuracyContractError,
    BindParameterError,
    ConfigurationError,
    ConnectorError,
    InterfaceError,
    NotSupportedError,
    OperationalError,
    ParseError,
    ProgrammingError,
    ReproError,
    UnsupportedQueryError,
)
from repro.sqlengine import parser, sqlast as ast
from repro.sqlengine.engine import Database
from tests.conftest import build_orders_columns

PLANNER = PlannerConfig(io_budget=0.2, large_table_rows=5_000)


def make_connection(database=None, connector=None, **kwargs):
    kwargs.setdefault("planner_config", PLANNER)
    connection = repro.connect(connector=connector, database=database, **kwargs)
    return connection


@pytest.fixture()
def sampled_connection():
    """A connection with the orders table loaded and a 5% uniform sample."""
    connection = make_connection()
    connection.session.load_table("orders", build_orders_columns())
    connection.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
    yield connection
    connection.close()


GROUPED_TEMPLATE = (
    "SELECT city, count(*) AS n, sum(price) AS total FROM orders "
    "WHERE price > ? AND city <> ? GROUP BY city ORDER BY city"
)


class TestModuleSurface:
    def test_dbapi_module_attributes(self):
        assert repro.apilevel == "2.0"
        assert repro.threadsafety == 2
        assert repro.paramstyle == "qmark"

    def test_dbapi_exceptions_reexported(self):
        assert issubclass(repro.api.ProgrammingError, repro.api.DatabaseError)
        assert issubclass(repro.api.InterfaceError, repro.api.ReproError)


class TestCursorBasics:
    def test_execute_fetch_description_iteration(self, sampled_connection):
        cursor = sampled_connection.cursor()
        returned = cursor.execute(GROUPED_TEMPLATE, (0.0, "nyc"))
        assert returned is cursor
        assert [entry[0] for entry in cursor.description] == ["city", "n", "total"]
        assert cursor.rowcount == 3
        first = cursor.fetchone()
        assert first[0] == "ann arbor"
        rest = cursor.fetchmany(10)
        assert len(rest) == 2
        assert cursor.fetchone() is None
        cursor.execute(GROUPED_TEMPLATE, (0.0, "nyc"))
        assert [row[0] for row in cursor] == ["ann arbor", "chicago", "detroit"]
        assert not cursor.last_result.is_exact

    def test_fetch_before_execute_raises(self, sampled_connection):
        cursor = sampled_connection.cursor()
        with pytest.raises(InterfaceError):
            cursor.fetchall()

    def test_failed_execute_discards_previous_result(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute("SELECT city, count(*) AS c FROM orders GROUP BY city")
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT no_such_column FROM orders")
        # The first statement's rows must not masquerade as the second's.
        with pytest.raises(InterfaceError):
            cursor.fetchall()

    def test_empty_executemany_leaves_no_result(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute("SELECT city FROM orders GROUP BY city")
        cursor.executemany("SELECT city FROM orders WHERE city = ?", [])
        assert cursor.last_result is None and cursor.description is None
        with pytest.raises(InterfaceError):
            cursor.fetchone()

    def test_closed_cursor_and_connection_raise(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.close()
        with pytest.raises(InterfaceError):
            cursor.execute("SELECT count(*) AS c FROM orders")
        other = sampled_connection.cursor()
        sampled_connection.close()
        with pytest.raises(InterfaceError):
            other.execute("SELECT count(*) AS c FROM orders")
        with pytest.raises(InterfaceError):
            sampled_connection.cursor()
        sampled_connection.close()  # idempotent

    def test_connection_context_manager_closes(self):
        with make_connection() as connection:
            connection.session.load_table("t", {"x": np.arange(10)})
            assert connection.execute("SELECT count(*) AS c FROM t").fetchone()[0] == 10
        assert connection.closed
        assert connection.session.closed

    def test_commit_and_rollback_are_noops(self, sampled_connection):
        sampled_connection.commit()
        sampled_connection.rollback()

    def test_non_select_statement_rowcount(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute("CREATE TABLE scratch (x int)")
        assert cursor.rowcount == -1
        assert cursor.description is None
        cursor.execute("DROP TABLE scratch")


class TestParameterBinding:
    def test_qmark_binding_matches_literals(self, sampled_connection):
        cursor = sampled_connection.cursor()
        bound = cursor.execute(GROUPED_TEMPLATE, (12.5, "detroit")).fetchall()
        literal = cursor.execute(
            "SELECT city, count(*) AS n, sum(price) AS total FROM orders "
            "WHERE price > 12.5 AND city <> 'detroit' GROUP BY city ORDER BY city"
        ).fetchall()
        assert bound == literal

    def test_named_binding(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute(
            "SELECT count(*) AS c FROM orders WHERE city = :city AND price > :floor",
            {"city": "chicago", "floor": 5.0},
        )
        named = cursor.fetchone()[0]
        cursor.execute(
            "SELECT count(*) AS c FROM orders WHERE city = 'chicago' AND price > 5.0"
        )
        assert named == cursor.fetchone()[0]

    def test_parameter_errors(self, sampled_connection):
        cursor = sampled_connection.cursor()
        template = "SELECT count(*) AS c FROM orders WHERE price > ?"
        with pytest.raises(BindParameterError):
            cursor.execute(template)  # missing params
        with pytest.raises(BindParameterError):
            cursor.execute(template, (1.0, 2.0))  # too many
        with pytest.raises(BindParameterError):
            cursor.execute(template, {"p0": 1.0})  # mapping for qmark
        with pytest.raises(BindParameterError):
            cursor.execute(
                "SELECT count(*) AS c FROM orders WHERE city = :city", ("x",)
            )  # sequence for named
        with pytest.raises(BindParameterError):
            cursor.execute(
                "SELECT count(*) AS c FROM orders WHERE city = :city", {"town": "x"}
            )  # wrong name
        with pytest.raises(BindParameterError):
            cursor.execute("SELECT count(*) AS c FROM orders", (1,))  # no placeholders
        with pytest.raises(BindParameterError):
            cursor.execute(
                "SELECT count(*) AS c FROM orders WHERE price > ? AND city = :c",
                (1.0,),
            )  # mixed styles
        with pytest.raises(BindParameterError):
            cursor.execute(template, ([1, 2, 3],))  # unbindable type
        # BindParameterError is a ProgrammingError is a ReproError.
        assert issubclass(BindParameterError, ProgrammingError)
        assert issubclass(BindParameterError, ReproError)

    def test_engine_level_positional_params(self, database):
        result = database.execute(
            "SELECT count(*) AS c FROM orders WHERE price > ?", (30.0,)
        )
        expected = database.execute(
            "SELECT count(*) AS c FROM orders WHERE price > 30.0"
        )
        assert result.equals(expected)

    def test_engine_unbound_placeholder_raises(self, database):
        with pytest.raises(BindParameterError):
            database.execute("SELECT count(*) AS c FROM orders WHERE price > ?")

    def test_placeholder_parses_and_renders(self):
        statement = parser.parse("SELECT a FROM t WHERE a > ? AND b = :name")
        placeholders = [
            node
            for node in statement.where.walk()
            if isinstance(node, ast.Placeholder)
        ]
        assert len(placeholders) == 2
        # Positional placeholders are canonically named at parse time, so
        # every placeholder renders distinctly.
        assert statement.where.to_sql() == "((a > :p0) AND (b = :name))"

    def test_distinct_positional_params_in_aggregates_stay_distinct(self):
        """Regression: two '?' in different aggregates must not be conflated
        by the executor's rendered-SQL aggregate keying."""
        engine = Database(seed=0)
        engine.register_table("t", {"price": np.array([10.0, 20.0, 30.0])})
        result = engine.execute(
            "SELECT sum(price + ?) AS a, sum(price + ?) AS b FROM t", (0, 100)
        )
        assert result.fetchall() == [(60.0, 360.0)]

    def test_sqlite_backend_binds_params(self):
        connection = make_connection(connector=SqliteConnector())
        connection.session.load_table(
            "orders", build_orders_columns(num_rows=4_000, seed=5)
        )
        connection.session.create_sample("orders", SampleSpec("uniform", (), 0.1))
        cursor = connection.cursor()
        cursor.execute(
            "SELECT count(*) AS c FROM orders WHERE price > ?", (10.0,)
        )
        approximate = float(cursor.fetchone()[0])
        exact = float(
            connection.session.execute_exact(
                "SELECT count(*) AS c FROM orders WHERE price > 10.0"
            ).scalar()
        )
        assert exact > 0
        assert abs(approximate - exact) / exact < 0.3
        connection.close()


class TestCacheReuse:
    def test_reexecution_hits_statement_plan_and_rewrite_caches(self, sampled_connection):
        """Acceptance criterion: same template + new params => no re-parse/re-plan."""
        cursor = sampled_connection.cursor()
        cursor.execute(GROUPED_TEMPLATE, (10.0, "nyc"))
        stats = sampled_connection.session.connector.database.stats
        before = dict(stats)
        cursor.execute(GROUPED_TEMPLATE, (25.0, "chicago"))
        assert not cursor.last_result.is_exact
        delta = {key: stats[key] - before.get(key, 0) for key in stats}
        assert delta["statement_cache_hits"] >= 1
        assert delta["plan_cache_hits"] >= 1
        assert delta["rewrite_cache_hits"] == 1
        assert delta.get("statement_cache_misses", 0) == 0
        assert delta.get("plan_cache_misses", 0) == 0
        assert delta.get("rewrite_cache_misses", 0) == 0

    def test_distinct_parameters_produce_distinct_answers(self, sampled_connection):
        cursor = sampled_connection.cursor()
        low = cursor.execute(GROUPED_TEMPLATE, (0.0, "nyc")).fetchall()
        high = cursor.execute(GROUPED_TEMPLATE, (25.0, "nyc")).fetchall()
        assert sum(row[1] for row in low) > sum(row[1] for row in high)

    def test_prepared_statement_reuse(self, sampled_connection):
        prepared = sampled_connection.prepare(GROUPED_TEMPLATE)
        assert prepared.param_count == 2
        results = prepared.executemany([(0.0, "nyc"), (20.0, "detroit")])
        assert len(results) == 2
        assert all(not result.is_exact for result in results)
        assert isinstance(prepared, PreparedStatement)

    def test_executemany_insert(self):
        connection = make_connection()
        connection.session.load_table("kv", {"k": np.arange(3), "v": np.arange(3.0)})
        cursor = connection.cursor()
        cursor.executemany(
            "INSERT INTO kv (k, v) VALUES (?, ?)", [(10, 1.5), (11, 2.5), (12, 3.5)]
        )
        cursor.execute("SELECT count(*) AS c, sum(v) AS s FROM kv")
        count, total = cursor.fetchone()
        assert count == 6
        assert total == pytest.approx(0.0 + 1.0 + 2.0 + 1.5 + 2.5 + 3.5)
        connection.close()


class TestExecutionOptions:
    def test_exact_mode(self, sampled_connection):
        cursor = sampled_connection.cursor(options=ExecutionOptions(mode="exact"))
        cursor.execute("SELECT count(*) AS c FROM orders")
        assert cursor.last_result.is_exact
        assert cursor.fetchone()[0] == len(build_orders_columns()["order_id"])

    def test_per_call_options_override_cursor_options(self, sampled_connection):
        cursor = sampled_connection.cursor(options=ExecutionOptions(mode="exact"))
        cursor.execute(
            "SELECT count(*) AS c FROM orders", options=ExecutionOptions()
        )
        assert not cursor.last_result.is_exact

    def test_confidence_override(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute(
            "SELECT count(*) AS c FROM orders",
            options=ExecutionOptions(confidence=0.5),
        )
        assert cursor.last_result.confidence == 0.5

    def test_accuracy_rerun_is_default(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute(
            "SELECT sum(price) AS s FROM orders WHERE price > 30",
            options=ExecutionOptions(accuracy=0.999),
        )
        assert cursor.last_result.is_exact

    def test_accuracy_raise(self, sampled_connection):
        cursor = sampled_connection.cursor()
        with pytest.raises(AccuracyContractError) as excinfo:
            cursor.execute(
                "SELECT sum(price) AS s FROM orders WHERE price > 30",
                options=ExecutionOptions(accuracy=0.999, on_contract_violation="raise"),
            )
        assert excinfo.value.estimated_error > excinfo.value.required_error

    def test_accuracy_keep(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute(
            "SELECT sum(price) AS s FROM orders WHERE price > 30",
            options=ExecutionOptions(accuracy=0.999, on_contract_violation="keep"),
        )
        assert not cursor.last_result.is_exact
        assert "approximate answer kept" in cursor.last_result.plan_description

    def test_time_budget_skips_exact_rerun(self):
        connector = BuiltinConnector(fixed_overhead_seconds=0.02)
        connection = make_connection(connector=connector)
        connection.session.load_table("orders", build_orders_columns(num_rows=20_000))
        connection.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
        cursor = connection.cursor()
        cursor.execute(
            "SELECT sum(price) AS s FROM orders WHERE price > 30",
            options=ExecutionOptions(accuracy=0.999, time_budget_seconds=0.01),
        )
        # The approximate attempt alone exceeded the budget, so the contract
        # fallback keeps the approximate answer instead of re-running exactly.
        assert not cursor.last_result.is_exact
        assert "approximate answer kept" in cursor.last_result.plan_description
        connection.close()

    def test_sample_hint(self, sampled_connection):
        session = sampled_connection.session
        info = session.samples("orders")[0]
        cursor = sampled_connection.cursor()
        cursor.execute(
            "SELECT count(*) AS c FROM orders",
            options=ExecutionOptions(sample_hint=info.sample_table),
        )
        assert not cursor.last_result.is_exact
        assert info.sample_table in (session.last_rewritten_sql or "")
        cursor.execute(
            "SELECT count(*) AS c FROM orders",
            options=ExecutionOptions(sample_hint="no_such_sample"),
        )
        assert cursor.last_result.is_exact
        assert "no_such_sample" in cursor.last_result.plan_description

    def test_invalid_options_raise_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(mode="bogus")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(accuracy=1.5)
        with pytest.raises(ConfigurationError):
            ExecutionOptions(on_contract_violation="retry")
        with pytest.raises(ConfigurationError):
            ExecutionOptions(time_budget_seconds=0)
        with pytest.raises(ConfigurationError):
            ExecutionOptions(accuracy=0.9, include_errors=False)

    def test_merged_ignores_none(self):
        base = ExecutionOptions(accuracy=0.9)
        assert base.merged(accuracy=None) is base
        assert base.merged(accuracy=0.5).accuracy == 0.5


class TestErrorModel:
    def test_parse_error_is_programming_error(self, sampled_connection):
        cursor = sampled_connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELEKT 1")

    def test_unknown_column_is_programming_error(self, sampled_connection):
        cursor = sampled_connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT no_such_column FROM orders")

    def test_connector_error_is_operational(self):
        assert issubclass(ConnectorError, OperationalError)

    def test_unsupported_query_error_is_not_supported(self):
        assert issubclass(UnsupportedQueryError, NotSupportedError)

    def test_configuration_error_is_value_error_and_repro_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SampleSpec("bogus", (), 0.1)
        assert isinstance(excinfo.value, ValueError)
        assert isinstance(excinfo.value, ReproError)

    def test_parse_error_subclasses(self):
        assert issubclass(ParseError, ProgrammingError)


class TestElapsedAccounting:
    def test_contract_fallback_elapsed_includes_approximate_attempt(self):
        """Regression (ISSUE 5 satellite): the reported elapsed_seconds of an
        accuracy-contract fallback must cover the whole call — the failed
        approximate attempt plus the exact re-run — not just the re-run."""
        overhead = 0.03
        connector = BuiltinConnector(fixed_overhead_seconds=overhead)
        context = VerdictSession(connector=connector, planner_config=PLANNER)
        context.load_table("orders", build_orders_columns(num_rows=20_000))
        context.create_sample("orders", SampleSpec("uniform", (), 0.05))
        result = context.sql(
            "SELECT sum(price) AS s FROM orders WHERE price > 30", accuracy=0.999
        )
        assert result.is_exact  # the contract forced the exact re-run
        # approximate attempt (>= 1 query) + exact re-run (1 query): the
        # fixed per-query overhead alone puts the total above 2 * overhead.
        assert result.elapsed_seconds >= 2 * overhead


class TestSessionLifecycle:
    def test_closed_session_refuses_queries_and_the_engine_survives(self, orders_columns):
        engine = Database(seed=0)
        context = VerdictSession(database=engine, planner_config=PLANNER)
        context.load_table("orders", orders_columns)
        context.execute_exact("SELECT count(*) AS c FROM orders WHERE price > 0")
        context.close()
        with pytest.raises(InterfaceError):
            context.sql("SELECT count(*) AS c FROM orders")
        assert engine.execute("SELECT count(*) AS c FROM orders").scalar() == len(
            orders_columns["price"]
        )

    def test_session_as_context_manager(self, orders_columns):
        engine = Database(seed=0)
        with VerdictSession(database=engine, planner_config=PLANNER) as context:
            context.load_table("orders", orders_columns)
            context.execute_exact("SELECT count(*) AS c FROM orders WHERE price > 0")
        assert context.closed

    def test_database_close_is_idempotent_and_the_engine_stays_usable(self, orders_columns):
        with Database(seed=0) as engine:
            engine.register_table("orders", orders_columns)
            first = engine.execute("SELECT count(*) AS c FROM orders")
        engine.close()
        assert engine.execute("SELECT count(*) AS c FROM orders").equals(first)
        context = VerdictSession(database=engine, planner_config=PLANNER)
        assert context.execute_exact("SELECT count(*) AS c FROM orders").equals(first)
        context.close()

    def test_approximate_answers_repeat_and_match_across_engine_modes(self):
        sql = (
            "SELECT region, sum(qty) AS s, count(*) AS n FROM orders "
            "GROUP BY region ORDER BY region"
        )
        answers = []
        for optimize in (True, False):
            context = VerdictSession(database=Database(seed=5, optimize=optimize))
            rng = np.random.default_rng(13)
            context.load_table(
                "orders",
                {"region": rng.integers(0, 8, 20_000), "qty": rng.integers(1, 50, 20_000)},
            )
            context.create_sample("orders", SampleSpec("uniform", (), 0.25))
            approx = context.sql(sql)
            assert not approx.is_exact
            assert list(context.sql(sql).rows()) == list(approx.rows())
            answers.append(list(approx.rows()))
            context.close()
        # The sample and its answers do not depend on the engine's planner.
        assert answers[0] == answers[1]

    def test_sql_accepts_params(self, orders_columns):
        context = VerdictSession(planner_config=PLANNER)
        context.load_table("orders", orders_columns)
        result = context.sql(
            "SELECT count(*) AS c FROM orders WHERE price > ?", params=(30.0,)
        )
        exact = context.execute_exact(
            "SELECT count(*) AS c FROM orders WHERE price > 30.0"
        ).scalar()
        assert float(result.column("c")[0]) == float(exact)


class TestConcurrentSessions:
    def test_interleaved_reads_and_dml_over_shared_engine(self):
        """Two cursors over one shared engine: interleaved reads + DML behind
        a thread barrier; cache invalidation must stay correct."""
        engine = Database(seed=1)
        writer_connection = make_connection(database=engine)
        reader_connection = make_connection(database=engine)
        writer_connection.session.load_table(
            "events", {"x": np.arange(1_000), "w": np.ones(1_000)}
        )

        batches = 8
        rows_per_batch = 50
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []
        observed_counts: list[float] = []

        def writer() -> None:
            try:
                barrier.wait()
                cursor = writer_connection.cursor()
                next_x = 1_000
                for _ in range(batches):
                    cursor.executemany(
                        "INSERT INTO events (x, w) VALUES (?, ?)",
                        [(next_x + i, 1.0) for i in range(rows_per_batch)],
                    )
                    next_x += rows_per_batch
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        def reader() -> None:
            try:
                barrier.wait()
                cursor = reader_connection.cursor()
                for _ in range(3 * batches):
                    cursor.execute(
                        "SELECT count(*) AS c, max(x) AS m FROM events WHERE x >= ?",
                        (0,),
                    )
                    count, maximum = cursor.fetchone()
                    observed_counts.append(float(count))
                    # x values are dense 0..count-1 at every point in time, so
                    # any torn read (stale cache, half-applied append)
                    # breaks this invariant.
                    assert float(maximum) == float(count) - 1.0
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert observed_counts == sorted(observed_counts)  # counts never go backwards

        final = reader_connection.cursor().execute(
            "SELECT count(*) AS c, max(x) AS m FROM events"
        )
        count, maximum = final.fetchone()
        assert count == 1_000 + batches * rows_per_batch
        assert maximum == count - 1
        writer_connection.close()
        reader_connection.close()

    def test_cross_session_sample_and_append_invalidation(self):
        """Session B must notice samples/appends created by session A."""
        engine = Database(seed=2)
        connection_a = make_connection(database=engine)
        connection_b = make_connection(database=engine)
        connection_a.session.load_table("orders", build_orders_columns(num_rows=20_000))

        # B has no samples yet: exact execution.
        cursor_b = connection_b.cursor()
        cursor_b.execute("SELECT count(*) AS c FROM orders")
        assert cursor_b.last_result.is_exact

        # A builds a sample; B's next query must pick it up (B's sample cache
        # is invalidated by the backend version bump).
        connection_a.session.create_sample("orders", SampleSpec("uniform", (), 0.05))
        cursor_b.execute("SELECT count(*) AS c FROM orders")
        assert not cursor_b.last_result.is_exact

        # A appends a batch; B's row-count/rewrite caches must refresh so the
        # estimate tracks the new total.
        connection_a.session.append_data(
            "orders", build_orders_columns(num_rows=10_000, seed=9)
        )
        cursor_b.execute("SELECT count(*) AS c FROM orders")
        estimate = float(cursor_b.fetchone()[0])
        assert abs(estimate - 30_000) / 30_000 < 0.15
        connection_a.close()
        connection_b.close()


class TestConnectRedesign:
    """The redesigned repro.connect(): keyword-only knobs, one engine passthrough."""

    def test_database_kwargs_builds_a_fresh_engine(self):
        connection = repro.connect(database_kwargs={"seed": 3, "optimize": False})
        try:
            connection.session.load_table("t", {"x": np.arange(10, dtype=float)})
            assert connection.execute("SELECT count(*) AS n FROM t").fetchone() == (10,)
        finally:
            connection.close()

    def test_database_kwargs_is_exclusive_with_explicit_backend(self):
        engine = Database(seed=3)
        try:
            with pytest.raises(ConfigurationError):
                repro.connect(database=engine, database_kwargs={"seed": 4})
        finally:
            engine.close()

    def test_pool_kwargs_without_pool_size_are_rejected(self):
        with pytest.raises(ConfigurationError):
            repro.connect(min_size=2)

    def test_options_are_keyword_only(self):
        with pytest.raises(TypeError):
            repro.connect(None, None, ExecutionOptions())  # noqa: B026

    def test_verdict_session_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", DeprecationWarning)
            session = repro.VerdictSession()
        session.close()


class TestHealthReport:
    """One typed HealthReport everywhere."""

    def test_database_health_is_typed(self, database):
        report = database.health()
        assert isinstance(report, repro.HealthReport)
        assert report.ok and report.status == "ok"
        assert report.stats == database.stats

    def test_connection_health_check_returns_report(self):
        connection = repro.connect()
        try:
            report = connection.health_check()
            assert isinstance(report, repro.HealthReport)
            assert "key_index_joins" in report.section("stats")
            assert report.pool is None and report.server is None
        finally:
            connection.close()

    def test_sections_roundtrip_for_the_wire(self, database):
        report = database.health()
        clone = repro.HealthReport.from_sections(report.as_sections())
        assert clone == report

    def test_unknown_section_raises(self, database):
        for name in ("nope", "engine", "circuit"):
            with pytest.raises(KeyError):
                database.health().section(name)


class TestCancelFetchRace:
    """Regression: cancel racing fetchmany left a half-consumed cursor."""

    def test_fetch_after_cancel_raises_interface_error(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute("SELECT order_id FROM orders ORDER BY order_id")
        assert len(cursor.fetchmany(5)) == 5
        # The statement has already completed; the cancel races/arrives late.
        cursor.cancel()
        with pytest.raises(InterfaceError):
            cursor.fetchone()
        with pytest.raises(InterfaceError):
            cursor.fetchmany(3)
        with pytest.raises(InterfaceError):
            cursor.fetchall()
        with pytest.raises(InterfaceError):
            list(cursor)

    def test_new_execute_rearms_a_cancelled_cursor(self, sampled_connection):
        cursor = sampled_connection.cursor()
        cursor.execute("SELECT order_id FROM orders ORDER BY order_id")
        cursor.fetchmany(2)
        cursor.cancel()
        cursor.execute("SELECT count(*) AS n FROM orders", options=ExecutionOptions(mode="exact"))
        assert cursor.fetchone() == (40_000,)
        assert cursor.fetchone() is None

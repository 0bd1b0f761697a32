"""Tests for query analysis, subquery flattening and the sample planner."""

import pytest

from repro.api.binding import iter_statement_expressions
from repro.core.flattener import flatten
from repro.core.query_info import analyze, bind_columns, classify_aggregate
from repro.core.sample_planner import PlannerConfig, SamplePlanner
from repro.sampling.params import SampleInfo
from repro.sqlengine import sqlast as ast
from repro.sqlengine.parser import parse_select


#: The catalog the binder and planner tests bind against.
CATALOG = {
    "orders": ["order_id", "user_id", "city", "price"],
    "items": ["order_id", "item_id", "qty"],
    "t": ["x", "g", "k"],
    "u": ["g", "y", "k"],
    "v": ["z"],
}


def column_refs(statement: ast.SelectStatement) -> list[ast.ColumnRef]:
    """Every column reference of ``statement``, derived tables' included."""
    return [
        node
        for expression in iter_statement_expressions(statement)
        for node in expression.walk()
        if isinstance(node, ast.ColumnRef)
    ]


def analysed(text: str):
    """``text``'s analysis and the binding of its columns against CATALOG."""
    analysis = analyze(parse_select(text))
    return analysis, bind_columns(analysis.statement, CATALOG)


class TestQueryAnalysis:
    def test_supported_group_by_aggregate(self):
        analysis = analyze(parse_select("SELECT city, count(*) c FROM orders GROUP BY city"))
        assert analysis.refusal is None
        assert [a.kind for a in analysis.aggregates] == ["mean_like"]
        (city,) = analysis.statement.group_by
        assert bind_columns(analysis.statement, CATALOG)[id(city)] == "orders"

    def test_aggregate_kinds(self):
        analysis = analyze(
            parse_select(
                "SELECT count(*) c, count(DISTINCT x) d, min(x) m, avg(x) a FROM t"
            )
        )
        kinds = sorted(a.kind for a in analysis.aggregates)
        assert kinds == ["count_distinct", "extreme", "mean_like", "mean_like"]

    def test_no_aggregate_unsupported(self):
        analysis = analyze(parse_select("SELECT city FROM orders"))
        assert analysis.refusal is not None
        assert "no aggregate" in analysis.refusal

    def test_only_extreme_unsupported(self):
        assert analyze(parse_select("SELECT min(x), max(x) FROM t")).refusal is not None

    def test_select_star_unsupported(self):
        assert analyze(parse_select("SELECT * FROM t")).refusal is not None

    def test_distinct_unsupported(self):
        analysis = analyze(parse_select("SELECT DISTINCT count(*) FROM t GROUP BY x"))
        assert analysis.refusal is not None

    def test_non_grouping_plain_column_unsupported(self):
        analysis = analyze(parse_select("SELECT city, count(*) FROM t GROUP BY state"))
        assert analysis.refusal is not None

    def test_unflattened_scalar_subquery_unsupported(self):
        analysis = analyze(
            parse_select("SELECT count(*) FROM t WHERE x > (SELECT avg(x) FROM t)")
        )
        assert analysis.refusal is not None

    def test_nested_aggregate_detected(self):
        analysis = analyze(
            parse_select(
                "SELECT avg(s) FROM (SELECT g, sum(x) AS s FROM t GROUP BY g) AS sub"
            )
        )
        assert analysis.refusal is None
        assert analysis.is_nested_aggregate

    def test_join_tables_listed_and_their_columns_bound(self):
        analysis = analyze(
            parse_select(
                "SELECT count(*) FROM a INNER JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y"
            )
        )
        assert [table.name for table in analysis.base_tables] == ["a", "b", "c"]
        owners = bind_columns(analysis.statement, {})
        assert {
            column.to_sql(): owners.get(id(column)) for column in column_refs(analysis.statement)
        } == {"a.x": "a", "b.x": "b", "b.y": "b", "c.y": "c"}

    def test_classify_aggregate(self):
        assert classify_aggregate(ast.func("count", ast.Star())) == "mean_like"
        assert classify_aggregate(ast.func("count", ast.column("x"), distinct=True)) == "count_distinct"
        assert classify_aggregate(ast.func("max", ast.column("x"))) == "extreme"
        assert classify_aggregate(ast.func("array_agg", ast.column("x"))) == "unsupported"


JOIN_TU = "FROM t INNER JOIN u ON t.k = u.k"


class TestBindColumns:
    @pytest.mark.parametrize(
        ("text", "spelling", "owner"),
        [
            pytest.param(f"SELECT count(*) {JOIN_TU} GROUP BY t.g", "t.g", "t", id="qualified"),
            pytest.param(
                "SELECT count(*) FROM t AS a INNER JOIN u AS b ON a.k = b.k GROUP BY b.y",
                "b.y", "u", id="aliased",
            ),
            pytest.param(
                "SELECT count(*) FROM t AS a INNER JOIN t AS b ON a.k = b.x GROUP BY b.g",
                "b.g", "t", id="self-join-alias",
            ),
            pytest.param(
                "SELECT count(*) FROM t AS a INNER JOIN t AS b ON a.k = b.x GROUP BY g",
                "g", None, id="self-join-unqualified",
            ),
            pytest.param(f"SELECT y, count(*) {JOIN_TU} GROUP BY y", "y", "u", id="unqualified"),
            pytest.param(
                "SELECT count(DISTINCT x) FROM t", "x", "t", id="unqualified-single-table"
            ),
            pytest.param(f"SELECT g, count(*) {JOIN_TU} GROUP BY g", "g", None, id="shared"),
            pytest.param("SELECT count(DISTINCT w) FROM t", "w", None, id="unknown-name"),
            pytest.param(
                "SELECT count(DISTINCT s.x) FROM t", "s.x", None, id="unknown-qualifier"
            ),
            pytest.param(
                "SELECT k, count(*) FROM (SELECT t.k, x FROM t) AS sub "
                "INNER JOIN v ON x = z GROUP BY k",
                "k", None, id="derived-output",
            ),
            pytest.param(
                "SELECT count(*) FROM (SELECT t.k, x FROM t) AS sub "
                "INNER JOIN v ON sub.x = z GROUP BY sub.k",
                "sub.k", None, id="derived-qualifier",
            ),
            pytest.param(
                "SELECT count(*) FROM (SELECT t.k, x FROM t) AS sub "
                "INNER JOIN v ON sub.x = z GROUP BY sub.k",
                "t.k", "t", id="derived-table-scope",
            ),
            pytest.param(
                "SELECT count(*) FROM (SELECT * FROM u) AS sub "
                "INNER JOIN v ON sub.y = z GROUP BY z",
                "z", None, id="derived-star-may-hold-any-name",
            ),
        ],
    )
    def test_owner(self, text, spelling, owner):
        analysis, owners = analysed(text)
        found = [
            column for column in column_refs(analysis.statement) if column.to_sql() == spelling
        ]
        assert found
        assert [owners.get(id(column)) for column in found] == [owner] * len(found)


class TestFlattener:
    def test_correlated_comparison_subquery_becomes_group_by_join(self):
        statement = parse_select(
            "SELECT count(*) FROM order_products t2 "
            "WHERE price > (SELECT avg(price) FROM order_products WHERE product = t2.product)"
        )
        flattened = flatten(statement)
        assert flattened is not statement
        assert isinstance(flattened.from_relation, ast.Join)
        derived = flattened.from_relation.right
        assert isinstance(derived, ast.DerivedTable)
        assert derived.query.group_by  # grouped on the correlation column
        # The predicate now compares against the derived table's column.
        assert "vdb_subquery_value" in flattened.where.to_sql()

    def test_uncorrelated_subquery_becomes_cross_join(self):
        statement = parse_select(
            "SELECT count(*) FROM t WHERE price > (SELECT avg(price) FROM t)"
        )
        flattened = flatten(statement)
        join = flattened.from_relation
        assert isinstance(join, ast.Join)
        assert join.join_type == "CROSS"
        assert analyze(flattened).refusal is None

    def test_statement_without_subquery_unchanged(self):
        statement = parse_select("SELECT count(*) FROM t WHERE price > 10")
        assert flatten(statement) is statement

    def test_flattened_query_produces_same_answer(self, database):
        exact_sql = (
            "SELECT count(*) AS c FROM orders WHERE price > (SELECT avg(price) FROM orders)"
        )
        statement = parse_select(exact_sql)
        flattened = flatten(statement)
        direct = database.execute(exact_sql).scalar()
        via_flatten = database.execute_statement(flattened).scalar()
        assert direct == via_flatten


def make_sample(
    table: str,
    sample_type: str = "uniform",
    columns: tuple = (),
    ratio: float = 0.01,
    original_rows: int = 1_000_000,
    sample_rows: int = 10_000,
) -> SampleInfo:
    return SampleInfo(
        original_table=table,
        sample_table=f"{table}_{sample_type}_{'_'.join(columns) or 'all'}",
        sample_type=sample_type,
        columns=columns,
        ratio=ratio,
        original_rows=original_rows,
        sample_rows=sample_rows,
        subsample_count=100,
    )


class TestSamplePlanner:
    def setup_method(self):
        self.planner = SamplePlanner(PlannerConfig(io_budget=0.02, large_table_rows=100_000))

    def test_single_table_prefers_stratified_covering_group_by(self):
        analysis, owners = analysed("SELECT city, count(*) FROM orders GROUP BY city")
        samples = {
            "orders": [
                make_sample("orders", "uniform"),
                make_sample("orders", "stratified", ("city",)),
            ]
        }
        plan = self.planner.plan(
            analysis, samples, {"orders": 1_000_000}, expected_groups=10, owners=owners
        )
        assert plan is not None
        assert plan.sample_for("orders").sample_type == "stratified"

    def test_join_of_two_samples_requires_universe_samples(self):
        analysis, owners = analysed(
            "SELECT count(*) FROM orders o INNER JOIN items i ON o.order_id = i.order_id"
        )
        samples = {
            "orders": [make_sample("orders", "uniform"), make_sample("orders", "hashed", ("order_id",))],
            "items": [make_sample("items", "uniform"), make_sample("items", "hashed", ("order_id",))],
        }
        rows = {"orders": 1_000_000, "items": 1_000_000}
        plan = self.planner.plan(analysis, samples, rows, expected_groups=1, owners=owners)
        assert plan is not None
        chosen = {plan.sample_for("orders").sample_type, plan.sample_for("items").sample_type}
        # Either a single sampled relation, or both hashed on the join key.
        if len(plan.sampled_tables) == 2:
            assert chosen == {"hashed"}

    def test_mismatched_hash_columns_rejected_for_two_sample_join(self):
        analysis, owners = analysed(
            "SELECT count(*) FROM orders o INNER JOIN items i ON o.order_id = i.order_id"
        )
        samples = {
            "orders": [make_sample("orders", "hashed", ("other_column",))],
            "items": [make_sample("items", "hashed", ("order_id",))],
        }
        plan = self.planner.plan(
            analysis, samples, {"orders": 1_000_000, "items": 1_000_000}, expected_groups=1,
            owners=owners,
        )
        # A plan may still exist (sampling only one side), but never both.
        if plan is not None:
            assert len(plan.sampled_tables) <= 1

    def test_high_cardinality_group_by_declines_aqp(self):
        analysis, owners = analysed("SELECT user_id, count(*) FROM orders GROUP BY user_id")
        samples = {"orders": [make_sample("orders", "uniform", sample_rows=5_000)]}
        plan = self.planner.plan(
            analysis, samples, {"orders": 1_000_000}, expected_groups=200_000, owners=owners
        )
        assert plan is None

    def test_no_samples_means_no_plan(self):
        analysis, owners = analysed("SELECT count(*) FROM orders")
        plan = self.planner.plan(analysis, {"orders": []}, {"orders": 10_000}, 1, owners=owners)
        assert plan is None

    def test_count_distinct_requires_hashed_sample_on_column(self):
        analysis, owners = analysed("SELECT count(DISTINCT order_id) FROM orders")
        hashed = make_sample("orders", "hashed", ("order_id",))
        uniform = make_sample("orders", "uniform")
        plan = self.planner.plan(
            analysis, {"orders": [uniform, hashed]}, {"orders": 1_000_000}, expected_groups=1,
            owners=owners,
        )
        assert plan is not None
        assert plan.sample_for("orders").sample_type == "hashed"

    def test_a_stratified_sample_covers_only_group_keys_bound_to_its_own_table(self):
        analysis = analyze(
            parse_select(
                "SELECT i.city, count(*) AS n "
                "FROM orders o INNER JOIN items i ON o.order_id = i.order_id GROUP BY i.city"
            )
        )
        owners = bind_columns(analysis.statement, {**CATALOG, "items": ["order_id", "city"]})
        uniform = make_sample("orders", "uniform", sample_rows=10_000)
        stratified = make_sample("orders", "stratified", ("city",), sample_rows=8_000)
        rows = {"orders": 1_000_000, "items": 10_000}
        plan = self.planner.plan(
            analysis, {"orders": [uniform, stratified], "items": []}, rows, 10, owners=owners
        )
        # orders' city is not the grouping column, so no advantage lifts the
        # smaller stratified sample above the uniform one.
        assert plan.sample_for("orders") is uniform
        assert not any(note.startswith("stratified sample covers") for note in plan.notes)

    def test_unqualified_count_distinct_needs_a_hashed_sample_on_its_owners_column(self):
        analysis, owners = analysed(
            "SELECT city, count(DISTINCT item_id) AS n "
            "FROM orders o INNER JOIN items i ON o.order_id = i.order_id GROUP BY city"
        )
        rows = {"orders": 1_000_000, "items": 1_000_000}
        samples = {
            "orders": [make_sample("orders", "uniform")],
            "items": [make_sample("items", "hashed", ("order_id",))],
        }
        # Neither sample can scale items' distinct item_id values.
        assert self.planner.plan(analysis, samples, rows, 10, owners=owners) is None
        on_owner = make_sample("items", "hashed", ("item_id",))
        samples["items"].append(on_owner)
        plan = self.planner.plan(analysis, samples, rows, 10, owners=owners)
        assert plan.sampled_tables == [on_owner]

    def test_io_budget_rejects_oversized_uniform_sample(self):
        analysis, owners = analysed("SELECT count(*) FROM orders")
        big = make_sample("orders", "uniform", ratio=0.5, sample_rows=500_000)
        plan = self.planner.plan(
            analysis, {"orders": [big]}, {"orders": 1_000_000}, expected_groups=1, owners=owners
        )
        assert plan is None

    def test_plan_describe_mentions_sample_type(self):
        analysis, owners = analysed("SELECT count(*) FROM orders")
        plan = self.planner.plan(
            analysis,
            {"orders": [make_sample("orders", "uniform")]},
            {"orders": 1_000_000},
            expected_groups=1,
            owners=owners,
        )
        assert "uniform" in plan.describe()
        assert plan.uses_sampling

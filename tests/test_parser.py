"""Tests for the SQL parser and AST rendering."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import ExecutionOptions, SampleSpec
from repro.core.sample_planner import PlannerConfig
from repro.errors import ParseError, ReproError, TokenizeError
from repro.sqlengine import parser, sqlast as ast
from repro.sqlengine.parser import parse, parse_select
from tests.test_autoparam import CORPUS as PARSER_CORPUS


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse_select("SELECT a, b FROM t")
        assert [item.expression.name for item in stmt.select_items] == ["a", "b"]
        assert isinstance(stmt.from_relation, ast.TableRef)
        assert stmt.from_relation.name == "t"

    def test_aliases_with_and_without_as(self):
        stmt = parse_select("SELECT a AS x, b y FROM t")
        assert [item.alias for item in stmt.select_items] == ["x", "y"]

    def test_select_star_and_qualified_star(self):
        stmt = parse_select("SELECT *, t.* FROM t")
        assert isinstance(stmt.select_items[0].expression, ast.Star)
        assert stmt.select_items[1].expression.table == "t"

    def test_where_group_having_order_limit(self):
        stmt = parse_select(
            "SELECT city, count(*) c FROM t WHERE price > 3 GROUP BY city "
            "HAVING count(*) > 10 ORDER BY c DESC LIMIT 5 OFFSET 2"
        )
        assert isinstance(stmt.where, ast.BinaryOp)
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 5 and stmt.offset == 2

    def test_join_with_on_condition(self):
        stmt = parse_select("SELECT * FROM a INNER JOIN b ON a.x = b.x AND a.y = b.y")
        join = stmt.from_relation
        assert isinstance(join, ast.Join)
        assert join.join_type == "INNER"
        assert isinstance(join.condition, ast.BinaryOp)

    def test_multiple_joins_left_deep(self):
        stmt = parse_select("SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y")
        outer = stmt.from_relation
        assert isinstance(outer, ast.Join)
        assert isinstance(outer.left, ast.Join)
        assert isinstance(outer.right, ast.TableRef)

    def test_derived_table_requires_alias(self):
        with pytest.raises(ParseError):
            parse_select("SELECT * FROM (SELECT 1)")

    def test_derived_table(self):
        stmt = parse_select("SELECT s FROM (SELECT sum(x) AS s FROM t) AS sub")
        derived = stmt.from_relation
        assert isinstance(derived, ast.DerivedTable)
        assert derived.alias == "sub"

    def test_distinct_select(self):
        assert parse_select("SELECT DISTINCT a FROM t").distinct

    def test_count_distinct(self):
        stmt = parse_select("SELECT count(DISTINCT user_id) FROM t")
        call = stmt.select_items[0].expression
        assert isinstance(call, ast.FunctionCall)
        assert call.distinct

    @pytest.mark.parametrize("arguments", ["", "a, b"])
    def test_a_distinct_aggregate_takes_exactly_one_argument(self, arguments):
        """As in SQLite: ``count(DISTINCT)`` is not ``count(*)``."""
        with pytest.raises(ParseError, match="must have exactly one argument"):
            parse_select(f"SELECT count(DISTINCT {arguments}) FROM t")
        connection = repro.connect()
        connection.session.load_table("t", {"a": [1, 2, 2], "b": [1, 1, 1]})
        with pytest.raises(ParseError, match="must have exactly one argument"):
            connection.cursor().execute(f"SELECT count(DISTINCT {arguments}) AS n FROM t")
        connection.close()

    def test_window_function(self):
        stmt = parse_select("SELECT sum(count(*)) OVER (PARTITION BY city) FROM t GROUP BY city")
        expr = stmt.select_items[0].expression
        assert isinstance(expr, ast.WindowFunction)
        assert len(expr.partition_by) == 1

    def test_case_expression(self):
        stmt = parse_select("SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t")
        case = stmt.select_items[0].expression
        assert isinstance(case, ast.CaseWhen)
        assert case.else_result is not None

    def test_scalar_subquery_predicate(self):
        stmt = parse_select("SELECT * FROM t WHERE price > (SELECT avg(price) FROM t)")
        assert any(isinstance(node, ast.ScalarSubquery) for node in stmt.where.walk())

    def test_in_between_like_is_null(self):
        stmt = parse_select(
            "SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 1 AND 3 "
            "AND c LIKE 'x%' AND d IS NOT NULL AND e NOT IN (4)"
        )
        kinds = {type(node).__name__ for node in stmt.where.walk()}
        assert {"InList", "Between", "LikePredicate", "IsNull"} <= kinds

    def test_operator_precedence_multiplication_before_addition(self):
        expr = parse_select("SELECT 1 + 2 * 3 FROM t").select_items[0].expression
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_and_binds_tighter_than_or(self):
        expr = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").where
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_cast_becomes_function(self):
        expr = parse_select("SELECT CAST(a AS int) FROM t").select_items[0].expression
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "cast_int"

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse("SELECT 1 FROM t garbage garbage")

    def test_unsupported_statement_raises(self):
        with pytest.raises(ParseError):
            parse("UPDATE t SET a = 1")


class TestDdlDmlParsing:
    def test_create_table_with_columns(self):
        stmt = parse("CREATE TABLE t (a int, b varchar, c decimal(10, 2))")
        assert isinstance(stmt, ast.CreateTableStatement)
        assert [column.name for column in stmt.columns] == ["a", "b", "c"]

    def test_create_table_as_select(self):
        stmt = parse("CREATE TABLE t AS SELECT * FROM s WHERE x > 1")
        assert stmt.as_select is not None

    def test_create_table_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a int)").if_not_exists

    def test_drop_table(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTableStatement)
        assert stmt.if_exists

    def test_insert_values(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.InsertStatement)
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT * FROM s")
        assert stmt.from_select is not None


class TestSqlRendering:
    """to_sql output must be re-parseable (round-trip property)."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, count(*) AS c FROM t WHERE price > 3 GROUP BY a ORDER BY c DESC LIMIT 3",
            "SELECT * FROM a INNER JOIN b ON a.x = b.x WHERE a.y IN (1, 2, 3)",
            "SELECT CASE WHEN x > 1 THEN 1 ELSE 0 END FROM t",
            "SELECT sum(x * (1 - y)) FROM t WHERE d BETWEEN 1 AND 2",
            "SELECT s FROM (SELECT sum(x) AS s, g FROM t GROUP BY g) AS sub WHERE s > 0",
            "SELECT count(DISTINCT x) FROM t HAVING count(DISTINCT x) > 2",
        ],
    )
    def test_round_trip(self, sql):
        first = parse_select(sql)
        rendered = first.to_sql()
        second = parse_select(rendered)
        assert second.to_sql() == rendered

    def test_string_literal_quoting(self):
        assert ast.Literal("o'brien").to_sql() == "'o''brien'"

    def test_quoted_identifier_rendering(self):
        assert ast.ColumnRef("weird name").to_sql() == '"weird name"'

    def test_base_tables_helper(self):
        stmt = parse_select(
            "SELECT * FROM a JOIN b ON a.x = b.x JOIN (SELECT * FROM c) AS d ON b.y = d.y"
        )
        names = [table.name for table in ast.base_tables(stmt.from_relation)]
        assert names == ["a", "b", "c"]

    def test_conjunction_helper(self):
        assert ast.conjunction([]) is None
        single = ast.conjunction([ast.Literal(True)])
        assert isinstance(single, ast.Literal)
        double = ast.conjunction([ast.Literal(True), ast.Literal(False)])
        assert isinstance(double, ast.BinaryOp) and double.op == "AND"


class TestTypedErrors:
    """Bad numbers end in a ``repro.errors`` exception, never a bare ValueError."""

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("SELECT a FROM t LIMIT 1.5", ParseError),
            ("SELECT a FROM t LIMIT 1e3", ParseError),
            ("SELECT a FROM t LIMIT 2 OFFSET .5", ParseError),
            ("SELECT a FROM t WHERE a = ²", TokenizeError),
            ("SELECT ١٢", TokenizeError),
        ],
    )
    def test_through_a_cursor(self, sql, error):
        connection = repro.connect()
        connection.session.load_table("t", {"a": [1, 2, 3]})
        with pytest.raises(error):
            connection.cursor().execute(sql)
        connection.close()

    def test_limit_and_offset_take_integers(self):
        stmt = parse_select("SELECT a FROM t LIMIT 10 OFFSET 0")
        assert (stmt.limit, stmt.offset) == (10, 0)
        with pytest.raises(ParseError, match="expected an integer but found '1.5'"):
            parse("SELECT a FROM t LIMIT 1.5")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse("SELECT " + "(" * 400 + "1" + ")" * 400)


class TestLongLogicalChains:
    """A left-nested AND/OR chain renders flat, so a long one runs."""

    def test_a_chain_renders_flat_and_parses_back_to_the_same_tree(self):
        stmt = parse_select(
            "SELECT a FROM t WHERE a = 1 OR a = 2 OR (a = 3 OR a = 4) AND b = 1 OR b = 2"
        )
        rendered = stmt.where.to_sql()
        assert rendered == (
            "((a = 1) OR (a = 2) OR (((a = 3) OR (a = 4)) AND (b = 1)) OR (b = 2))"
        )
        assert parse_select(stmt.to_sql()) == stmt

    @pytest.mark.parametrize(
        ("op", "term", "count"), [("OR", "a = {}", 800), ("AND", "a <> {}", 200)]
    )
    def test_400_terms_through_a_cursor_return_exact_modes_count(self, op, term, count):
        connection = repro.connect()
        connection.session.load_table("t", {"a": np.arange(1000) % 500})
        where = f" {op} ".join(term.format(i) for i in range(400))
        sql = f"SELECT count(*) AS c FROM t WHERE {where}"
        cursor = connection.cursor()
        cursor.execute(sql)
        exact = connection.session.execute(sql, options=ExecutionOptions(mode="exact"))
        assert cursor.fetchall() == exact.fetchall() == [(count,)]
        connection.close()

    @pytest.mark.parametrize("terms", [700, 950])
    @pytest.mark.parametrize(("op", "term"), [("OR", "a = {}"), ("AND", "a <> {}")])
    def test_a_long_chain_runs_in_exact_and_approximate_mode(self, op, term, terms):
        """An AND/OR chain is evaluated in a loop, not one call per term."""
        a = np.arange(20_000) % 1000
        connection = repro.connect(
            planner_config=PlannerConfig(io_budget=0.5, large_table_rows=5_000)
        )
        session = connection.session
        session.load_table("t", {"a": a})
        session.create_sample("t", SampleSpec("uniform", (), 0.2))
        where = f" {op} ".join(term.format(i) for i in range(terms))
        sql = f"SELECT count(*) AS c FROM t WHERE {where}"
        truth = int(np.isin(a, np.arange(terms), invert=op == "AND").sum())
        exact = session.execute(sql, options=ExecutionOptions(mode="exact"))
        assert exact.fetchall() == [(truth,)]
        cursor = connection.cursor()
        cursor.execute(sql)
        assert not cursor.last_result.is_exact, cursor.last_result.plan_description
        [(estimate,)] = cursor.fetchall()
        assert estimate == pytest.approx(truth, rel=0.1)
        connection.close()

    def test_2000_terms_raise_a_parse_error(self):
        connection = repro.connect()
        connection.session.load_table("t", {"a": [1, 2, 3]})
        where = " OR ".join(f"a = {i}" for i in range(2000))
        with pytest.raises(ParseError, match="nests too deeply"):
            connection.cursor().execute(f"SELECT count(*) AS c FROM t WHERE {where}")
        connection.close()


# ---------------------------------------------------------------------------
# Fuzz: whatever the text, parse returns an AST or raises a repro.errors
# exception — nothing else.
# ---------------------------------------------------------------------------

_FRAGMENTS = [
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "IS", "NULL", "TRUE", "JOIN",
    "INNER", "LEFT", "OUTER", "CROSS", "ON", "DISTINCT", "CASE", "WHEN", "THEN",
    "ELSE", "END", "DESC", "CREATE", "TABLE", "DROP", "INSERT", "INTO", "VALUES",
    "IF", "EXISTS", "OVER", "PARTITION", "CAST", "DECIMAL", "t", "a", "b.c", "count",
    "sum", "*", "(", ")", ",", ".", ";", "=", "<>", "<", "-", "+", "/", "%", "||",
    "?", ":p", ":__lit0", "1", "0", "1.5", "1e3", ".5", "9223372036854775808",
    "'x'", "''", "'it''s'", "²", "١", "'", '"q"', "`", "--", "/*", "*/", "@",
]
_fragment_texts = st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map(" ".join)


def _parses_or_raises_typed(sql):
    try:
        statement = parser.parse(sql)
    except ReproError:
        return
    assert isinstance(statement, ast.Statement)


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.text(max_size=60), _fragment_texts))
def test_parse_returns_an_ast_or_a_typed_error(sql):
    _parses_or_raises_typed(sql)


@settings(max_examples=300, deadline=None)
@given(_fragment_texts)
def test_select_prefixed_fuzz_reaches_the_expression_grammar(tail):
    _parses_or_raises_typed("SELECT " + tail)


# ---------------------------------------------------------------------------
# transform_expression reaches what walk() yields
# ---------------------------------------------------------------------------


def _expressions(statement: ast.SelectStatement):
    """Every expression of a SELECT, of its derived tables and of its scalar
    subqueries."""
    pending = [statement]
    while pending:
        query = pending.pop()
        expressions = [item.expression for item in (*query.select_items, *query.order_by)]
        expressions += [query.where, query.having, *query.group_by]
        relations = [query.from_relation]
        while relations:
            relation = relations.pop()
            if isinstance(relation, ast.Join):
                relations += [relation.left, relation.right]
                expressions.append(relation.condition)
            elif isinstance(relation, ast.DerivedTable):
                pending.append(relation.query)
        for expression in filter(None, expressions):
            pending += [
                node.query for node in expression.walk() if isinstance(node, ast.ScalarSubquery)
            ]
            yield expression


@pytest.mark.parametrize("sql", PARSER_CORPUS)
def test_transform_expression_visits_every_node_walk_yields(sql):
    """A visit that replaces every column reference meets each node that
    ``walk()`` yields, in the same order, and leaves no column unreplaced."""
    visited = []

    def visit(node):
        visited.append(node)
        return ast.ColumnRef(f"{node.name}_x") if isinstance(node, ast.ColumnRef) else None

    for expression in _expressions(parse_select(sql)):
        visited.clear()
        transformed = ast.transform_expression(expression, visit)
        assert [id(node) for node in visited] == [id(node) for node in expression.walk()]
        assert all(
            node.name.endswith("_x")
            for node in transformed.walk()
            if isinstance(node, ast.ColumnRef)
        )

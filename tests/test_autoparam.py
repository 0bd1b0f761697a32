"""Differential suite for auto-parameterisation (literal lifting).

A text with inlined literals must answer exactly as it did before lifting
existed.  Three references that never lift stand in for "before":

* ``Database.execute(text)`` — the engine on the raw text (exact mode);
* the un-lifted pipeline — parse, flatten, analyse and rewrite the text with
  its literals in place, run the rewritten SQL (default mode);
* the hand-parameterised template bound to the same values, which is the
  path lifting joins.

Rows *and* error columns are compared bit for bit (``ResultSet.equals``).
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import ExecutionOptions, SampleSpec
from repro.api.binding import LIFTED_PREFIX, lift_literals
from repro.core.flattener import flatten
from repro.core.query_info import analyze
from repro.errors import BindParameterError
from repro.experiments.harness import build_instacart_workbench, build_tpch_workbench
from repro.api import session as session_module
from repro.api.session import VerdictSession, _token_stream
from repro.sqlengine import Database, parser
from repro.sqlengine.tokens import KEYWORDS, TokenType, tokenize
from repro.workloads import INSTACART_QUERIES, TPCH_QUERIES

EXACT = ExecutionOptions(mode="exact")


def _load_bench_queries():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "queries.py"
    spec = importlib.util.spec_from_file_location("bench_e2e_queries", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


bench_queries = _load_bench_queries()


def unlifted_default_answer(session, text: str):
    """Default-mode answer of ``text`` computed with its literals in place.

    Mirrors ``VerdictSession.execute`` on a statement that was never lifted:
    the rewritten SQL carries the literals, so nothing below the session can
    tell that lifting exists.  ``None`` when the session answered exactly.
    """
    flattened = flatten(parser.parse(text))
    analysis = analyze(flattened)
    if not analysis.supported:
        return None
    token = session.connector.catalog_state()
    plan = session._plan(analysis, token)
    if plan is None:
        return None
    return session._execute_approximate(flattened, analysis, plan, ExecutionOptions(), token)


def assert_same_answer(got, expected) -> None:
    assert got.is_exact == expected.is_exact
    assert got.raw.equals(expected.raw)
    assert got.estimate_columns == expected.estimate_columns
    assert got.group_columns == expected.group_columns


def check_text(session, text: str) -> None:
    database = session.connector.database
    exact = session.execute(text, options=EXACT)
    assert exact.is_exact
    assert exact.raw.equals(database.execute(text))
    answer = session.execute(text)
    if answer.is_exact:
        assert answer.raw.equals(database.execute(text))
    else:
        assert_same_answer(answer, unlifted_default_answer(session, text))


# ---------------------------------------------------------------------------
# (i) the three query sets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_session():
    bench = build_tpch_workbench(scale_factor=0.4, sample_ratio=0.05, seed=3)
    yield bench.verdict
    bench.verdict.close()


@pytest.fixture(scope="module")
def instacart_session():
    bench = build_instacart_workbench(scale_factor=0.4, sample_ratio=0.05, seed=3)
    yield bench.verdict
    bench.verdict.close()


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_text_answers_as_unlifted(tpch_session, name):
    check_text(tpch_session, TPCH_QUERIES[name])


@pytest.mark.parametrize("name", sorted(INSTACART_QUERIES))
def test_instacart_text_answers_as_unlifted(instacart_session, name):
    check_text(instacart_session, INSTACART_QUERIES[name])


def _dashboard_draws(seed: int, rounds: int):
    rng = np.random.default_rng([seed, 2])
    for index in range(rounds):
        for name, (_group_cols, template) in bench_queries.DASH_TEMPLATES.items():
            params = bench_queries._draw_params(name, index, rng)
            yield name, template, params, bench_queries._inline(template, params)


@pytest.mark.parametrize("name", sorted(bench_queries.DASH_TEMPLATES))
def test_dashboard_text_answers_as_its_template(tpch_session, name):
    approximated = 0
    for shape, template, params, inlined in _dashboard_draws(seed=5, rounds=3):
        if shape != name:
            continue
        check_text(tpch_session, inlined)
        # The hand-parameterised template with the same values is the path
        # the inlined text joins: same answer down to the error columns.
        from_text = tpch_session.execute(inlined)
        from_template = tpch_session.execute(template, params)
        assert_same_answer(from_text, from_template)
        assert tpch_session.execute(inlined, options=EXACT).raw.equals(
            tpch_session.execute(template, params, options=EXACT).raw
        )
        approximated += not from_text.is_exact
    assert approximated, "the dashboard shapes are meant to take the AQP path"


def test_lifted_and_user_placeholders_share_one_rewrite(tpch_session):
    _shape, template, params, inlined = next(_dashboard_draws(seed=7, rounds=1))
    text = tpch_session.execute(inlined)
    assert not text.is_exact
    assert f":{LIFTED_PREFIX}0" in text.rewritten_sql
    assert str(params[0]) not in text.rewritten_sql
    assert ":p0" in tpch_session.execute(template, params).rewritten_sql


# ---------------------------------------------------------------------------
# (ii) property: lift -> bind -> execute reproduces the original statement
# ---------------------------------------------------------------------------

_STRINGS = ["a", "b", "it's", "x''y", "", "ann arbor", "100"]


def _property_engines():
    rng = np.random.default_rng(17)
    rows = 600
    columns = {
        "i": rng.integers(-50, 50, rows),
        "f": np.where(rng.random(rows) < 0.1, np.nan, np.round(rng.normal(0, 3, rows), 3)),
        "s": rng.choice(np.array(["a", "b", "it's", "ann arbor", "100", None], dtype=object), rows),
        "k": np.arange(rows),
    }
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize)
        engine.register_table("t", {name: array.copy() for name, array in columns.items()})
        engines.append(engine)
    session = repro.connect(database=engines[0]).session
    return engines[0], engines[1], session


PROPERTY_ENGINES = _property_engines()


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


_numbers = st.one_of(
    st.integers(-60, 60).map(str),
    st.sampled_from(["1e-3", "-1e-3", "2.5", "-0.75", "0.0", "3.", "1E1"]),
    st.floats(-20, 20, allow_nan=False).map(lambda value: repr(round(value, 3))),
)
_strings = st.sampled_from(_STRINGS).map(_quote)
_comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def _atoms(draw):
    column, literals = draw(
        st.sampled_from([("i", _numbers), ("f", _numbers), ("k", _numbers), ("s", _strings)])
    )
    kind = draw(st.sampled_from(["cmp", "cmp_left", "between", "in", "not_in", "not_between"]))
    if kind == "cmp":
        return f"{column} {draw(_comparison_ops)} {draw(literals)}"
    if kind == "cmp_left":
        return f"{draw(literals)} {draw(_comparison_ops)} {column}"
    if kind in ("between", "not_between"):
        keyword = "BETWEEN" if kind == "between" else "NOT BETWEEN"
        return f"{column} {keyword} {draw(literals)} AND {draw(literals)}"
    members = ", ".join(draw(st.lists(literals, min_size=1, max_size=4)))
    return f"{column} {'IN' if kind == 'in' else 'NOT IN'} ({members})"


_predicates = st.recursive(
    _atoms(),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda pair: f"({pair[0]} AND {pair[1]})"),
        st.tuples(inner, inner).map(lambda pair: f"({pair[0]} OR {pair[1]})"),
        inner.map(lambda predicate: f"NOT ({predicate})"),
    ),
    max_leaves=4,
)


@st.composite
def _statements(draw):
    outer = draw(_predicates)
    shape = draw(st.sampled_from(["flat", "grouped", "derived", "having"]))
    if shape == "flat":
        return f"SELECT k, i, f, s FROM t WHERE {outer} ORDER BY k LIMIT 40"
    if shape == "grouped":
        return f"SELECT s, count(*) AS n, sum(i) AS si FROM t WHERE {outer} GROUP BY s ORDER BY s"
    if shape == "having":
        threshold = draw(st.integers(0, 30))
        return (
            f"SELECT s, count(*) AS n FROM t WHERE {outer} GROUP BY s "
            f"HAVING count(*) > {threshold} ORDER BY s"
        )
    inner = draw(_predicates)
    return (
        "SELECT count(*) AS n, max(i) AS hi FROM "
        f"(SELECT k, i, f, s FROM t WHERE {inner}) AS d WHERE {outer}"
    )


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_statements())
def test_lifted_statement_reproduces_the_original(text):
    optimized, naive, session = PROPERTY_ENGINES
    expected = naive.execute(text)
    lifted, constants = lift_literals(parser.parse(text))
    rendered = lifted.to_sql()
    # Every lifted position is a placeholder of the reserved prefix, numbered
    # without gaps, and re-parsing the rendering lifts nothing further.
    assert list(constants) == [f"{LIFTED_PREFIX}{n}" for n in range(len(constants))]
    assert lift_literals(parser.parse(rendered))[1] == {}
    assert optimized.execute(rendered, constants).equals(expected)
    assert naive.execute(rendered, constants).equals(expected)
    assert optimized.execute(text).equals(expected)
    assert session.execute(text, options=EXACT).raw.equals(expected)


def test_lift_does_not_mutate_its_input():
    statement = parser.parse("SELECT count(*) FROM t WHERE i > 5 AND s IN ('a', 'b')")
    before = statement.to_sql()
    lifted, constants = lift_literals(statement)
    assert statement.to_sql() == before
    assert constants == {"__lit0": 5, "__lit1": "a", "__lit2": "b"}
    assert lifted.to_sql() == (
        "SELECT count(*) FROM t WHERE ((i > :__lit0) AND (s IN (:__lit1, :__lit2)))"
    )


def test_values_are_carried_exactly_as_parsed():
    _lifted, constants = lift_literals(
        parser.parse("SELECT 1 FROM t WHERE f < 1e-3 AND i = -7 AND f > 3. AND s = 'it''s'")
    )
    assert list(constants.values()) == [0.001, 7, 3.0, "it's"]
    assert [type(value) for value in constants.values()] == [float, int, float, str]


def test_numbering_follows_syntactic_order_through_nesting():
    lifted, constants = lift_literals(parser.parse(
        "SELECT s, count(*) AS n FROM (SELECT s, i FROM t WHERE k >= 10) AS d "
        "INNER JOIN u ON d.i = u.i AND u.flag = 'y' "
        "WHERE d.i > (SELECT min(i) FROM t WHERE k < 20) AND 30 > d.i "
        "GROUP BY s HAVING count(*) > 40"
    ))
    assert list(constants.values()) == [10, "y", 20, 30, 40]
    assert "HAVING (count(*) > :__lit4)" in lifted.to_sql()


# ---------------------------------------------------------------------------
# (iii) what is *not* lifted, pinned one by one
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, kept",
    [
        ("SELECT i FROM t ORDER BY i LIMIT 5", "LIMIT 5"),
        ("SELECT i FROM t ORDER BY i LIMIT 5 OFFSET 3", "OFFSET 3"),
        ("SELECT i, f FROM t ORDER BY 2", "ORDER BY 2"),
        ("SELECT s, count(*) FROM t GROUP BY 1", "GROUP BY 1"),
        ("SELECT 1 - i FROM t", "(1 - i)"),
        ("SELECT count(*) FROM t WHERE s LIKE 'a%'", "LIKE 'a%'"),
        ("SELECT count(*) FROM t WHERE f IS NULL", "IS NULL"),
        ("SELECT count(*) FROM t WHERE f = NULL", "= NULL"),
        ("SELECT count(*) FROM t WHERE (i > k) = TRUE", "= TRUE"),
        ("SELECT count(*) FROM t WHERE i + 1 > k", "(i + 1)"),
        ("SELECT count(*) FROM t WHERE abs(i - 3) > k", "abs((i - 3))"),
        ("SELECT count(*) FROM t WHERE substr(s, 1, 2) = s", "substr(s, 1, 2)"),
        (
            "SELECT count(*) FROM t WHERE CASE WHEN i > 3 THEN 1 ELSE 0 END = k",
            "CASE WHEN (i > 3) THEN 1 ELSE 0 END",
        ),
        ("SELECT sum(CASE WHEN s = 'a' THEN 1 ELSE 0 END) AS n FROM t", "(s = 'a')"),
    ],
)
def test_position_is_not_lifted(text, kept):
    lifted, constants = lift_literals(parser.parse(text))
    assert constants == {}
    assert kept in lifted.to_sql()
    assert lifted.to_sql() == parser.parse(text).to_sql()


def test_select_list_literal_keeps_the_output_name():
    _optimized, _naive, session = PROPERTY_ENGINES
    result = session.execute("SELECT 1 - i FROM t WHERE i > 45 ORDER BY k", options=EXACT)
    assert result.raw.column_names == ["col_0"]
    aliased = session.execute("SELECT 1 - i AS d FROM t WHERE i > 45 ORDER BY k", options=EXACT)
    assert aliased.raw.column_names == ["d"]
    assert aliased.raw.columns()[0].tolist() == result.raw.columns()[0].tolist()


@pytest.mark.parametrize(
    "template, params",
    [
        ("SELECT count(*) AS n FROM t WHERE i > ? AND k < 300 AND s = 'a'", (3,)),
        ("SELECT count(*) AS n FROM t WHERE i > :low AND k < 300 AND s = 'a'", {"low": 3}),
    ],
)
def test_user_template_with_literals(template, params):
    optimized, _naive, session = PROPERTY_ENGINES
    prepared = session.prepare(template)
    # The caller's view of the template is unchanged ...
    assert prepared.param_count == 1
    assert prepared.param_style == ("qmark" if isinstance(params, tuple) else "named")
    assert prepared.text == template
    # ... while its literals moved next to the caller's parameter.
    assert prepared.constants == {"__lit0": 300, "__lit1": "a"}
    got = session.execute(template, params, options=EXACT)
    assert got.raw.equals(optimized.execute(template, params))
    assert got.raw.equals(
        optimized.execute("SELECT count(*) AS n FROM t WHERE i > 3 AND k < 300 AND s = 'a'")
    )
    with pytest.raises(BindParameterError):
        session.execute(template, options=EXACT)
    with pytest.raises(BindParameterError):
        session.execute(template, (1, 2) if isinstance(params, tuple) else {"other": 1})


def test_qmark_and_named_spellings_share_a_shape_but_not_a_style():
    _optimized, _naive, session = PROPERTY_ENGINES
    positional = session.prepare("SELECT count(*) AS n FROM t WHERE i > ? AND k < 111")
    named = session.prepare("SELECT count(*) AS n FROM t WHERE i > :p0 AND k < 222")
    assert positional.shape_key == named.shape_key
    assert (positional.param_style, named.param_style) == ("qmark", "named")
    assert session.execute(positional, (5,), EXACT).raw.equals(
        session.execute("SELECT count(*) AS n FROM t WHERE i > 5 AND k < 111", options=EXACT).raw
    )
    assert session.execute(named, {"p0": 5}, EXACT).raw.equals(
        session.execute("SELECT count(*) AS n FROM t WHERE i > 5 AND k < 222", options=EXACT).raw
    )


@pytest.mark.parametrize(
    "template", ["SELECT count(*) FROM t WHERE i > :__lit0", "SELECT :__literal FROM t"]
)
def test_reserved_prefix_is_rejected(template):
    _optimized, _naive, session = PROPERTY_ENGINES
    with pytest.raises(BindParameterError, match="reserved prefix"):
        session.prepare(template)


def test_dml_is_not_lifted():
    session = repro.connect().session
    session.load_table("u", {"a": np.arange(3)})
    template = session.prepare("INSERT INTO u (a) VALUES (7)")
    assert template.constants == {} and template.shape_key == ""
    session.execute(template)
    assert session.execute("SELECT count(*) AS n FROM u WHERE a = 7", options=EXACT).raw.scalar() == 1.0


# ---------------------------------------------------------------------------
# (iv) one shape, many texts: every cache below the raw text hits
# ---------------------------------------------------------------------------

_CACHE_KEYS = [
    f"{cache}_cache_{outcome}"
    for cache in ("analysis", "rewrite", "statement", "plan")
    for outcome in ("hits", "misses")
]


def test_two_hundred_texts_of_one_shape_miss_once():
    connection = repro.connect()
    session = connection.session
    rng = np.random.default_rng(2)
    rows = 60_000
    session.load_table(
        "events",
        {
            "day": np.sort(rng.integers(0, 365, rows)),
            "kind": rng.choice(np.array(["view", "cart", "buy"], dtype=object), rows),
            "amount": np.round(rng.gamma(2.0, 20.0, rows), 2),
        },
    )
    session.create_sample("events", SampleSpec("hashed", ("day",), 0.02))
    database = session.connector.database
    # A statement of another shape first, so the backend facts the planner
    # reads once per data version (sample list, group cardinality) are in.
    assert not session.execute("SELECT kind, avg(amount) AS a FROM events GROUP BY kind").is_exact
    before = {key: database.stats.get(key, 0) for key in _CACHE_KEYS}
    texts = {
        f"SELECT kind, sum(amount) AS total, count(DISTINCT day) AS days, max(amount) AS top "
        f"FROM events WHERE day >= {low} AND day < {low + span} AND amount > {floor}.5 "
        f"GROUP BY kind ORDER BY kind"
        for low in range(0, 200, 4)
        for span, floor in ((30, 1), (45, 2), (60, 3), (90, 4))
    }
    assert len(texts) == 200
    parts = set()
    parses = []
    original_parse = parser.parse
    parser.parse = lambda *args: parses.append(args[0]) or original_parse(*args)
    try:
        for text in texts:
            answer = session.execute(text)
            assert not answer.is_exact
            parts.add(answer.rewritten_sql)
    finally:
        parser.parse = original_parse
    # Only the first text is parsed (the session parses its token list); the
    # other 199 are found by token stream.  The rest of the parses are the
    # engine's, of the three rewritten parts' texts.
    assert sum(not isinstance(source, str) for source in parses) == 1
    assert not texts & {source for source in parses if isinstance(source, str)}
    delta = {key: database.stats.get(key, 0) - before[key] for key in _CACHE_KEYS}
    (rewritten,) = parts  # byte-identical rewritten SQL for all 200 texts
    num_parts = len(rewritten.split(";\n"))
    assert num_parts == 3  # mean-like, count-distinct and extreme statements
    assert delta["analysis_cache_misses"] == 1
    assert delta["rewrite_cache_misses"] == 1
    assert delta["analysis_cache_hits"] == 199
    assert delta["rewrite_cache_hits"] == 199
    assert delta["statement_cache_misses"] <= num_parts
    assert delta["plan_cache_misses"] <= num_parts
    assert delta["statement_cache_hits"] >= 199 * num_parts
    # A repeated text is a raw-text hit: no parse, no lifting.
    repeated = next(iter(texts))
    assert session.prepare(repeated) is session.prepare(repeated)
    connection.close()


# ---------------------------------------------------------------------------
# (v) the prepared-statement surface is unchanged
# ---------------------------------------------------------------------------


def test_prepared_statement_describes_only_the_callers_parameters():
    connection = repro.connect(database=PROPERTY_ENGINES[0])
    text = "SELECT count(*) AS n FROM t WHERE i > 3 AND s IN ('a', 'b')"
    literal_only = connection.prepare(text)
    assert literal_only.sql == text
    assert literal_only.param_count == 0
    assert literal_only.execute(options=EXACT).raw.equals(PROPERTY_ENGINES[1].execute(text))
    with pytest.raises(BindParameterError):
        literal_only.execute((3,))
    template = "SELECT count(*) AS n FROM t WHERE i > ? AND s IN ('a', ?)"
    mixed = connection.prepare(template)
    assert mixed.sql == template
    assert mixed.param_count == 2
    results = mixed.executemany([(3, "b"), (10, "it's")], options=EXACT)
    assert results[0].raw.equals(PROPERTY_ENGINES[1].execute(text))
    assert results[1].raw.equals(PROPERTY_ENGINES[1].execute(template, (10, "it's")))


# ---------------------------------------------------------------------------
# (vi) the token-stream shape index: a text of a known shape is not parsed,
#      and prepare through the index equals prepare with an empty index
# ---------------------------------------------------------------------------


def _prepare_counting_parses(session, text):
    parses = []
    original_parse = parser.parse
    parser.parse = lambda *args: parses.append(args[0]) or original_parse(*args)
    try:
        return session.prepare(text), len(parses)
    finally:
        parser.parse = original_parse


def _prepare_or_error(session, text):
    try:
        return _prepare_counting_parses(session, text)
    except repro.errors.ReproError as error:
        return (type(error), str(error)), 1


def assert_same_template(got, expected):
    """``expected`` comes from a session whose index never held the shape."""
    assert got.text == expected.text
    assert got.statement == expected.statement
    assert got.statement.to_sql() == expected.statement.to_sql()
    assert got.shape_key == expected.shape_key
    assert list(got.constants.items()) == list(expected.constants.items())
    assert [type(v) for v in got.constants.values()] == [
        type(v) for v in expected.constants.values()
    ]
    assert got.placeholders == expected.placeholders
    assert got.param_style == expected.param_style
    assert (got.flattened is None) == (expected.flattened is None)


def _corpus():
    texts = [TPCH_QUERIES[name] for name in sorted(TPCH_QUERIES)]
    texts += [inlined for _name, _template, _params, inlined in _dashboard_draws(11, 1)]
    texts += [
        "SELECT count(*) AS n FROM t WHERE i > 3 AND s IN ('a', 'b')",
        "SELECT s, count(*) AS n FROM (SELECT s, i FROM t WHERE k >= 10) AS d "
        "INNER JOIN u ON d.i = u.i AND u.flag = 'y' "
        "WHERE d.i > (SELECT min(i) FROM t WHERE k < 20) AND 30 > d.i "
        "GROUP BY s HAVING count(*) > 40",
        "SELECT 1 - i FROM t WHERE i > 45 ORDER BY k LIMIT 5 OFFSET 3",
        "SELECT sum(CASE WHEN s = 'a' THEN 1 ELSE 0 END) AS n FROM t WHERE f < 1e-3",
        "SELECT i + 5 AS x FROM t WHERE i = 5 AND f BETWEEN -2.5 AND 5",
    ]
    return texts


CORPUS = _corpus()
_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SEPARATORS = [" ", "\n\t", " /* c */ ", " -- c\n", "  "]
_number_texts = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(2**63, 2**70).map(str),
    st.sampled_from(["1e-3", "2.5E+2", "1.e5", ".5e-3", "3.", "0.0", "7", "-7", "-1.5e3"]),
    st.floats(0, 1e9, allow_nan=False, allow_infinity=False).map(repr),
)
_string_values = st.text(alphabet="ab' %_-", max_size=6)


def _render(tokens, replacements, rng):
    """``tokens`` as text again: literals replaced, keywords in any case,
    any whitespace or comment between tokens."""
    parts = []
    for index, token in enumerate(tokens):
        value = replacements.get(index, token.value)
        if token.type is TokenType.KEYWORD:
            parts.append(rng.choice([value, value.lower(), value.capitalize()]))
        elif token.type is TokenType.STRING:
            parts.append(_quote(value))
        elif token.type is TokenType.IDENTIFIER and (
            value.upper() in KEYWORDS or not _PLAIN.fullmatch(value)
        ):
            parts.append(f'"{value}"')
        else:
            parts.append(value)
        parts.append(rng.choice(_SEPARATORS))
    return "".join(parts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.sampled_from(CORPUS), _statements()), st.data())
def test_prepare_through_the_index_equals_an_empty_index(base, data):
    fast = VerdictSession()
    seeded, parses = _prepare_counting_parses(fast, base)
    assert parses == 1
    tokens = tokenize(base)
    lifted_at = {i for _name, i in fast._shape_index.get(_token_stream(tokens)).lifted}
    tokens = tokens[:-1]
    slots = [
        i for i, token in enumerate(tokens)
        if token.type in (TokenType.NUMBER, TokenType.STRING)
    ]
    replacements = {}
    for slot, index in enumerate(slots):
        if data.draw(st.booleans(), label=f"replace literal {slot}"):
            strategy = _number_texts if tokens[index].type is TokenType.NUMBER else _string_values
            replacements[index] = data.draw(strategy, label=f"literal {slot}")
    text = _render(tokens, replacements, data.draw(st.randoms(use_true_random=False)))

    got, parses = _prepare_or_error(fast, text)
    expected, _ = _prepare_or_error(VerdictSession(), text)
    if isinstance(expected, tuple):
        assert got == expected  # the same typed error, on both paths
        return
    assert_same_template(got, expected)
    changed = {index for index, value in replacements.items() if value != tokens[index].value}
    signs_changed = any(replacements[index].startswith("-") for index in changed)
    if not (changed - lifted_at) and not signs_changed:
        # Whitespace, comments, keyword case and lifted literals: one stream.
        assert parses == 0
        assert got.statement is seeded.statement
    elif changed - lifted_at:
        assert parses == 1  # a kept literal differs: the text misses


@pytest.mark.parametrize(
    "first, second, hit, constants",
    [
        # negative numbers: the sign is a token, the lifted value positive
        ("SELECT k FROM t WHERE i = -7", "SELECT k FROM t WHERE i = -8", True, [8]),
        ("SELECT k FROM t WHERE i = 7", "SELECT k FROM t WHERE i = -7", False, [7]),
        # exponent floats and ints past int64 keep their python types
        ("SELECT k FROM t WHERE f < 1", "SELECT k FROM t WHERE f < 2.5E+2", True, [250.0]),
        ("SELECT k FROM t WHERE k = 1", f"SELECT k FROM t WHERE k = {2**64}", True, [2**64]),
        # '' escapes
        ("SELECT k FROM t WHERE s = 'a'", "SELECT k FROM t WHERE s = 'it''s'", True, ["it's"]),
        # whitespace, comments and keyword case: the same key
        (
            "SELECT k FROM t WHERE i > 1 ORDER BY k",
            "select k\n  from t /* x */ where i > 2 -- y\n order by k",
            True,
            [2],
        ),
        # a kept literal that differs must miss
        ("SELECT k FROM t WHERE i > 1 LIMIT 5", "SELECT k FROM t WHERE i > 1 LIMIT 6", False, [1]),
        ("SELECT i - 1 AS d FROM t WHERE i > 1", "SELECT i - 2 AS d FROM t WHERE i > 1", False,
         [1]),
        # one value standing both kept and lifted
        ("SELECT i + 5 AS x FROM t WHERE i = 5", "SELECT i + 5 AS x FROM t WHERE i = 6", True, [6]),
        ("SELECT i + 5 AS x FROM t WHERE i = 5", "SELECT i + 6 AS x FROM t WHERE i = 5", False,
         [5]),
    ],
)
def test_shape_index_hits_only_on_lifted_literals(first, second, hit, constants):
    session = VerdictSession()
    session.prepare(first)
    got, parses = _prepare_counting_parses(session, second)
    assert parses == (0 if hit else 1)
    assert list(got.constants.values()) == constants
    assert [type(v) for v in got.constants.values()] == [type(v) for v in constants]
    assert_same_template(got, VerdictSession().prepare(second))


def test_a_kept_literal_that_differs_replaces_the_streams_entry():
    session = VerdictSession()
    text = "SELECT k FROM t WHERE i > {} ORDER BY k LIMIT {}"
    session.prepare(text.format(0, 10))
    _template, parses = _prepare_counting_parses(session, text.format(1, 20))
    assert parses == 1
    for low in range(2, 20):
        template, parses = _prepare_counting_parses(session, text.format(low, 20))
        assert parses == 0
        assert template.statement.limit == 20
        assert template.constants == {"__lit0": low}
    template, parses = _prepare_counting_parses(session, text.format(30, 10))
    assert parses == 1
    assert template.statement.limit == 10


def test_a_text_that_misses_the_index_is_lexed_once(monkeypatch):
    lexed = []
    original = tokenize
    monkeypatch.setattr(session_module, "tokenize", lambda sql: lexed.append(sql) or original(sql))
    monkeypatch.setattr(parser, "tokenize", lambda sql: lexed.append(sql) or original(sql))
    text = "SELECT k FROM t WHERE i > 1"
    VerdictSession().prepare(text)
    assert lexed == [text]


def test_whitespace_comments_case_and_literal_values_do_not_change_the_stream():
    one = _token_stream(tokenize("SELECT a FROM t WHERE b = 1 AND s = 'x'"))
    two = _token_stream(
        tokenize("select  a\n from t -- note\n where /* c */ b = 2.5 and s = 'it''s'")
    )
    assert one == two
    # A literal's type stays in the stream; only its value is masked.
    assert _token_stream(tokenize("SELECT a FROM t WHERE b = 1")) != _token_stream(
        tokenize("SELECT a FROM t WHERE b = '1'")
    )


def test_texts_with_placeholders_and_dml_skip_the_index():
    session = VerdictSession()
    for text in (
        "SELECT k FROM t WHERE i > ? AND s = 'a'",
        "SELECT k FROM t WHERE i > :low AND s = 'a'",
        "INSERT INTO t (k) VALUES (1)",
    ):
        session.prepare(text)
        assert session._shape_index.get(_token_stream(tokenize(text))) is None
        other = text.replace("'a'", "'b'").replace("(1)", "(2)")
        _template, parses = _prepare_counting_parses(session, other)
        assert parses == 1

"""An approximate answer is one answer to the statement that was sent.

A statement may mix the three aggregate kinds of Section 2.2 — mean-like,
``count(DISTINCT)`` over a hashed column and min / max — in its select list,
HAVING and ORDER BY.  Whatever the mix, on both connectors, the approximate
answer must

* carry exact mode's column names in exact mode's order;
* be answered, or fall back to exact execution with a reason — never raise
  where exact mode answers;
* satisfy its own HAVING, ORDER BY and LIMIT over the values it returns (an
  approximate answer is one of the exact answers the data could have given),
  where an aggregate of the tail may stand in a comparison, BETWEEN, IN,
  IS [NOT] NULL or NOT;
* hold, in every min / max cell, exact mode's value for that group.

The statements run over ``keys``, a table whose group key holds both NULL
and the string ``'None'``, and over the ``sales`` table of the fold tests;
the examples are statements that once broke one of these rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import ExecutionOptions, SampleSpec
from repro.connectors import BuiltinConnector
from repro.errors import ReproError
from tests.test_subsample_fold import fold_session

KEY_ROWS = 12_000
KEYS = np.array([None, "None", "a", "b"], dtype=object)

#: Aggregates over ``keys`` with HAVING thresholds that split its groups.
AGGREGATES = {
    "count(*)": (2000, 3000),
    "avg(x)": (9.9, 10.1),
    "sum(x)": (25_000.0, 35_000.0),
    "count(DISTINCT h)": (1500, 2000),
    "max(x)": (55.0, 65.0),
    "min(x)": (0.01, 0.05),
}
MIXED = "max(x) / avg(x)"
EXACT = ExecutionOptions(mode="exact")


#: Predicate operators over one aggregate, each with how many thresholds it
#: takes.
OPERATORS = {
    ">": 1, "<": 1, "NOT >": 1, "BETWEEN": 2, "NOT BETWEEN": 2, "IN": 2,
    "IS NULL": 0, "IS NOT NULL": 0,
}

#: (aggregate, operator, thresholds)
Predicate = tuple[str, str, tuple[float, ...]]


def _render(predicate: Predicate) -> str:
    aggregate, operator, thresholds = predicate
    if operator == "NOT >":
        return f"NOT ({aggregate} > {thresholds[0]})"
    if operator.endswith("BETWEEN"):
        return f"{aggregate} {operator} {min(thresholds)} AND {max(thresholds)}"
    if operator == "IN":
        return f"{aggregate} IN ({', '.join(map(str, thresholds))})"
    return " ".join([aggregate, operator, *map(str, thresholds)])


@dataclass(frozen=True)
class Probe:
    """A statement over one table grouped by at most one key.

    ``items`` are (aggregate expression, alias); ``having`` is a predicate
    over one aggregate; ``order`` is (term, descending), the term an alias,
    the key, an aggregate or a predicate.
    """

    table: str
    group: str | None
    items: tuple[tuple[str, str], ...]
    having: Predicate | None = None
    order: tuple[str | Predicate, bool] | None = None
    limit: int | None = None
    offset: int | None = None

    def sql(self) -> str:
        columns = [self.group] if self.group else []
        columns += [f"{expression} AS {alias}" for expression, alias in self.items]
        text = f"SELECT {', '.join(columns)} FROM {self.table}"
        if self.group:
            text += f" GROUP BY {self.group}"
        if self.having:
            text += f" HAVING {_render(self.having)}"
        if self.order:
            term = self.order[0]
            text += f" ORDER BY {term if isinstance(term, str) else _render(term)}"
            text += " DESC" if self.order[1] else ""
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
            if self.offset is not None:
                text += f" OFFSET {self.offset}"
        return text

    def column_for(self, expression: str) -> str | None:
        """The returned column holding ``expression`` (alias, key or aggregate)."""
        if expression == self.group:
            return expression
        for item, alias in self.items:
            if expression in (item, alias):
                return alias
        return None


@st.composite
def predicates(draw) -> Predicate:
    aggregate = draw(st.sampled_from(list(AGGREGATES)))
    operator = draw(st.sampled_from(list(OPERATORS)))
    thresholds = AGGREGATES[aggregate]
    if OPERATORS[operator] == 1:
        thresholds = (draw(st.sampled_from(thresholds)),)
    return aggregate, operator, thresholds[: OPERATORS[operator]]


@st.composite
def probes(draw) -> Probe:
    grouped = draw(st.booleans())
    chosen = draw(
        st.lists(st.sampled_from([*AGGREGATES, MIXED]), min_size=1, max_size=3, unique=True)
    )
    items = tuple((expression, f"a{index}") for index, expression in enumerate(chosen))
    having = draw(predicates()) if grouped and draw(st.booleans()) else None
    order = None
    if grouped and draw(st.booleans()):
        keys = st.sampled_from(["k", *[alias for _item, alias in items], *AGGREGATES])
        order = (draw(st.one_of(keys, predicates())), draw(st.booleans()))
    limit = draw(st.one_of(st.none(), st.integers(1, 3))) if grouped else None
    offset = draw(st.one_of(st.none(), st.integers(0, 1))) if limit is not None else None
    return Probe("keys", "k" if grouped else None, items, having, order, limit, offset)


def key_table(seed: int = 5) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "k": KEYS[rng.choice(len(KEYS), KEY_ROWS, p=[0.2, 0.3, 0.35, 0.15])],
        "x": rng.gamma(2.0, 5.0, KEY_ROWS),
        "h": rng.integers(0, 4000, KEY_ROWS),
    }


def joined_tables(seed: int = 9) -> dict[str, dict[str, np.ndarray]]:
    """``t`` and ``u`` both have a column ``g``: 0–2 in ``t``, 10–13 in ``u``."""
    rng = np.random.default_rng(seed)
    return {
        "t": {"k": rng.integers(0, 4, KEY_ROWS), "g": rng.integers(0, 3, KEY_ROWS),
              "y": rng.gamma(2.0, 5.0, KEY_ROWS)},
        "u": {"k": np.arange(4), "g": np.arange(10, 14)},
    }


@pytest.fixture(scope="module", params=["builtin", "sqlite"])
def session(request):
    session = fold_session(request.param)
    session.load_table("keys", key_table())
    session.create_sample("keys", SampleSpec("uniform", (), 0.1))
    session.create_sample("keys", SampleSpec("hashed", ("h",), 0.1))
    for name, columns in joined_tables().items():
        session.load_table(name, columns)
    session.create_sample("t", SampleSpec("uniform", (), 0.1))
    yield session
    session.close()


def _null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _key(value):
    return None if _null(value) else value


def _holds(value, predicate: Predicate) -> bool:
    """Whether a returned value meets the predicate, two-valued: a NULL
    meets only IS NULL and, as the engine evaluates NOT, a negation."""
    _aggregate, operator, thresholds = predicate
    if _null(value):
        return operator in ("IS NULL", "NOT >")
    if operator.startswith("IS"):
        return operator == "IS NOT NULL"
    if operator == "IN":
        return value in thresholds
    low, high = min(thresholds), max(thresholds)
    if operator == ">":
        return value > low
    if operator == "<":
        return value < low
    if operator == "NOT >":
        return not value > low
    return (low <= value <= high) == (operator == "BETWEEN")


SALES_DISTINCT = (("avg(price)", "a"), ("count(DISTINCT sale_id)", "d"))


@given(probe=probes())
@example(probe=Probe("sales", "region", (("avg(price)", "a"),),
                     having=("count(DISTINCT store_id)", ">", (1000,))))
@example(probe=Probe("sales", "region", SALES_DISTINCT,
                     having=("count(DISTINCT sale_id)", ">", (5000,))))
@example(probe=Probe("keys", "k", (("sum(x)", "s"),),
                     having=("sum(x)", "BETWEEN", AGGREGATES["sum(x)"])))
@example(probe=Probe("keys", "k", (("count(*)", "c"), ("avg(x)", "a")),
                     having=("avg(x)", "NOT BETWEEN", AGGREGATES["avg(x)"]),
                     order=(("count(*)", "IN", AGGREGATES["count(*)"]), True)))
@example(probe=Probe("keys", "k", (("max(x)", "m"), ("count(DISTINCT h)", "d")),
                     having=("count(DISTINCT h)", "IS NOT NULL", ()),
                     order=(("max(x)", "NOT >", (60.0,)), False)))
@example(probe=Probe("sales", "region", SALES_DISTINCT, order=("d", True), limit=2))
@example(probe=Probe("sales", "region", (("avg(price)", "a"), ("max(price)", "m")),
                     order=("m", False)))
@example(probe=Probe("keys", "k", (("avg(x)", "a"), ("max(x)", "m"))))
@example(probe=Probe("keys", "k", (("avg(x)", "a"), ("count(DISTINCT h)", "d"))))
@example(probe=Probe("keys", "k", ((MIXED, "r"), ("min(x)", "m")), order=("r", True)))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_an_approximate_answer_answers_its_own_statement(session, probe):
    sql = probe.sql()
    exact = session.sql(sql, options=EXACT)
    answer = session.sql(sql)
    assert answer.column_names() == exact.column_names(), sql
    if answer.is_exact:
        assert answer.plan_description.startswith("exact execution ("), sql
        return
    names = answer.column_names()
    rows = answer.fetchall()

    if probe.limit is not None:
        assert len(rows) <= probe.limit, sql
    if probe.having and (column := probe.column_for(probe.having[0])):
        at = names.index(column)
        assert all(_holds(row[at], probe.having) for row in rows), (sql, rows)
    if probe.order:
        term, descending = probe.order
        if isinstance(term, str) and (column := probe.column_for(term)):
            at = names.index(column)
            values = [row[at] for row in rows if not _null(row[at])]
            assert values == sorted(values, reverse=descending), (sql, rows)
        elif not isinstance(term, str) and (column := probe.column_for(term[0])):
            at = names.index(column)
            values = [_holds(row[at], term) for row in rows]
            assert values == sorted(values, reverse=descending), (sql, rows)

    for expression, alias in probe.items:
        if expression.split("(")[0] not in ("max", "min") or "/" in expression:
            continue
        group = f"{probe.group}, " if probe.group else ""
        truth = session.sql(
            f"SELECT {group}{expression} AS v FROM {probe.table}"
            + (f" GROUP BY {probe.group}" if probe.group else ""),
            options=EXACT,
        ).fetchall()
        by_group = {_key(row[0]) if probe.group else None: row[-1] for row in truth}
        at = names.index(alias)
        for row in rows:
            assert row[at] == by_group[_key(row[0]) if probe.group else None], (sql, row)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT avg(price) AS a FROM sales GROUP BY region HAVING region <> 'east'",
        "SELECT s.region, avg(s.price) AS a, max(s.price) AS m FROM sales s "
        "GROUP BY s.region HAVING s.region <> 'east' ORDER BY s.region",
    ],
)
def test_a_tail_reads_grouping_columns(session, sql):
    """HAVING may name a grouping column, selected or not, qualified or not."""
    exact = session.sql(sql, options=EXACT)
    answer = session.sql(sql)
    assert not answer.is_exact, answer.plan_description
    assert answer.column_names() == exact.column_names()
    assert answer.num_rows == exact.num_rows == 2


@pytest.mark.parametrize(
    "sql",
    [
        # A derived table's count(DISTINCT) has no per-subsample estimate.
        "SELECT avg(d) AS a FROM "
        "(SELECT store_id, count(DISTINCT sale_id) AS d FROM sales GROUP BY store_id) AS q",
        # Of the DISTINCT aggregates only count is estimated.
        "SELECT sum(DISTINCT qty) AS s FROM sales",
        "SELECT region, avg(DISTINCT qty) AS a FROM sales GROUP BY region ORDER BY region",
    ],
)
def test_a_distinct_aggregate_without_an_estimator_answers_as_exact_mode(session, sql):
    """Exact mode's answer, or exact mode's typed error."""
    try:
        exact = session.sql(sql, options=EXACT).fetchall()
    except ReproError as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            session.sql(sql)
        return
    answer = session.sql(sql)
    assert answer.is_exact, answer.plan_description
    assert answer.fetchall() == exact


def test_a_column_names_no_grouping_key_of_another_table(session):
    """``t.g`` is not ``u.g``: the engine raises, SQLite answers with some
    ``t.g`` of each group, and approximate mode says what exact mode says."""
    sql = "SELECT t.g, count(*) AS c FROM t INNER JOIN u ON t.k = u.k GROUP BY u.g"
    if isinstance(session.connector, BuiltinConnector):
        for options in (EXACT, None):
            with pytest.raises(ReproError, match="t.g"):
                session.sql(sql, options=options)
        return
    exact = session.sql(sql, options=EXACT).fetchall()
    answer = session.sql(sql)
    assert answer.is_exact, answer.plan_description
    assert answer.fetchall() == exact
    assert {g for g, _count in exact} <= {0, 1, 2}


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT t.g, count(*) AS c FROM t GROUP BY g ORDER BY t.g",
        "SELECT g, count(*) AS c FROM t GROUP BY t.g ORDER BY g",
    ],
)
def test_a_qualifier_that_fits_the_grouping_key_names_it(session, sql):
    exact = session.sql(sql, options=EXACT)
    answer = session.sql(sql)
    assert not answer.is_exact, answer.plan_description
    assert answer.column_names() == exact.column_names()
    assert [int(g) for g in answer.column("g")] == [0, 1, 2]


@pytest.mark.parametrize(
    "tail", ["HAVING count(*) > 500", "ORDER BY total DESC LIMIT 5", "LIMIT 5 OFFSET 2"]
)
def test_a_derived_tables_group_filter_runs_exactly(session, tail):
    """HAVING, LIMIT and OFFSET keep or drop whole groups of the derived
    table, which its per-(group, subsample) rows cannot decide."""
    sql = (
        "SELECT avg(total) AS a FROM "
        f"(SELECT store_id, sum(price) AS total FROM sales GROUP BY store_id {tail}) AS q"
    )
    answer = session.sql(sql)
    assert answer.is_exact, answer.plan_description
    assert answer.fetchall() == session.sql(sql, options=EXACT).fetchall()

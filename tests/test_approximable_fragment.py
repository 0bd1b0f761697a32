"""Whether a statement approximates is decided before the rewriter runs.

The analysis refuses what the statement alone decides and the sample
planner what the chosen samples decide; ``AqpRewriter.rewrite`` only checks
that precondition.  So a refused statement never reaches the rewriter, its
refusal is cached with its shape, and a feasible plan is never lost to a
refusal that comes after planning.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, PlannerConfig, SampleSpec, VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.rewriter import AqpRewriter
from repro.errors import ReproError

EXACT = ExecutionOptions(mode="exact")
PLANNER = PlannerConfig(io_budget=0.2, large_table_rows=5_000)

#: Statements outside the approximable fragment by a derived-table or a tail
#: rule, each refused by the analysis.
REFUSED = {
    "a derived table's max": (
        "SELECT avg(m) AS a FROM (SELECT city, max(price) AS m FROM orders GROUP BY city) AS q"
    ),
    "a derived item that is not a bare aggregate": (
        "SELECT avg(s) AS a FROM "
        "(SELECT city, sum(price) + 1 AS s FROM orders GROUP BY city) AS q"
    ),
    "a derived table's HAVING": (
        "SELECT avg(s) AS a FROM "
        "(SELECT city, sum(price) AS s FROM orders GROUP BY city HAVING count(*) > 5) AS q"
    ),
    "an ORDER BY ordinal past the select list": (
        "SELECT city, count(*) AS c FROM orders GROUP BY city ORDER BY 5"
    ),
    "rand() over an aggregate in ORDER BY": (
        "SELECT city, sum(price) AS s FROM orders GROUP BY city ORDER BY rand() * sum(price)"
    ),
}


def tables(orders_rows: int, items_rows: int, seed: int = 3) -> dict[str, dict[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return {
        "orders": {
            "order_id": np.arange(orders_rows),
            "price": rng.gamma(2.0, 5.0, orders_rows),
            "city": rng.choice(["a", "b", "c", "d"], orders_rows).astype(object),
        },
        "items": {
            "order_id": rng.integers(0, orders_rows, items_rows),
            "amount": rng.exponential(5.0, items_rows),
        },
    }


def make_session(backend: str, orders_rows: int, items_rows: int, **kwargs) -> VerdictSession:
    connector = BuiltinConnector(seed=5) if backend == "builtin" else SqliteConnector(seed=5)
    session = VerdictSession(connector, planner_config=PLANNER, **kwargs)
    for name, columns in tables(orders_rows, items_rows).items():
        session.load_table(name, columns)
    return session


@pytest.fixture()
def rewrites(monkeypatch) -> list[str]:
    """The statements ``AqpRewriter.rewrite`` is called with, as SQL."""
    calls: list[str] = []
    rewrite = AqpRewriter.rewrite

    def counted(self, statement, analysis, plan):
        calls.append(statement.to_sql())
        return rewrite(self, statement, analysis, plan)

    monkeypatch.setattr(AqpRewriter, "rewrite", counted)
    return calls


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_a_refused_statement_never_reaches_the_rewriter(backend, rewrites):
    session = make_session(backend, 20_000, 10_000)
    try:
        session.create_sample("orders", SampleSpec("uniform", (), 0.1))
        for name, sql in REFUSED.items():
            refusal = session.prepare(sql).analysis.refusal
            assert refusal is not None and "__agg" not in refusal, name
            for _ in range(3):
                try:
                    exact = session.sql(sql, options=EXACT).fetchall()
                except ReproError as error:
                    with pytest.raises(type(error), match="ORDER BY"):
                        session.sql(sql)
                    continue
                answer = session.sql(sql)
                assert answer.is_exact, name
                assert answer.plan_description == f"exact execution ({refusal})", name
                assert sorted(answer.fetchall()) == sorted(exact), name
        assert rewrites == []
    finally:
        session.close()


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_a_universe_join_without_a_square_b_falls_back_to_one_sample(backend, rewrites):
    """With b = 50, ``h(i, j)`` cannot combine two samples' ids, so the
    planner drops the universe join and samples the fact table alone."""
    session = make_session(backend, 10_000, 20_000, subsample_count=50)
    try:
        for table in ("orders", "items"):
            session.create_sample(table, SampleSpec("hashed", ("order_id",), 0.1))
        sql = (
            "SELECT count(*) AS c FROM orders o INNER JOIN items i ON o.order_id = i.order_id"
        )
        for _ in range(3):
            answer = session.sql(sql)
            assert not answer.is_exact, answer.plan_description
            assert [info.original_table for info in session.last_plan.sampled_tables] == [
                "items"
            ]
        exact = session.sql(sql, options=EXACT)
        assert answer.column("c")[0] == pytest.approx(exact.column("c")[0], rel=0.2)
        assert len(rewrites) == 1  # one shape, one rewrite
    finally:
        session.close()


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_a_table_inside_a_derived_table_is_not_planned(backend, rewrites):
    """The flat rewrite substitutes no table inside a derived table, so the
    planner samples ``items``, though ``orders`` is the larger table."""
    session = make_session(backend, 20_000, 10_000)
    try:
        for table in ("orders", "items"):
            session.create_sample(table, SampleSpec("uniform", (), 0.1))
        sql = (
            "SELECT count(*) AS c, sum(i.amount) AS s FROM items i "
            "INNER JOIN (SELECT order_id, city FROM orders) o ON i.order_id = o.order_id"
        )
        answer = session.sql(sql)
        assert not answer.is_exact, answer.plan_description
        assert list(session.last_plan.assignments) == ["items"]
        exact = session.sql(sql, options=EXACT)
        for column in ("c", "s"):
            assert answer.column(column)[0] == pytest.approx(exact.column(column)[0], rel=0.2)
        assert len(rewrites) == 1
    finally:
        session.close()

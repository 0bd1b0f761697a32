"""NULLs in a hashed sample's key and in an aggregate's argument.

A hashed (universe) sample keeps a row when its key hashes below the
sampling ratio.  A key of NULLs or empty strings only hashes as the empty
string, to 0, below every ratio, so every such row is kept: those rows are a
census and carry probability 1, in the built sample and in every appended
batch alike.  So a ``count(DISTINCT x)`` is scaled by the kept share of the
other rows only.  And
``count(x)`` and ``avg(x)`` weigh only the rows whose ``x`` is not NULL, as
exact mode counts them.  All hold on both connectors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.sample_planner import PlannerConfig
from repro.sampling import SampleSpec
from repro.sqlengine import Database

ROWS = 40_000
EXACT = ExecutionOptions(mode="exact")


def half_null_table(rows: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.gamma(2.0, 5.0, rows)
    x[rng.random(rows) < 0.5] = np.nan
    return {"g": rng.integers(0, 20, rows), "x": x, "y": rng.gamma(2.0, 5.0, rows)}


@pytest.fixture(scope="module", params=["builtin", "sqlite"])
def session(request):
    connector = (
        BuiltinConnector(database=Database(seed=7))
        if request.param == "builtin"
        else SqliteConnector(seed=7)
    )
    session = VerdictSession(connector, planner_config=PlannerConfig(large_table_rows=5_000))
    session.load_table("t", half_null_table(ROWS, seed=11))
    session.create_samples("t", ratio=0.1)
    yield session
    session.close()


def _hashed_on(session: VerdictSession, column: str) -> str:
    [info] = [
        info for info in session.samples("t")
        if info.sample_type == "hashed" and info.columns == (column,)
    ]
    return info.sample_table


def test_a_null_key_is_a_census(session):
    answer = session.sql("SELECT count(*) AS c FROM t")
    assert "hashed sample (x" in answer.plan_description
    interval = answer.confidence_interval("c")
    assert interval.lower <= ROWS <= interval.upper, interval

    session.append_data("t", half_null_table(2_000, seed=12))
    probabilities = session.connector.execute(
        f"SELECT vdb_sampling_prob FROM {_hashed_on(session, 'x')} WHERE x IS NULL"
    ).column("vdb_sampling_prob")
    assert len(probabilities) > ROWS // 3
    assert {float(p) for p in probabilities} == {1.0}


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT count(x) AS c, avg(x) AS a FROM t",
        "SELECT g, count(x) AS c, avg(x) AS a FROM t GROUP BY g ORDER BY g",
    ],
)
def test_count_and_avg_weigh_only_rows_whose_argument_is_not_null(session, sql):
    options = ExecutionOptions(sample_hint=_hashed_on(session, "y"))
    answer = session.sql(sql, options=options)
    assert not answer.is_exact, answer.plan_description
    exact = session.sql(sql, options=EXACT)
    for column in ("c", "a"):
        ours = answer.column(column).astype(float)
        truth = exact.column(column).astype(float)
        np.testing.assert_allclose(ours, truth, rtol=0.3)


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_count_distinct_scales_by_the_kept_share_of_non_null_keys(backend):
    # Half of x is NULL: the census of NULL keys makes the x-hashed sample's
    # row share 0.55, and dividing by it read 5,675 distinct values of 31,404.
    def table(rows: int, seed: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 50_000, rows).astype(np.float64)
        x[rng.random(rows) < 0.5] = np.nan
        return {"x": x}

    connector = BuiltinConnector(seed=3) if backend == "builtin" else SqliteConnector(seed=3)
    session = VerdictSession(connector)
    try:
        session.load_table("t", table(100_000, seed=9))
        session.create_sample("t", SampleSpec("hashed", ("x",), 0.1))
        sql = "SELECT count(DISTINCT x) AS d FROM t"
        for _ in range(2):  # as built, then after an append of NULLs and keys
            answer = session.sql(sql)
            assert not answer.is_exact, answer.plan_description
            exact = float(session.sql(sql, options=EXACT).fetchall()[0][0])
            assert float(answer.fetchall()[0][0]) == pytest.approx(exact, rel=0.05)
            interval = answer.confidence_interval("d")
            assert interval.lower <= exact <= interval.upper, interval
            session.append_data("t", table(20_000, seed=10))
    finally:
        session.close()


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_an_empty_string_key_is_a_census(backend):
    # crc32(b"") == 0: the empty string was kept always, like a NULL key, but
    # weighted 1/tau, so count(*) read 562,310 and count(DISTINCT) 7,199.
    def table(rows: int, seed: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        code = np.array([f"k{v}" for v in rng.integers(0, 20_000, rows)], dtype=object)
        code[rng.random(rows) < 0.2] = ""
        return {"code": code, "v": rng.normal(size=rows)}

    connector = BuiltinConnector(seed=3) if backend == "builtin" else SqliteConnector(seed=3)
    session = VerdictSession(connector)
    try:
        session.load_table("t", table(200_000, seed=1))
        session.create_sample("t", SampleSpec("hashed", ("code",), 0.1))
        for _ in range(2):  # as built, then after an append
            for sql in (
                "SELECT count(*) AS c FROM t",
                "SELECT count(DISTINCT code) AS c FROM t",
            ):
                answer = session.sql(sql)
                assert not answer.is_exact, answer.plan_description
                exact = float(session.sql(sql, options=EXACT).fetchall()[0][0])
                assert float(answer.fetchall()[0][0]) == pytest.approx(exact, rel=0.1), sql
            session.append_data("t", table(20_000, seed=2))
    finally:
        session.close()

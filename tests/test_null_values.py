"""NULLs in a hashed sample's key and in an aggregate's argument.

A hashed (universe) sample keeps a row when its key hashes below the
sampling ratio.  A key of NULLs only hashes as the empty string, below every
ratio, so every such row is kept: those rows are a census and carry
probability 1, in the built sample and in every appended batch alike.  And
``count(x)`` and ``avg(x)`` weigh only the rows whose ``x`` is not NULL, as
exact mode counts them.  Both hold on both connectors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.sample_planner import PlannerConfig
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

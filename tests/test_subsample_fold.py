"""The middleware fold of the per-(group, sid) rows against the two-level SQL.

Approximate statements run one ``GROUP BY <keys>, vdb_sid`` statement on the
backend; the middleware folds its rows into estimates and error bars and
applies the statement's tail (select arithmetic, HAVING, ORDER BY, LIMIT).
Before the fold existed, the rewriter wrapped that statement in a second SQL
level that did the same combination on the backend.  ``data/two_level_corpus.json``
holds that two-level text, with its bound parameters, for every statement of
:data:`CORPUS`, as the two-level rewriter emitted it for the tables and
samples :func:`fold_session` builds, on the built-in engine and on a seeded
SQLite connector.

Each folded answer must equal the recorded text run on the same backend: bit
for bit on the built-in engine (``ResultSet.equals``), and within a relative
1e-9 on SQLite, which sums in its own order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import ExecutionOptions, SampleSpec, VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.sample_planner import PlannerConfig
from repro.sqlengine import Database

CORPUS_PATH = Path(__file__).parent / "data" / "two_level_corpus.json"

SALES_ROWS = 20_000
REGIONS = np.array(["east", "west", "north", None], dtype=object)

#: key -> (statement, caller parameters, ExecutionOptions fields)
CORPUS: dict[str, tuple[str, list | None, dict]] = {
    "grouped_null_key": (
        "SELECT region, count(*) AS c, sum(price) AS s, avg(price) AS a "
        "FROM sales GROUP BY region",
        None,
        {},
    ),
    "ungrouped": (
        "SELECT count(*) AS c, sum(price) AS s, avg(qty) AS a FROM sales WHERE price > 3",
        None,
        {},
    ),
    "statistic": ("SELECT region, stddev(price) AS sd FROM sales GROUP BY region", None, {}),
    "ratio_of_aggregates": (
        "SELECT region, sum(price) / count(*) AS per_row FROM sales GROUP BY region",
        None,
        {},
    ),
    "having_lifted_literal": (
        "SELECT qty, count(*) AS c FROM sales GROUP BY qty HAVING count(*) > 2100",
        None,
        {},
    ),
    "having_scalar_subquery": (
        "SELECT region, sum(price) AS s FROM sales GROUP BY region "
        "HAVING sum(price) > (SELECT sum(price) / 4 FROM sales)",
        None,
        {},
    ),
    "order_desc_limit_offset": (
        "SELECT qty, sum(price) AS s FROM sales GROUP BY qty "
        "ORDER BY sum(price) DESC LIMIT 3 OFFSET 1",
        None,
        {},
    ),
    "order_by_alias": (
        "SELECT qty, avg(price) AS a FROM sales GROUP BY qty ORDER BY a",
        None,
        {},
    ),
    "sample_join_dimension": (
        "SELECT st.city, sum(s.price) AS s FROM sales s "
        "INNER JOIN stores st ON s.store_id = st.store_id GROUP BY st.city",
        None,
        {},
    ),
    "hashed_sample_join": (
        "SELECT count(*) AS c, sum(l.amount) AS s FROM sales s "
        "INNER JOIN lines l ON s.sale_id = l.sale_id",
        None,
        {},
    ),
    "nested_aggregate": (
        "SELECT avg(total) AS a FROM "
        "(SELECT store_id, sum(price) AS total FROM sales GROUP BY store_id) AS t",
        None,
        {},
    ),
    "without_errors": (
        "SELECT region, count(*) AS c, avg(price) AS a FROM sales GROUP BY region",
        None,
        {"include_errors": False},
    ),
    "bound_parameter": (
        "SELECT region, avg(price) AS a FROM sales WHERE qty > ? GROUP BY region",
        [4],
        {},
    ),
    "stratified_sample": (
        "SELECT region, sum(price) AS s, avg(price) AS a FROM sales GROUP BY region",
        None,
        {"sample_hint": "sales_vdb_stratified_region_0p1000"},
    ),
    "uniform_sample": (
        "SELECT qty, count(*) AS c, sum(price) AS s FROM sales GROUP BY qty ORDER BY qty",
        None,
        {"sample_hint": "sales_vdb_uniform_0p1000"},
    ),
}


def fold_tables(seed: int = 21) -> dict[str, dict[str, np.ndarray]]:
    """A fact table with a NULL-bearing key, its dimension and a second fact
    table that joins it on ``sale_id``."""
    rng = np.random.default_rng(seed)
    return {
        "sales": {
            "sale_id": np.arange(SALES_ROWS),
            "store_id": rng.integers(0, 40, SALES_ROWS),
            "price": rng.gamma(2.0, 5.0, SALES_ROWS),
            "qty": rng.integers(1, 10, SALES_ROWS),
            "region": REGIONS[rng.integers(0, len(REGIONS), SALES_ROWS)],
        },
        "stores": {
            "store_id": np.arange(40),
            "city": np.array([f"city{index % 7}" for index in range(40)], dtype=object),
        },
        "lines": {
            "sale_id": rng.integers(0, SALES_ROWS, 2 * SALES_ROWS),
            "amount": rng.exponential(4.0, 2 * SALES_ROWS),
        },
    }


def fold_session(backend: str) -> VerdictSession:
    """The recorded corpus's session: same tables, samples in the same order."""
    connector = (
        BuiltinConnector(database=Database(seed=7))
        if backend == "builtin"
        else SqliteConnector(seed=7)
    )
    session = VerdictSession(
        connector, planner_config=PlannerConfig(io_budget=0.5, large_table_rows=5_000)
    )
    for name, columns in fold_tables().items():
        session.load_table(name, columns)
    session.create_sample("sales", SampleSpec("uniform", (), 0.1))
    session.create_sample("sales", SampleSpec("stratified", ("region",), 0.1))
    session.create_sample("sales", SampleSpec("hashed", ("sale_id",), 0.1))
    session.create_sample("lines", SampleSpec("hashed", ("sale_id",), 0.1))
    return session


def run_corpus_statement(session: VerdictSession, key: str):
    statement, params, options = CORPUS[key]
    return session.execute(statement, params, ExecutionOptions(**options))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(CORPUS_PATH.read_text())


@pytest.fixture(scope="module")
def builtin_session():
    session = fold_session("builtin")
    yield session
    session.close()


@pytest.fixture(scope="module")
def sqlite_session():
    session = fold_session("sqlite")
    yield session
    session.close()


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_fold_is_bit_identical_to_the_two_level_sql_on_the_engine(
    builtin_session, recorded, key
):
    answer = run_corpus_statement(builtin_session, key)
    assert not answer.is_exact, answer.plan_description
    # One statement on the backend: no combining level, no error arithmetic.
    emitted = answer.rewritten_sql
    assert "vdb_inner" not in emitted and "sqrt" not in emitted
    assert ("stddev" in emitted) == ("stddev" in CORPUS[key][0])
    entry = recorded["builtin"][key]
    two_level = builtin_session.connector.execute(entry["sql"], entry["params"])
    assert answer.raw.equals(two_level), (answer.raw.fetchall(), two_level.fetchall())


def _close(ours, theirs) -> bool:
    if theirs is None or (isinstance(theirs, float) and math.isnan(theirs)):
        return ours is None or (isinstance(ours, float) and math.isnan(ours))
    if isinstance(theirs, str) or isinstance(ours, str):
        return ours == theirs
    return math.isclose(float(ours), float(theirs), rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_fold_matches_the_two_level_sql_on_sqlite(sqlite_session, recorded, key):
    answer = run_corpus_statement(sqlite_session, key)
    assert not answer.is_exact, answer.plan_description
    entry = recorded["sqlite"][key]
    two_level = sqlite_session.connector.execute(entry["sql"], entry["params"])
    assert answer.raw.column_names == two_level.column_names
    ours = [[value.item() if isinstance(value, np.generic) else value for value in row]
            for row in answer.raw.fetchall()]
    theirs = two_level.fetchall()
    assert len(ours) == len(theirs)
    for our_row, their_row in zip(ours, theirs):
        assert all(_close(a, b) for a, b in zip(our_row, their_row)), (our_row, their_row)


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_empty_selection_counts_zero_and_leaves_the_rest_null(
    backend, builtin_session, sqlite_session
):
    """No sample row: an ungrouped query still has its one row, where every
    count estimates 0 and every other estimate and every error is NULL (no
    row gives no spread); a grouped query has no row."""
    session = builtin_session if backend == "builtin" else sqlite_session
    answer = session.sql(
        "SELECT count(*) AS c, sum(price) AS s, avg(price) AS a FROM sales WHERE price < 0"
    )
    assert not answer.is_exact, answer.plan_description
    assert answer.raw.column_names == ["c", "c_err", "s", "s_err", "a", "a_err"]
    [(count, *rest)] = answer.fetchall(include_errors=True)
    assert count == 0
    assert all(np.isnan(value) for value in rest)

    grouped = session.sql(
        "SELECT region, count(*) AS c FROM sales WHERE price < 0 GROUP BY region"
    )
    assert not grouped.is_exact, grouped.plan_description
    assert grouped.raw.column_names == ["region", "c", "c_err"]
    assert grouped.num_rows == 0


@pytest.mark.parametrize("direction", ["", " DESC"])
def test_sqlite_group_keys_sort_as_sqlite_sorts_them(sqlite_session, direction):
    """SQLite returns python objects; the fold orders a key of numbers by
    value (10 after 9) and NULL first ascending, last descending, as SQLite."""
    for column in ("store_id", "region"):
        sql = f"SELECT {column}, count(*) AS c FROM sales GROUP BY {column} ORDER BY {column}"
        answer = sqlite_session.sql(sql + direction)
        assert not answer.is_exact, answer.plan_description
        exact = sqlite_session.execute_exact(sql + direction)
        assert list(answer.column(column)) == list(exact.column(column))


def test_group_keys_are_numbered_from_the_backend_codes(builtin_session):
    """String group keys reuse the dictionary codes the engine attached to
    the per-subsample rows: the fold never re-encodes them."""
    import repro.sqlengine.encoding as encoding

    statement = CORPUS["grouped_null_key"][0]
    run_corpus_statement(builtin_session, "grouped_null_key")
    calls = []
    original = encoding.encode_object_array

    def counting(array):
        calls.append(len(array))
        return original(array)

    encoding.encode_object_array = counting
    try:
        builtin_session.sql(statement)
    finally:
        encoding.encode_object_array = original
    assert calls == []


def test_a_tail_with_rand_runs_exactly(builtin_session):
    """The fold has no random stream of the engine's to draw ``rand()`` from."""
    answer = builtin_session.sql(
        "SELECT region, sum(price) * rand() AS s FROM sales GROUP BY region"
    )
    assert answer.is_exact
    assert "cannot fold" in answer.plan_description


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
@pytest.mark.parametrize("mode", ["approximate", "exact"])
def test_an_order_by_ordinal_sorts_by_that_column(builtin_session, sqlite_session, backend, mode):
    session = builtin_session if backend == "builtin" else sqlite_session
    result = session.execute(
        "SELECT region, avg(price) AS a FROM sales GROUP BY region ORDER BY 2 DESC",
        options=ExecutionOptions(mode=mode),
    )
    assert result.is_exact == (mode == "exact")
    averages = [float(a) for a in result.column("a")]
    assert averages == sorted(averages, reverse=True)
    assert len(averages) == 4  # east, north, west and the NULL region

"""Key-index joins: a join probes a table's cached unique-key index.

``Table.key_index`` sorts a numeric column once per table version and keeps
the sort only when the column is a key (unique and NaN-free, int64 compared
exactly); ``Executor._build_join`` then finds each probe row's match with one
``searchsorted`` instead of re-encoding both inputs.  The hash join stays the
reference: ``Database(optimize=False)`` never takes the index path, so every
check here is a differential against it — same rows, same pair order.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro
from repro import ExecutionOptions
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.faults import QueryDeadline
from repro.sqlengine import Database, executor
from repro.sqlengine.table import Table

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from e2e import build, queries  # noqa: E402  (the benchmark's data and statements)

BIG = 2**53

JOIN = "SELECT f.rid AS fr, d.rid AS dr FROM f JOIN d ON f.k = d.id"


def engines(tables: dict[str, dict[str, np.ndarray]], **kwargs) -> tuple[Database, Database]:
    """An optimized engine and its ``optimize=False`` twin over ``tables``."""
    pair = (Database(seed=0, **kwargs), Database(seed=0, optimize=False, **kwargs))
    for engine in pair:
        for name, columns in tables.items():
            engine.register_table(name, columns)
    return pair


def star_tables(dim_rows: int = 500, fact_rows: int = 3000, seed: int = 4):
    rng = np.random.default_rng(seed)
    return {
        "f": {
            "rid": np.arange(fact_rows),
            "k": rng.integers(-20, dim_rows + 20, fact_rows),
            "x": rng.normal(size=fact_rows),
            "j": rng.integers(0, 3, fact_rows),
        },
        "d": {
            "rid": np.arange(dim_rows),
            "id": rng.permutation(dim_rows),
            "g": rng.integers(0, 5, dim_rows),
            "y": rng.normal(size=dim_rows),
            "j": rng.integers(0, 3, dim_rows),
            "name": np.array([f"n{i % 7}" for i in range(dim_rows)], dtype=object),
        },
    }


def assert_same(optimized: Database, naive: Database, sql: str):
    fast, slow = optimized.execute(sql), naive.execute(sql)
    assert fast.equals(slow), sql
    return fast


# ---------------------------------------------------------------------------
# differential: index path vs the hash join
# ---------------------------------------------------------------------------

INT_KEYS = st.one_of(
    st.integers(-40, 400), st.sampled_from([BIG, BIG + 1, BIG + 2, -BIG - 1])
)
FLOAT_KEYS = st.one_of(
    st.integers(-40, 400).map(float),
    st.sampled_from([0.0, -0.0, 0.5, float("nan"), float(BIG), float(BIG + 2)]),
)


@st.composite
def key_column(draw, max_rows: int):
    kind = draw(st.sampled_from(["int", "float", "bool"]))
    unique = draw(st.booleans())
    if kind == "bool":
        values = draw(st.lists(st.booleans(), max_size=2 if unique else max_rows, unique=unique))
        return np.array(values, dtype=bool)
    elements = INT_KEYS if kind == "int" else FLOAT_KEYS
    values = draw(st.lists(elements, max_size=max_rows, unique=unique))
    return np.array(values, dtype=np.int64 if kind == "int" else np.float64)


@st.composite
def join_tables(draw):
    dim_keys = draw(key_column(max_rows=160))
    fact_keys = draw(key_column(max_rows=120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if len(dim_keys) and draw(st.booleans()):
        # Probe with the dimension's own keys (as a fact table would).
        fact_keys = rng.choice(dim_keys, len(fact_keys)) if len(fact_keys) else dim_keys[:0]
    dims, facts = len(dim_keys), len(fact_keys)
    return {
        "d": {
            "rid": np.arange(dims),
            "id": dim_keys,
            "y": rng.normal(size=dims),
            "j": rng.integers(0, 3, dims),
        },
        "f": {
            "rid": np.arange(facts),
            "k": fact_keys,
            "x": rng.normal(size=facts),
            "j": rng.integers(0, 3, facts),
        },
    }


DIFFERENTIAL = [
    JOIN,  # base table on the right
    "SELECT f.rid AS fr, d.rid AS dr FROM d JOIN f ON d.id = f.k",  # ... on the left
    JOIN + " WHERE d.rid >= {cut} AND d.y > -0.5",  # range + filter on the indexed side
    "SELECT f.rid AS fr, d.rid AS dr FROM d JOIN f ON f.k = d.id "
    "WHERE d.rid < {cut} AND f.rid >= {cut}",
    "SELECT p.rid AS pr, q.rid AS qr FROM d AS p JOIN d AS q ON p.id = q.id",  # self-join
    JOIN + " AND f.j = d.j",  # two pairs, one indexable
    "SELECT t.fr, d.rid AS dr FROM (SELECT rid AS fr, k FROM f WHERE x > 0) AS t "
    "JOIN d ON t.k = d.id",  # derived table probing
    "SELECT d.j, count(*) AS n, sum(f.x) AS s FROM f JOIN d ON f.k = d.id "
    "WHERE d.y < 1.0 GROUP BY d.j ORDER BY d.j",
]


@given(join_tables(), st.integers(0, 160))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_index_path_reproduces_the_hash_join(tables, cut):
    optimized, naive = engines(tables)
    for template in DIFFERENTIAL:
        assert_same(optimized, naive, template.format(cut=cut))
    assert naive.stats["key_index_joins"] == 0
    assert naive.stats["key_index_builds"] == 0


@pytest.mark.parametrize("sql", [template.format(cut=200) for template in DIFFERENTIAL])
def test_every_differential_shape_takes_the_index_path_on_a_unique_key(sql):
    optimized, naive = engines(star_tables())
    assert_same(optimized, naive, sql)
    assert optimized.stats["key_index_joins"] == 1


def test_index_on_the_left_emits_left_major_pairs():
    # d (left) is the indexed side and holds more rows than f.
    tables = star_tables(dim_rows=800, fact_rows=50)
    optimized, naive = engines(tables)
    sql = "SELECT d.rid AS dr, f.rid AS fr FROM d JOIN f ON d.id = f.k"
    result = assert_same(optimized, naive, sql)
    assert optimized.stats["key_index_joins"] == 1
    left = result.column("dr").astype(np.int64)
    assert np.all(np.diff(left) >= 0)


@pytest.mark.parametrize(
    "keys",
    [
        np.array([3, 1, 3, 2]),  # duplicate
        np.array([1.0, np.nan, 2.0]),  # NULL
        np.array([np.nan]),
        np.array([0.0, -0.0, 1.0]),  # equal as floats
        np.array([BIG + 1, 5, BIG + 1], dtype=np.int64),  # duplicate above 2**53
        np.array([True, False, True]),
    ],
    ids=["duplicate", "nan", "only-nan", "signed-zero", "above-2^53", "bool-duplicate"],
)
def test_columns_that_are_not_keys_stay_on_the_hash_path(keys):
    tables = {
        "d": {"rid": np.arange(len(keys)), "id": keys},
        "f": {"rid": np.arange(6), "k": np.array([0.0, -0.0, 1.0, 3.0, float(BIG), np.nan])},
    }
    optimized, naive = engines(tables)
    assert optimized.table("d").key_index("id") is None
    assert_same(optimized, naive, JOIN)
    assert optimized.stats["key_index_joins"] == 0


def test_bool_and_int_probes_match_float_keys_as_the_hash_join_does():
    tables = {
        "d": {"rid": np.arange(4), "id": np.array([0.0, 1.0, 2.5, float(BIG)])},
        "f": {"rid": np.arange(5), "k": np.array([True, False, True, False, True])},
        "g": {"rid": np.arange(4), "k": np.array([BIG + 1, 1, 0, 3], dtype=np.int64)},
    }
    optimized, naive = engines(tables)
    result = assert_same(optimized, naive, JOIN)
    assert result.num_rows == 5
    result = assert_same(
        optimized, naive, "SELECT g.rid AS gr, d.rid AS dr FROM g JOIN d ON g.k = d.id"
    )
    # 2**53 + 1 matches no float: 2.0**53 is a different number.
    assert result.fetchall() == [(1, 1), (2, 0)]
    assert optimized.stats["key_index_joins"] == 2


def test_empty_tables_join_to_nothing():
    empty = {"rid": np.arange(0), "id": np.array([], dtype=np.int64)}
    tables = {"d": empty, "f": {"rid": np.arange(3), "k": np.array([1, 2, 3])}}
    optimized, naive = engines(tables)
    assert assert_same(optimized, naive, JOIN).num_rows == 0
    assert optimized.stats["key_index_joins"] == 1


def test_grouped_and_filtered_index_joins_answer_as_the_hash_join():
    optimized, naive = engines(star_tables(dim_rows=2000, fact_rows=6000))
    for sql in (
        "SELECT d.g, count(*) AS n, sum(f.j) AS s FROM f JOIN d ON f.k = d.id "
        "GROUP BY d.g ORDER BY d.g",
        JOIN + " WHERE d.g = 2",
    ):
        assert_same(optimized, naive, sql)
    assert optimized.stats["key_index_joins"] == 2


def test_a_large_build_side_with_repeated_keys_hashes():
    tables = {
        "f": {"rid": np.arange(200), "k": np.arange(200) % 10},  # 7, 8, 9 match nothing
        "d": {
            "rid": np.arange(5000),
            "id": np.arange(5000) % 7,
            "name": np.array([f"r{i % 7}" for i in range(5000)], dtype=object),
        },
    }
    optimized, naive = engines(tables)
    result = assert_same(
        optimized, naive,
        "SELECT d.name, count(*) AS n FROM f JOIN d ON f.k = d.id GROUP BY d.name ORDER BY d.name",
    )
    assert result.num_rows == 7
    assert optimized.stats["key_index_joins"] == 0


def test_object_keys_and_two_column_keys_use_the_hash_path():
    rng = np.random.default_rng(1)
    tables = {
        "ps": {
            "pk": np.repeat(np.arange(50), 4),
            "sk": np.tile(np.arange(4), 50),
            "cost": rng.normal(size=200),
        },
        "l": {"pk": rng.integers(0, 50, 300), "sk": rng.integers(0, 4, 300)},
        "names": {"id": np.array(["a", "b", "c"], dtype=object)},
        "refs": {"id": np.array(["b", "b", "z"], dtype=object)},
    }
    optimized, naive = engines(tables)
    assert_same(
        optimized, naive,
        "SELECT sum(ps.cost) AS c FROM l JOIN ps ON l.pk = ps.pk AND l.sk = ps.sk",
    )
    assert_same(optimized, naive, "SELECT refs.id FROM refs JOIN names ON refs.id = names.id")
    assert optimized.stats["key_index_joins"] == 0


# ---------------------------------------------------------------------------
# index lifecycle
# ---------------------------------------------------------------------------


def test_index_is_lazy_and_reused_across_statements():
    optimized, naive = engines(star_tables())
    assert optimized.stats["key_index_builds"] == 0
    assert_same(optimized, naive, "SELECT count(*) AS n FROM d WHERE id > 10")
    assert optimized.stats["key_index_builds"] == 0
    assert_same(optimized, naive, JOIN)
    # f.k (not a key) and d.id (a key): one build each.
    assert optimized.stats["key_index_builds"] == 2
    for _ in range(3):
        assert_same(optimized, naive, JOIN + " WHERE d.g = 1")
    assert optimized.stats["key_index_builds"] == 2
    assert optimized.stats["key_index_joins"] == 4


def test_mutations_invalidate_the_index():
    optimized, naive = engines(star_tables())
    assert_same(optimized, naive, JOIN)
    builds = optimized.stats["key_index_builds"]
    dim_version = optimized.table("d").version

    batch = {"rid": np.array([500]), "id": np.array([600]), "g": np.array([1]),
             "y": np.array([0.5]), "j": np.array([1]), "name": np.array(["n9"], dtype=object)}
    for engine in (optimized, naive):
        engine.append_columns("d", batch)
    assert optimized.table("d").version != dim_version
    assert_same(optimized, naive, JOIN + " WHERE f.k < 0 OR d.id = 600")
    assert optimized.stats["key_index_builds"] == builds + 1  # d.id only
    builds += 1

    # INSERT of a duplicate key: the column stops being a key.
    for engine in (optimized, naive):
        engine.execute("INSERT INTO d (rid, id, g, y, j, name) VALUES (501, 7, 2, 0.0, 0, 'n0')")
    joins = optimized.stats["key_index_joins"]
    assert_same(optimized, naive, JOIN)
    assert optimized.stats["key_index_builds"] == builds + 1
    assert optimized.stats["key_index_joins"] == joins
    builds += 1

    # CTAS replacement: a new table behind the same name.
    for engine in (optimized, naive):
        engine.execute("DROP TABLE d")
        engine.execute("CREATE TABLE d AS SELECT rid, rid AS id, j AS g FROM f WHERE rid < 400")
    assert_same(optimized, naive, JOIN)
    assert optimized.stats["key_index_builds"] == builds + 1
    assert optimized.stats["key_index_joins"] == joins + 1


def test_not_a_key_verdict_survives_an_append():
    table = Table("t", {"k": np.array([1, 1, 2]), "v": np.array([0.0, 1.0, 2.0])})
    built = []
    assert table.key_index("k", on_build=lambda: built.append("k")) is None
    assert table.key_index("v", on_build=lambda: built.append("v")) is not None
    table.append_columns({"k": np.array([9]), "v": np.array([9.0])})
    assert table.key_index("k", on_build=lambda: built.append("k")) is None
    assert table.key_index("v", on_build=lambda: built.append("v")) is not None
    assert built == ["k", "v", "v"]  # the verdict stayed; the index was rebuilt
    table.add_column("k", np.array([4, 3, 2, 1]))  # any other mutation drops it
    index = table.key_index("k", on_build=lambda: built.append("k"))
    assert built[-1] == "k"
    assert index.order.tolist() == [3, 2, 1, 0]


def test_concurrent_first_requests_build_once():
    table = Table("t", {"k": np.random.default_rng(2).permutation(50_000)})
    builds = []
    start = threading.Barrier(8)
    results = []

    def request():
        start.wait(timeout=10)
        results.append(table.key_index("k", on_build=lambda: builds.append(1)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len(results) == 8 and all(index is results[0] for index in results)


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("interrupt", ["cancel", "deadline"])
def test_interrupt_during_an_index_join_raises_the_typed_error(monkeypatch, interrupt):
    optimized, _ = engines(star_tables())
    deadline = QueryDeadline(timeout_seconds=30.0 if interrupt == "cancel" else 0.05)
    original = Table.key_index
    calls = []

    def interrupted(self, name, on_build=None):
        calls.append(name)
        if interrupt == "cancel":
            deadline.cancel()
        else:
            time.sleep(0.1)
        return original(self, name, on_build)

    monkeypatch.setattr(Table, "key_index", interrupted)
    expected = QueryCancelledError if interrupt == "cancel" else QueryTimeoutError
    with pytest.raises(expected):
        optimized.execute(JOIN, deadline=deadline)
    assert calls
    assert optimized.stats["key_index_joins"] == 0


# ---------------------------------------------------------------------------
# the benchmark's statements
# ---------------------------------------------------------------------------


def test_benchmark_statements_take_the_index_path_and_build_nothing_at_setup():
    dataset = build.generate(3, 0.2)
    database, connection = build.build_engine(dataset)
    try:
        assert database.stats["key_index_builds"] == 0
        cursor = connection.cursor()
        ops = queries.dash_ops(3)[:6] + queries.tpch_ops()
        exact = ExecutionOptions(mode="exact")

        def run_all():
            for op in ops:
                cursor.execute(op.text, op.params)
                cursor.fetchall()
                connection.execute(op.text, op.params, options=exact).fetchall()

        run_all()
        builds = database.stats["key_index_builds"]
        joins = database.stats["key_index_joins"]
        assert builds > 0 and joins > 0
        run_all()
        assert database.stats["key_index_builds"] == builds  # reused, not rebuilt
        assert database.stats["key_index_joins"] == 2 * joins
    finally:
        connection.close()
        database.close()


# ---------------------------------------------------------------------------
# key semantics against SQLite (the index path keeps them)
# ---------------------------------------------------------------------------


def test_null_keys_never_match(both_backends, answers):
    engine, sqlite = both_backends(
        {"a": {"k": np.array([1.0, np.nan])}, "b": {"j": np.array([1.0, np.nan])}}
    )
    try:
        where = answers(engine, sqlite, "SELECT count(*) AS n FROM a, b WHERE a.k = b.j")
        assert where[0] == where[1] == [(1,)]
        on = answers(engine, sqlite, "SELECT count(*) AS n FROM a JOIN b ON a.k = b.j")
        assert on[0] == on[1]
    finally:
        sqlite.close()


def test_a_null_in_any_key_column_matches_nothing():
    tables = {
        "d": {
            "rid": np.arange(4),
            "id": np.arange(4),
            "j": np.array([1.0, np.nan, 2.0, np.nan]),
            "s": np.array(["x", None, "y", None], dtype=object),
        },
        "f": {
            "rid": np.arange(5),
            "k": np.array([0, 1, 2, 3, 3]),
            "j": np.array([1.0, np.nan, 2.0, 5.0, np.nan]),
            "s": np.array(["x", None, "y", "z", None], dtype=object),
        },
    }
    optimized, naive = engines(tables)
    pairs = "SELECT f.rid AS fr, d.rid AS dr FROM f JOIN d ON "
    for condition in (
        "f.k = d.id AND f.j = d.j",  # the index pair, then a NULL-bearing pair
        "f.k = d.id AND f.s = d.s",
        "f.j = d.j",  # hash path, float keys
        "f.s = d.s",  # hash path, dictionary-coded object keys
        "f.s = d.s AND f.j = d.j",
    ):
        result = assert_same(optimized, naive, pairs + condition + " ORDER BY fr")
        assert result.fetchall() == [(0, 0), (2, 2)], condition
    assert optimized.stats["key_index_joins"] == 2


def test_null_safe_pairs_match_null_to_null(monkeypatch, both_backends, answers):
    """``a = b OR (a IS NULL AND b IS NULL)`` joins as an equi pair whose
    NULLs match, on both paths, as the same predicate in WHERE and SQLite."""
    tables = {
        "d": {
            "rid": np.arange(4),
            "id": np.arange(4),
            "j": np.array([1.0, np.nan, 2.0, np.nan]),
            "s": np.array(["x", None, "y", None], dtype=object),
        },
        "f": {
            "rid": np.arange(5),
            "k": np.array([0, 1, 2, 3, 3]),
            "j": np.array([1.0, np.nan, 2.0, 5.0, np.nan]),
            "s": np.array(["x", None, "y", "z", None], dtype=object),
        },
    }
    optimized, naive = engines(tables)
    engine, sqlite = both_backends(tables)
    try:
        expected = {
            "f.k = d.id AND (f.j = d.j OR (f.j IS NULL AND d.j IS NULL))": [
                (0, 0), (1, 1), (2, 2), (4, 3),
            ],
            "(f.s = d.s OR (f.s IS NULL AND d.s IS NULL))": [
                (0, 0), (1, 1), (1, 3), (2, 2), (4, 1), (4, 3),
            ],
            "(d.j = f.j OR (f.j IS NULL AND d.j IS NULL)) AND f.j = f.j": [(0, 0), (2, 2)],
        }
        for condition, pairs in expected.items():
            ordered = " ORDER BY fr, dr"
            on = f"SELECT f.rid AS fr, d.rid AS dr FROM f JOIN d ON {condition}{ordered}"
            where = f"SELECT f.rid AS fr, d.rid AS dr FROM f, d WHERE {condition}{ordered}"
            assert naive.execute(where).fetchall() == pairs, condition
            with monkeypatch.context() as patch:  # an equi pair: never a cross join
                patch.setattr(executor, "_cross_join_indices", None)
                assert assert_same(optimized, naive, on).fetchall() == pairs, condition
            ours, theirs = answers(engine, sqlite, on)
            assert ours == theirs == pairs, condition
    finally:
        sqlite.close()
    assert optimized.stats["key_index_joins"] == 1


def test_int64_keys_above_2_53_compare_exactly(both_backends, answers):
    """2**53 and 2**53 + 1 are two keys on every route, as in SQLite: GROUP
    BY, JOIN, ``=``, ``>`` and ``IN``, COUNT(DISTINCT), and an int64 =
    float64 join by exact value."""
    tables = {
        "a": {"k": np.array([1, BIG, BIG + 1, BIG + 1], dtype=np.int64), "r": np.arange(4)},
        "b": {"j": np.array([BIG + 1], dtype=np.int64)},
        "c": {"x": np.array([float(BIG), 1.0])},
    }
    expected = {
        "SELECT k, count(*) AS n FROM a GROUP BY k ORDER BY k": [(1, 1), (BIG, 1), (BIG + 1, 2)],
        "SELECT a.r FROM a JOIN b ON a.k = b.j ORDER BY a.r": [(2,), (3,)],
        f"SELECT r FROM a WHERE k = {BIG + 1} ORDER BY r": [(2,), (3,)],
        f"SELECT r FROM a WHERE k > {BIG} ORDER BY r": [(2,), (3,)],
        f"SELECT r FROM a WHERE k IN ({BIG + 1}) ORDER BY r": [(2,), (3,)],
        "SELECT count(DISTINCT k) AS n FROM a": [(3,)],
        "SELECT a.r, c.x FROM a JOIN c ON a.k = c.x ORDER BY a.r": [(0, 1.0), (1, float(BIG))],
    }
    optimized, naive = engines(tables)
    engine, sqlite = both_backends(tables)
    try:
        for sql, rows in expected.items():
            assert_same(optimized, naive, sql)
            ours, theirs = answers(engine, sqlite, sql)
            assert ours == theirs == rows, sql
    finally:
        sqlite.close()
    assert optimized.stats["key_index_joins"] == 2


def test_null_keys_match_nothing_and_int64_keys_compare_exactly_on_both_paths(
    both_backends, answers
):
    """A NULL key matches nothing, and an int64 key above 2**53 matches no
    float it rounds to, with and without the index path (SQLite's answers)."""
    tables = {
        "a": {"k": np.array([1.0, np.nan, float(BIG)]), "r": np.arange(3)},
        "b": {"j": np.array([BIG + 1, 1], dtype=np.int64)},
        "c": {"j": np.array([np.nan, 1.0])},
    }
    optimized, naive = engines(tables)
    engine, sqlite = both_backends(tables)
    try:
        for other in ("b", "c"):
            sql = f"SELECT a.r FROM a JOIN {other} ON a.k = {other}.j"
            assert assert_same(optimized, naive, sql).fetchall() == [(0,)]
            ours, theirs = answers(engine, sqlite, sql)
            assert ours == theirs == [(0,)], sql
    finally:
        sqlite.close()
    assert optimized.stats["key_index_joins"] == 1  # c.j holds a NULL: not a key


# ---------------------------------------------------------------------------
# key-semantics differential against SQLite
# ---------------------------------------------------------------------------

INT64 = np.iinfo(np.int64)
EDGE_INTS = [0, 1, -1, BIG - 1, BIG, BIG + 1, BIG + 2, -BIG, -BIG - 1,
             INT64.min, INT64.min + 1, INT64.max - 1, INT64.max]
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, float(BIG), float(BIG + 2), -float(BIG),
               2.0**63, -(2.0**63), math.inf, -math.inf, math.nan]
SEMANTIC_VALUES = {
    "int": st.one_of(st.sampled_from(EDGE_INTS), st.integers(-3, 3)),
    "float": st.one_of(st.sampled_from(EDGE_FLOATS), st.integers(-3, 3).map(float)),
    "bool": st.booleans(),
    "object": st.one_of(
        st.none(),
        st.sampled_from(["", "a", "ab", "b", "B", "\x00a", "a\x00", "\x00", "\x00\x00", "\x01"]),
    ),
}
# Strings that differ only by trailing NULs: five keys on both backends.
NUL_STRINGS = ["a", "a\x00", "\x00", "\x00\x00", ""]
SEMANTIC_DTYPES = {"int": np.int64, "float": np.float64, "bool": bool, "object": object}
# An int column drawn from one of these nine-value ranges has a span of 9:
# coded by offset from five rows on, sorted below that.
DENSE_INT_BASES = [-4, BIG - 4, INT64.min, INT64.max - 8]


@st.composite
def semantic_tables(draw):
    """Two tables ``t(k, rid)`` and ``u(j, rid)`` of up to 12 rows.  Both key
    columns are numeric (int64, float64 or bool, mixed freely) or both are
    strings with None.  An int column is either drawn value by value or
    from one small range, so both sides of the codec's span rule occur."""
    kinds = draw(
        st.one_of(
            st.tuples(*[st.sampled_from(["int", "float", "bool"])] * 2),
            st.just(("object", "object")),
        )
    )
    tables, constants = {}, []
    for name, column, kind in (("t", "k", kinds[0]), ("u", "j", kinds[1])):
        strategy = SEMANTIC_VALUES[kind]
        if kind == "int" and draw(st.booleans()):
            low = draw(st.sampled_from(DENSE_INT_BASES))
            strategy = st.integers(low, low + 8)
        values = draw(st.lists(strategy, max_size=12))
        tables[name] = {
            column: np.array(values, dtype=SEMANTIC_DTYPES[kind]),
            "rid": np.arange(len(values)),
        }
        constants += [value for value in values if value is not None]
    constants += EDGE_INTS + EDGE_FLOATS if kinds[0] != "object" else ["a", "c"]
    picked = draw(st.lists(st.sampled_from(constants), min_size=2, max_size=2))
    return tables, [value.item() if isinstance(value, np.generic) else value for value in picked]


SEMANTIC_STATEMENTS = [
    ("SELECT t.rid AS a, u.rid AS b FROM t JOIN u ON t.k = u.j", False),
    ("SELECT t.rid AS a, u.rid AS b FROM t, u WHERE t.k = u.j", False),
    ("SELECT t.rid AS a, u.rid AS b FROM t, u WHERE t.k < u.j", False),
    ("SELECT t.rid AS a, u.rid AS b FROM t, u WHERE t.k > u.j", False),
    ("SELECT k, count(*) AS n FROM t GROUP BY k", False),
    ("SELECT DISTINCT k FROM t", False),
    ("SELECT count(DISTINCT k) AS n FROM t", True),
    ("SELECT count(DISTINCT j) AS n FROM u", True),
    ("SELECT k, count(*) AS n FROM t WHERE k IS NOT NULL GROUP BY k ORDER BY k", True),
    ("SELECT count(DISTINCT k) AS n, count(*) AS m FROM t WHERE k IS NOT NULL", True),
    ("SELECT rid FROM t WHERE k IN (?, ?)", False),
    ("SELECT rid FROM t WHERE k = ?", False),
    ("SELECT rid FROM t WHERE k < ?", False),
    ("SELECT rid FROM t WHERE k > ?", False),
    (f"SELECT rid FROM t WHERE k = {-BIG - 1}", False),
    # 2**63 fits no int64: both backends read it as a real.
    ("SELECT rid FROM t WHERE k > 9223372036854775808", False),
    ("SELECT rid FROM t WHERE k > -9223372036854775808", False),
    ("SELECT rid FROM t WHERE k IS NOT NULL ORDER BY k, rid", True),
    ("SELECT rid FROM t WHERE k IS NOT NULL ORDER BY k DESC, rid", True),
    # A sum over no row, or over NULLs only, is NULL.
    ("SELECT sum(rid) AS s FROM t WHERE rid < 0", False),
    ("SELECT rid, sum(CASE WHEN rid < 0 THEN rid END) AS s FROM t GROUP BY rid", False),
    # A NULL (or NaN) operand satisfies no negated predicate, and a NULL
    # member leaves NOT IN true for no row.
    ("SELECT rid FROM t WHERE k <> ?", False),
    ("SELECT rid FROM t WHERE k NOT IN (?, ?)", False),
    ("SELECT rid FROM t WHERE k NOT IN (?, NULL)", False),
    ("SELECT rid FROM t WHERE k NOT BETWEEN ? AND ?", False),
    ("SELECT rid FROM t WHERE k NOT LIKE 'a%'", False),
]


@given(semantic_tables())
@example(
    (
        {
            "t": {"k": np.array(NUL_STRINGS, dtype=object), "rid": np.arange(5)},
            "u": {"j": np.array(NUL_STRINGS[::-1], dtype=object), "rid": np.arange(5)},
        },
        ["a\x00", "\x00"],
    )
)
@example(
    (
        {
            "t": {"k": np.array([1.0, 2.0, math.nan, 4.0]), "rid": np.arange(4)},
            "u": {"j": np.array([1.0, math.nan, 3.0]), "rid": np.arange(3)},
        },
        [0, 1],
    )
)
@example(
    (
        {
            "t": {"k": np.array(["ab", None, "cd", "ax"], dtype=object), "rid": np.arange(4)},
            "u": {"j": np.array(["zz", None], dtype=object), "rid": np.arange(2)},
        },
        ["ab", "zz"],
    )
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_key_semantics_match_sqlite(both_backends, answers, case):
    """JOIN, GROUP BY, DISTINCT, COUNT(DISTINCT), IN, ``=``, ``<``, ``>``,
    ``<>``, NOT IN, NOT BETWEEN, NOT LIKE and ORDER BY over int64 keys around ±2**53 and at int64 min/max, float64
    keys with NaN, ±0.0 and ±inf, bool keys and string keys with None and
    NULs (the explicit example holds five strings that differ only by
    trailing NULs), as SQLite answers them.

    Normalisation: a float NaN is the engine's NULL and SQLite stores it as
    NULL, so NaN in an answer reads as None; bool answers read as 0/1 and
    counts compare as numbers.  Answers without ORDER BY compare as sorted
    row lists.  ORDER BY drops NULL keys: SQLite sorts NULL first, the
    engine sorts a float NaN last.

    A predicate stays two-valued in the engine: ``NOT (k IN (1, NULL))``
    holds for the non-NULL keys where SQLite's is NULL, so no statement here
    negates a predicate with ``NOT (...)``.

    Object columns mixing numbers and strings are left out on purpose: the
    engine compares an object column as the normalized strings of its
    values (``1`` and ``1.0`` are two keys, "1" and "1.0"), its documented
    rule, while SQLite compares by storage class.
    """
    tables, constants = case
    engine, sqlite = both_backends(tables)
    try:
        for sql, ordered in SEMANTIC_STATEMENTS:
            params = constants[: sql.count("?")] or None
            ours, theirs = answers(engine, sqlite, sql, params, ordered)
            assert ours == theirs, (sql, params)
    finally:
        sqlite.close()


def test_negation_matches_sqlite(both_backends, answers):
    """Unary minus over an int or bool column is exact int64, so a negative
    literal below -2**53 compares exactly; only the int64 minimum, whose
    negation no int64 holds, negates to a float, as SQLite's real."""
    tables = {
        "a": {"k": np.array([-BIG - 1, -BIG, BIG + 1, 0, 3], dtype=np.int64)},
        "b": {"k": np.array([INT64.min, 3], dtype=np.int64)},
        "c": {"k": np.array([True, False])},
    }
    expected = {
        f"SELECT k FROM a WHERE k = {-BIG - 1}": [(-BIG - 1,)],
        f"SELECT k FROM a WHERE k < {-BIG}": [(-BIG - 1,)],
        "SELECT -k AS n FROM a": [(BIG + 1,), (BIG,), (-BIG - 1,), (0,), (-3,)],
        "SELECT -k AS n FROM b": [(2.0**63,), (-3.0,)],
        "SELECT -k AS n FROM c": [(-1,), (0,)],
    }
    engine, sqlite = both_backends(tables)
    try:
        for sql, rows in expected.items():
            ours, theirs = answers(engine, sqlite, sql)
            assert ours == theirs == rows, sql
    finally:
        sqlite.close()
    negated = engine.execute("SELECT -k AS n FROM b").column("n")
    assert negated.dtype == np.float64


def test_connect_uses_the_key_index():
    with repro.connect() as connection:
        session = connection.session
        tables = star_tables()
        for name, columns in tables.items():
            session.load_table(name, columns)
        connection.execute(JOIN).fetchall()
        assert session.connector.database.stats["key_index_joins"] == 1

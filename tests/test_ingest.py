"""Columnar ingest: one append path from ``append_data`` down to the columns.

Covers the ``append_columns`` contract (dtype rules, atomicity), the
consistency of sample maintenance with the sample builder, and the guarantee
that a table built by appends equals one built at once: its columns and what
the engine derives from them — dictionary codes, cardinalities, unique-key
indexes and "not a key" verdicts.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import Database, PlannerConfig, SampleSpec, VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.errors import SamplingError
from repro.sampling.metadata import METADATA_TABLE
from repro.sqlengine import parser, sqlast as ast
from repro.sqlengine.encoding import encode_object_array
from repro.sqlengine.table import Table, coerce_column
from repro.workloads import tpch

from tests.conftest import build_orders_columns

PLANNER = PlannerConfig(io_budget=0.2, large_table_rows=5_000)


# ---------------------------------------------------------------------------
# dtype rules of the single append implementation
# ---------------------------------------------------------------------------


class TestIntegerColumnsKeepNullsAndFractions:
    """At the parent commit an int64 column cast every batch to int64: NULL
    became -9223372036854775808 and 1.7 became 1, silently."""

    def _database(self) -> Database:
        database = Database(seed=0)
        database.register_table("t", {"a": np.array([1, 2, 3])})
        return database

    def _assert_null_row(self, database: Database, expected_sum: float) -> None:
        column = database.table("t").column("a")
        assert column.dtype == np.float64
        assert np.isnan(column[-1])
        result = database.execute("SELECT sum(a) AS s, count(a) AS c, count(*) AS n FROM t")
        total, non_null, rows = result.fetchall()[0]
        assert float(total) == expected_sum
        assert (float(non_null), float(rows)) == (3.0, 4.0)

    def test_sql_insert_values_null(self):
        database = self._database()
        database.execute("INSERT INTO t (a) VALUES (NULL)")
        self._assert_null_row(database, 6.0)

    def test_sql_insert_values_fraction(self):
        database = self._database()
        database.execute("INSERT INTO t (a) VALUES (1.7)")
        assert database.table("t").column("a").tolist() == [1.0, 2.0, 3.0, 1.7]

    def test_sql_insert_values_integral_float_stays_integer(self):
        database = self._database()
        database.execute("INSERT INTO t (a) VALUES (4.0)")
        column = database.table("t").column("a")
        assert column.dtype == np.int64 and column.tolist() == [1, 2, 3, 4]

    def test_sql_insert_select_null(self):
        database = self._database()
        database.register_table("src", {"x": np.array([np.nan])})
        database.execute("INSERT INTO t (a) SELECT x FROM src")
        self._assert_null_row(database, 6.0)

    def test_append_data_null_and_fraction(self):
        session = VerdictSession(planner_config=PLANNER)
        session.load_table("t", {"a": np.array([1, 2, 3]), "s": np.array(["x"] * 3, dtype=object)})
        session.append_data("t", {"a": [None], "s": ["y"]})
        database = session.connector.database
        self._assert_null_row(database, 6.0)
        session.append_data("t", {"a": np.array([2.5]), "s": ["z"]})
        assert database.table("t").column("a")[-1] == 2.5

    def test_none_or_numeric_object_batch_does_not_promote_to_object(self):
        for stored in (np.array([1, 2]), np.array([1.0, 2.0])):
            table = Table("t", {"a": stored})
            table.append_columns({"a": np.array([None, None], dtype=object)})
            table.append_columns({"a": np.array([7, None, 2.5], dtype=object)})
            column = table.column("a")
            assert column.dtype == np.float64
            np.testing.assert_array_equal(column, [1.0, 2.0, np.nan, np.nan, 7.0, np.nan, 2.5])

    def test_coerce_column_rules(self):
        int64, float64, boolean = np.dtype(np.int64), np.dtype(np.float64), np.dtype(bool)
        assert coerce_column(int64, [True, False]).dtype == int64
        assert coerce_column(int64, np.array([2**63], dtype=np.float64)).dtype == float64
        assert coerce_column(float64, [1, 2]).dtype == float64
        assert coerce_column(boolean, [True]).dtype == boolean
        assert coerce_column(boolean, [2, 3]).tolist() == [2, 3]
        assert coerce_column(int64, ["a"]).dtype == object  # only text turns a column to text
        assert coerce_column(np.dtype(object), [1, 2]).tolist() == [1, 2]


# ---------------------------------------------------------------------------
# differential: three ways to append, one resulting table
# ---------------------------------------------------------------------------


def _differential_batches() -> list[dict[str, np.ndarray]]:
    rng = np.random.default_rng(7)

    def batch(count: int, nulls: bool = False) -> dict[str, np.ndarray]:
        f = np.round(rng.normal(0.0, 5.0, count), 3)
        s = rng.choice(["apple", "kiwi", "zebra", "Ant", ""], count).astype(object)
        if nulls:
            f[::3] = np.nan
            s[1::4] = None
        return {
            "i": rng.integers(-50, 50, count),
            "f": f,
            "s": s,
            "b": rng.random(count) < 0.5,
        }

    promoting = batch(20)
    promoting["i"] = np.array(
        [None if index % 5 == 0 else index for index in range(20)], dtype=object
    )
    # 100 loaded rows, then 50 / 30 / 70 / 20 / 45; the fourth batch widens
    # ``i`` to float64.
    return [batch(50), batch(30, nulls=True), batch(70), promoting, batch(45, nulls=True)]


def _as_insert(table: str, batch: dict[str, np.ndarray]) -> ast.InsertStatement:
    def literal(value: object) -> ast.Literal:
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float) and np.isnan(value):
            value = None
        return ast.Literal(value)

    names = list(batch)
    return ast.InsertStatement(
        table_name=table,
        columns=names,
        rows=[[literal(batch[name][row]) for name in names] for row in range(len(batch["i"]))],
    )


def _null_normalised(result):
    """NULL reads back as NaN from the engine's numeric columns and as None
    from SQLite: compare numeric columns with NULL as NaN on both sides."""
    columns = []
    for column in result.columns():
        values = column.tolist()
        if not any(isinstance(value, str) for value in values):
            values = [np.nan if value is None else float(value) for value in values]
        columns.append(np.array(values, dtype=object))
    return type(result)(result.column_names, columns)


def test_columnar_sql_text_and_sqlite_appends_agree():
    initial = {
        "i": np.arange(100),
        "f": np.linspace(-1.0, 1.0, 100),
        "s": np.array(["seed"] * 100, dtype=object),
        "b": np.arange(100) % 2 == 0,
    }
    columnar = BuiltinConnector(database=Database(seed=0))
    as_text = BuiltinConnector(database=Database(seed=0))
    sqlite = SqliteConnector()
    for connector in (columnar, as_text, sqlite):
        connector.load_table("t", initial)
    for batch in _differential_batches():
        columnar.append_columns("t", batch)
        as_text.execute(_as_insert("t", batch))
        sqlite.append_columns("t", batch)
    results = [connector.execute("SELECT * FROM t") for connector in (columnar, as_text, sqlite)]
    assert results[0].num_rows == 315
    assert results[0].equals(results[1])
    assert [column.dtype for column in results[0].columns()] == [
        column.dtype for column in results[1].columns()
    ]
    assert columnar.database.table("t").column("i").dtype == np.float64  # the promotion
    assert _null_normalised(results[0]).equals(_null_normalised(results[2]))
    sqlite.close()


# ---------------------------------------------------------------------------
# golden: sample tables hold the rows the pre-columnar implementation wrote
# ---------------------------------------------------------------------------

#: SHA-256 per table after the load + five appends below, over the schema and
#: the rows as a multiset (row order is not part of a table).  Recorded at
#: the commit before samples stopped being rewritten in subsample-id order,
#: where the order-sensitive digests recorded before the columnar path (the
#: metadata one re-recorded without ``sid_clustered``) still held.  The five
#: ``lineitem`` samples and the metadata were re-recorded when maintenance
#: began to evaluate the build's membership rule: appended subsample ids are
#: ``1 + floor(rand() * b)`` from the maintainer's generator, no longer
#: ``integers(1, b + 1)``, so the generator's stream, and with it the
#: uniform and stratified draws of later samples, shifted.
GOLDEN = {
    "lineitem_vdb_uniform_0p0200": "b6bc984f58280f9d4369d2ac416aeb21f88d95aeacbb7908c40ed0a19afd36d8",
    "lineitem_vdb_hashed_l_orderkey_0p0200": "4155c0e2d0f36cc1a0da4f84c1265f371404bee2b4668a374ffe80b6454421a8",
    "lineitem_vdb_hashed_l_partkey_0p0200": "f8ac4688d6e1f8e32b1110e32df61b4ed8d55e41ca0895aa4375a3ad9e76f813",
    "lineitem_vdb_stratified_l_returnflag_0p0200": "e0b03a449e2880c2e523b0bed2afde2f0dceccf9b5fb588630a798535124b426",
    "lineitem_vdb_stratified_l_shipmode_0p0200": "8a860ff15921fc304b6c5dd4e06f292a1a828ecead277589e8dc667a0c748b6e",
    "orders_vdb_uniform_0p0200": "f310fecf22853054916e1cf936fba0b3f589a35ee544098a37f4a8b157cd2930",
    "orders_vdb_hashed_o_orderkey_0p0200": "22c60cad52154f18f2a0c11fe90a86feb94f670e968f14818c7276d0345f0501",
    "orders_vdb_stratified_o_orderpriority_0p0200": "785eed6152287bfed9b8d01bbc2376bc93d5bd3c116167202031f81d591d08ff",
    "lineitem": "06ef4256043ed41df0234faebc2897c5a9fd51da03821ddab1603a343e523910",
    METADATA_TABLE: "ecbd3e3e877e88314954198efcbd351caa69a2750def6c9024fc408c8ad14263",
}


#: The same hash with ``vdb_sid`` left out, per sample table: which rows a
#: sample holds and with what probability, whatever subsample they drew.  It
#: held across that change for the hashed and the ``orders`` samples; the
#: uniform and stratified ``lineitem`` ones were re-recorded with GOLDEN.
GOLDEN_WITHOUT_SID = {
    "lineitem_vdb_uniform_0p0200": "5ed7843b77c7cf56ce47ef7dc00e77d493680ed96dc91c39c2cf3c74416455db",
    "lineitem_vdb_hashed_l_orderkey_0p0200": "f18b33b5dd945bed72732e10116b26674ee3673da244aeef38593c22fd1632cc",
    "lineitem_vdb_hashed_l_partkey_0p0200": "18dca47e4db0023b8fbb2c234d326634adff7aea19097b43c0408c764a510f95",
    "lineitem_vdb_stratified_l_returnflag_0p0200": "d65826fdcbdcfb15df3df4356a07ae01ff2cbe5f613ba5ec2183e3a5616c944d",
    "lineitem_vdb_stratified_l_shipmode_0p0200": "2360bc78f5faa25e17c780bb2799bcd96613eff8a26c5d6d2c88455c96852713",
    "orders_vdb_uniform_0p0200": "3b05c6c59d0506c5e708aa243160cf0f171fa209e89cbc7b36f267560e96c7cc",
    "orders_vdb_hashed_o_orderkey_0p0200": "05050b89eba2f17d7d7c88d39f14c547072385bf6d0ce31679621f197f27ac7d",
    "orders_vdb_stratified_o_orderpriority_0p0200": "e93445d09f729d0e239c38a14a43568e9579c381bbe2643df8be2b370b6539be",
}


def _table_sha(table: Table, drop: tuple[str, ...] = ()) -> str:
    digest = hashlib.sha256()
    names = [name for name in table.column_names if name not in drop]
    columns = [table.column(name) for name in names]
    digest.update(repr([(name, column.dtype.str) for name, column in zip(names, columns)]).encode())
    for row in sorted(repr(row) for row in zip(*(column.tolist() for column in columns))):
        digest.update(row.encode() + b"\n")
    return digest.hexdigest()


def test_sample_tables_after_appends_match_the_parent_commit():
    """The benchmark's data shape (``benchmarks/e2e/build.py``, seed 1) at a
    tenth of its size: same specs, same 500-row batches from a second draw."""
    seed, scale, batch_rows = 1, 0.5, 500
    tables = tpch.generate(scale_factor=scale, seed=seed).tables
    source = tpch.generate(scale_factor=scale / 2, seed=seed + 1).tables["lineitem"]
    database = Database(seed=seed)
    connection = repro.connect(
        database=database, planner_config=PlannerConfig(io_budget=0.1, large_table_rows=5_000)
    )
    session = connection.session
    for name, columns in tables.items():
        session.load_table(name, columns)
    hashed = {"lineitem": ["l_orderkey", "l_partkey"], "orders": ["o_orderkey"]}
    stratified = {"lineitem": ["l_returnflag", "l_shipmode"], "orders": ["o_orderpriority"]}
    for table in ("lineitem", "orders"):
        session.create_sample(table, SampleSpec("uniform", (), 0.02))
        for column in hashed[table]:
            session.create_sample(table, SampleSpec("hashed", (column,), 0.02))
        for column in stratified[table]:
            session.create_sample(table, SampleSpec("stratified", (column,), 0.02))
    for index in range(5):
        rows = slice(index * batch_rows, (index + 1) * batch_rows)
        session.append_data("lineitem", {name: values[rows] for name, values in source.items()})
    samples = [info.sample_table for info in session.samples()]
    observed = {
        name: _table_sha(database.table(name)) for name in samples + ["lineitem", METADATA_TABLE]
    }
    without_sid = {name: _table_sha(database.table(name), drop=("vdb_sid",)) for name in samples}
    connection.close()
    database.close()
    assert without_sid == GOLDEN_WITHOUT_SID
    assert observed == GOLDEN


# ---------------------------------------------------------------------------
# hashed samples: maintenance keeps exactly the keys the builder keeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_hashed_sample_appended_equals_hashed_sample_built(backend):
    """Built on all rows ≡ built on a prefix, then appended with the rest:
    the same (key, probability) rows, census rows included.

    At the parent commit the batch was hashed in the caller's dtype (``5.0``
    hashed as ``"5.0"``, the stored ``5`` as ``"5"``) and a NULL key as
    ``"None"`` instead of the engine's ``""``, so appended rows were kept or
    dropped inconsistently with built ones.
    """
    rng = np.random.default_rng(3)
    rows = 6_000
    code = np.array([f"c{value}" for value in rng.integers(0, 400, rows)], dtype=object)
    code[rng.random(rows) < 0.05] = None  # NULL keys: hash("") == 0.0, always kept
    code[rng.random(rows) < 0.02] = ""  # and so are empty strings
    columns = {
        "k": rng.integers(0, 2_000, rows),
        "code": code,
        "v": rng.normal(size=rows),
    }
    prefix = 4_000

    def session() -> VerdictSession:
        connector = (
            BuiltinConnector(database=Database(seed=0))
            if backend == "builtin"
            else SqliteConnector(seed=0)
        )
        return VerdictSession(connector, planner_config=PLANNER)

    def kept_rows(session: VerdictSession) -> dict[str, Counter]:
        found = {}
        for info in session.samples("t"):
            result = session.connector.execute(
                f"SELECT {', '.join(info.columns)}, vdb_sampling_prob FROM {info.sample_table}"
            )
            found[info.sample_table] = Counter(
                tuple(None if value is None or value != value else value for value in row)
                for row in result.fetchall()
            )
        return found

    specs = [
        SampleSpec("hashed", ("k",), 0.1),
        SampleSpec("hashed", ("code",), 0.1),
        SampleSpec("hashed", ("k", "code"), 0.1),
    ]
    built = session()
    built.load_table("t", columns)
    appended = session()
    appended.load_table("t", {name: values[:prefix] for name, values in columns.items()})
    for spec in specs:
        built.create_sample("t", spec)
        appended.create_sample("t", spec)
    rest = {name: values[prefix:] for name, values in columns.items()}
    rest["k"] = rest["k"].astype(np.float64)  # the caller's dtype is not the stored one
    appended.append_data("t", rest)

    expected, observed = kept_rows(built), kept_rows(appended)
    assert observed == expected
    census = expected["t_vdb_hashed_code_0p1000"]
    assert census[(None, 1.0)] == np.sum([value is None for value in code])
    assert census[("", 1.0)] == np.sum([value == "" for value in code])
    if backend == "builtin":
        assert appended.connector.database.table("t").column("k").dtype == np.int64
    built.close()
    appended.close()


def test_hashed_sample_on_real_key_with_nulls_agrees_across_backends():
    """A numeric NULL hashes as ``""`` on every backend and in maintenance.

    SQLite hands ``vdb_hash`` a SQL NULL; maintenance hashes the batch cast
    to ``float64``, where the same NULL is NaN.  Both must hash alike, or
    appended NULL-key rows are kept or dropped unlike built ones.
    """
    rng = np.random.default_rng(11)
    rows, prefix = 3_000, 2_000
    x = rng.integers(0, 600, rows) / 4.0
    x[rng.random(rows) < 0.05] = np.nan
    columns = {"x": x, "v": rng.normal(size=rows)}
    spec = SampleSpec("hashed", ("x",), 0.2)

    def kept_keys(session: VerdictSession) -> set:
        (info,) = session.samples("t")
        values = session.connector.execute(f"SELECT x FROM {info.sample_table}").column("x")
        return {
            None if value is None or value != value else float(value)
            for value in values.tolist()
        }

    sessions = []
    for connector, loaded in (
        (SqliteConnector(seed=4), columns),
        (SqliteConnector(seed=4), {name: values[:prefix] for name, values in columns.items()}),
        (BuiltinConnector(database=Database(seed=4)), columns),
    ):
        session = VerdictSession(connector=connector, planner_config=PLANNER)
        session.load_table("t", loaded)
        session.create_sample("t", spec)
        sessions.append(session)
    built, appended, builtin = sessions
    appended.append_data("t", {name: values[prefix:] for name, values in columns.items()})

    expected = kept_keys(built)
    assert None in expected
    assert kept_keys(appended) == expected
    assert kept_keys(builtin) == expected
    for session in sessions:
        session.connector.close()


@pytest.mark.parametrize("backend", ["builtin", "sqlite"])
def test_a_null_in_an_appended_int_key_keeps_every_key_in_or_out(backend):
    """A NULL in a batch stores the int key column as floats; the hash reads
    ``87.0`` as ``87``, so each key's appended rows follow its built ones.

    When the hash read ``"87.0"``, 178 keys the build had left out gained
    rows and the appended rows of the 236 kept keys were all dropped.
    """
    rows, keys = 20_000, 2_000
    connector = BuiltinConnector(seed=2) if backend == "builtin" else SqliteConnector(seed=2)
    session = VerdictSession(connector=connector, planner_config=PLANNER)
    try:
        session.load_table("t", {"k": np.arange(rows) % keys, "v": np.ones(rows)})
        session.create_sample("t", SampleSpec("hashed", ("k",), 0.1))
        (info,) = session.samples("t")
        batch = np.append(np.arange(keys, dtype=np.float64), np.nan)
        session.append_data("t", {"k": batch, "v": np.ones(keys + 1)})
        sampled = session.connector.execute(
            f"SELECT k, count(*) AS n FROM {info.sample_table} WHERE k IS NOT NULL GROUP BY k"
        ).fetchall()
        counts = {int(float(key)): int(n) for key, n in sampled}
        assert 150 < len(counts) < 300
        assert set(counts.values()) == {rows // keys + 1}
    finally:
        session.close()


# ---------------------------------------------------------------------------
# a rejected batch changes nothing
# ---------------------------------------------------------------------------


def _snapshot(session: VerdictSession) -> dict[str, object]:
    connector = session.connector
    names = ["orders", METADATA_TABLE] + [info.sample_table for info in session.samples()]
    return {
        "state": connector.catalog_state(),
        "tables": {name: connector.execute(f"SELECT * FROM {name}").fetchall() for name in names},
        "versions": {name: connector.database.table(name).version for name in names},
    }


@pytest.mark.parametrize(
    "mutate",
    [
        lambda batch: batch.pop("qty"),
        lambda batch: batch.update(extra=np.arange(40)),
        lambda batch: batch.update(price=batch["price"][:-1]),
        lambda batch: batch.update(qty=np.array(["many"] * 40, dtype=object)),
        lambda batch: batch.update(order_id=np.zeros((40, 2))),
        lambda batch: batch.update(price=np.zeros(40, dtype=np.complex128)),
    ],
    ids=["missing", "extra", "ragged", "text-for-number", "two-dimensional", "unsupported-dtype"],
)
def test_rejected_batch_leaves_everything_unchanged(mutate):
    session = VerdictSession(planner_config=PLANNER)
    session.load_table("orders", build_orders_columns(num_rows=5_000, seed=1))
    session.create_sample("orders", SampleSpec("uniform", (), 0.05))
    session.create_sample("orders", SampleSpec("hashed", ("order_id",), 0.05))
    session.create_sample("orders", SampleSpec("stratified", ("city",), 0.05))
    before = _snapshot(session)
    batch = build_orders_columns(num_rows=40, seed=2)
    mutate(batch)
    with pytest.raises(SamplingError):
        session.append_data("orders", batch)
    snapshot = _snapshot(session)
    # NaN-free data, so plain equality is exact.
    assert snapshot == before
    session.close()


# ---------------------------------------------------------------------------
# what an append extends equals what a rebuild gives
# ---------------------------------------------------------------------------

_values = st.one_of(st.none(), st.sampled_from(["", "A", "a", "b", "m", "z", "~", "\0x", "日本"]))
# Ints keep an int64 column; a fraction or a NULL widens it to float64, a
# string to object.  The two widenings are drawn apart: a column that turns
# to text after it widened to float64 keeps its ints as floats (``0.0``),
# while one loaded at once keeps them as ints, so only the direct paths can
# equal a load at once.
_widen_to_float = st.one_of(st.integers(-3, 12), st.sampled_from([0.5, 2.5]), st.none())
_widen_to_text = st.one_of(st.integers(-3, 12), st.just("x"))


@st.composite
def _append_cases(draw):
    """``(initial rows, [(batch rows, warm dictionary, warm key index)])``;
    a row is ``(s, n)``."""
    rows = st.lists(
        st.tuples(_values, draw(st.sampled_from([_widen_to_float, _widen_to_text]))),
        max_size=9,
    )
    appends = st.lists(st.tuples(rows, st.booleans(), st.booleans()), min_size=1, max_size=6)
    return draw(rows), draw(appends)


def _number_array(values: list) -> np.ndarray:
    """``values`` in the dtype a loader would give them at once."""
    if all(isinstance(value, int) for value in values):
        return np.array(values, dtype=np.int64)
    if all(value is None or isinstance(value, (int, float)) for value in values):
        return np.array([np.nan if value is None else value for value in values])
    return np.array(values, dtype=object)


def _same_column(appended: np.ndarray, at_once: np.ndarray) -> bool:
    # repr tells 1 from 1.0 and None from NaN, and NaN equals NaN in it.
    return appended.dtype == at_once.dtype and [repr(v) for v in appended.tolist()] == [
        repr(v) for v in at_once.tolist()
    ]


def _same_key_index(appended, at_once) -> bool:
    if appended is None or at_once is None:
        return appended is at_once
    return (
        appended.keys.dtype == at_once.keys.dtype
        and appended.keys.tolist() == at_once.keys.tolist()
        and appended.order.tolist() == at_once.order.tolist()
    )


def _columns(rows: list[tuple]) -> dict[str, np.ndarray]:
    return {
        "s": np.array([s for s, _ in rows], dtype=object),
        "n": _number_array([n for _, n in rows]),
    }


@given(_append_cases())
@settings(max_examples=150, deadline=None)
def test_appended_columns_dictionary_cardinality_and_key_index_equal_a_rebuild(case):
    rows, appends = case
    database = Database(seed=0)
    connector = BuiltinConnector(database=database)
    connector.load_table("t", _columns(rows))
    table = database.table("t")
    for batch, warm_dictionary, warm_key_index in appends:
        # Derived state is extended (or kept) only when current: exercise both.
        if warm_dictionary:
            table.dictionary_codes("s")
            table.dictionary_codes("n")
        if warm_key_index:
            table.key_index("n")
        connector.append_columns("t", _columns(batch))
        rows = rows + batch
        at_once = Table("t", _columns(rows))
        assert table.num_rows == at_once.num_rows
        for name in ("s", "n"):
            # The stored dtype is right before the parts are joined.
            assert table.column_dtype(name) == at_once.column_dtype(name), name
            assert _same_column(table.column(name), at_once.column(name)), name
            encoded = table.dictionary_codes(name)
            assert (encoded is None) == (at_once.column_dtype(name) != object)
            if encoded is not None:
                codes, dictionary = encoded
                fresh_codes, fresh_dictionary = encode_object_array(at_once.column(name))
                assert dictionary.tolist() == fresh_dictionary.tolist()
                assert codes.tolist() == fresh_codes.tolist()
            counted = database.execute(f"SELECT count(DISTINCT {name}) AS d FROM t").scalar()
            assert connector.column_cardinality("t", name) == int(counted)
            assert table.distinct_count(name) == at_once.distinct_count(name)
        assert _same_key_index(table.key_index("n"), at_once.key_index("n"))


# ---------------------------------------------------------------------------
# rows never travel as SQL text
# ---------------------------------------------------------------------------


def test_append_data_issues_no_insert_and_parses_almost_nothing(monkeypatch):
    session = VerdictSession(planner_config=PLANNER)
    session.load_table("orders", build_orders_columns(num_rows=5_000, seed=1))
    specs = [
        SampleSpec("uniform", (), 0.05),
        SampleSpec("hashed", ("order_id",), 0.05),
        SampleSpec("stratified", ("city",), 0.05),
        SampleSpec("stratified", ("qty",), 0.05),
    ]
    for spec in specs:
        session.create_sample("orders", spec)
    parses = []
    parse = parser.parse
    monkeypatch.setattr(parser, "parse", lambda sql: parses.append(sql) or parse(sql))
    log = session.connector.queries_issued
    log.clear()
    state = session.connector.catalog_state()

    inserted = session.append_data("orders", build_orders_columns(num_rows=500, seed=2))

    assert sum(inserted.values()) > 0
    assert session.connector.catalog_state() != state
    assert not any("INSERT" in sql.upper() for sql in log)
    # One metadata read plus one strata read per stratified sample (66 parses
    # at the parent commit); texts the engine already holds parsed cost none.
    stratified = sum(spec.sample_type == "stratified" for spec in specs)
    assert len(parses) <= 1 + stratified
    assert all(sql.lstrip().upper().startswith("SELECT") for sql in log)
    session.close()


# ---------------------------------------------------------------------------
# what an append leaves standing
# ---------------------------------------------------------------------------


def _stratified_session() -> VerdictSession:
    session = VerdictSession(planner_config=PLANNER)
    session.load_table("orders", build_orders_columns(num_rows=5_000, seed=1))
    session.create_sample("orders", SampleSpec("stratified", ("city",), 0.05))
    return session


def test_distinct_count_after_append_reads_the_dictionary_not_the_parts():
    session = _stratified_session()
    query = "SELECT city, count(*) AS n FROM orders GROUP BY city"
    assert not session.sql(query).is_exact
    session.append_data("orders", build_orders_columns(num_rows=500, seed=2))
    # The sample planner counts the base table's distinct cities.
    assert not session.sql(query).is_exact
    table = session.connector.database.table("orders")
    assert len(table._column_parts("city")) > 1
    rebuilt = Table("rebuilt", {"city": table.column("city")})
    assert table.distinct_count("city") == rebuilt.distinct_count("city")
    session.close()


def test_append_data_keeps_the_engines_cached_plans():
    session = _stratified_session()
    database = session.connector.database
    query = "SELECT city, count(*) AS n FROM orders GROUP BY city"
    session.sql(query)
    state = session.connector.catalog_state()
    session.append_data("orders", build_orders_columns(num_rows=500, seed=2))
    misses = database.stats["plan_cache_misses"]
    session.sql(query)
    # Data moved (so every session cache re-reads), the schema did not.
    assert session.connector.catalog_state() != state
    assert database.stats["plan_cache_misses"] == misses
    session.close()

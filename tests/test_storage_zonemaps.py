"""Tests for chunked columnar storage, zone-map scan skipping and round 3.

Covers the storage layer directly (chunk layout, incremental zone maps,
staleness after DML), the pruning rules (NULL-only chunks, NUL-escape
prefixes, float-NaN semantics), the executor's chunk-skipping scan path
(A/B bit-identical against ``optimize=False``), sid-sorted scrambles,
and the round-3 satellites (derived-column code propagation, inner-HAVING
pushdown, dictionary-broadcast scalar string functions).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.api.binding import LIFTED_PREFIX, lift_literals
from repro.connectors import BuiltinConnector
from repro.errors import BindParameterError
from repro.sampling import (
    SID_COLUMN,
    MetadataStore,
    SampleBuilder,
    SampleInfo,
    SampleMaintainer,
    SampleSpec,
)
from repro.sqlengine import Database, parser
from repro.sqlengine.table import DEFAULT_CHUNK_ROWS, Table
from repro.sqlengine.zonemaps import (
    ZonePredicate,
    chunk_may_match,
    zone_map_for_chunk,
)
from tests.conftest import build_orders_columns
from tests.test_planner import assert_identical_results


# ---------------------------------------------------------------------------
# chunk layout
# ---------------------------------------------------------------------------


class TestChunkLayout:
    def test_default_chunk_size_splits_columns(self):
        rows = DEFAULT_CHUNK_ROWS * 2 + 17
        table = Table("t", {"x": np.arange(rows)})
        assert table.num_chunks == 3
        chunks = table.column_chunks("x")
        assert [len(chunk) for chunk in chunks] == [
            DEFAULT_CHUNK_ROWS,
            DEFAULT_CHUNK_ROWS,
            17,
        ]
        assert table.column("x").tolist() == list(range(rows))

    def test_append_straddles_chunk_boundaries(self):
        table = Table("t", {"x": np.arange(10)}, chunk_rows=8)
        assert [len(c) for c in table.column_chunks("x")] == [8, 2]
        table.append_rows(["x"], [(value,) for value in range(10, 20)])
        assert [len(c) for c in table.column_chunks("x")] == [8, 8, 4]
        assert table.column("x").tolist() == list(range(20))
        assert table.num_rows == 20
        # zone maps reflect the straddled layout
        zones = table.zone_maps("x")
        assert [(z.low, z.high) for z in zones] == [(0.0, 7.0), (8.0, 15.0), (16.0, 19.0)]

    def test_append_keeps_current_zone_maps_incrementally(self):
        table = Table("t", {"x": np.arange(8)}, chunk_rows=4)
        zones_before = table.zone_maps("x")  # make them current
        assert len(zones_before) == 2
        table.append_rows(["x"], [(100,), (101,)])
        # maintained through the append without waiting for the next query
        entry = table._zone_cache["x"]
        assert entry[0] == table.version
        assert (entry[1][2].low, entry[1][2].high) == (100.0, 101.0)
        # untouched full chunks keep their original zone objects
        assert entry[1][0] is zones_before[0]

    def test_empty_table_roundtrip(self):
        table = Table("t")
        table.add_column("x", np.array([], dtype=np.float64))
        assert table.num_rows == 0
        assert table.num_chunks == 1
        assert table.column("x").tolist() == []
        assert table.prune_chunks([ZonePredicate("x", "cmp", "=", (1,))]) is None
        table.append_rows(["x"], [(1.5,), (2.5,)])
        assert table.column("x").tolist() == [1.5, 2.5]

    def test_object_promotion_on_append(self):
        table = Table("t", {"x": np.arange(3)}, chunk_rows=2)
        table.zone_maps("x")
        table.append_rows(["x"], [("mixed",)])
        assert table.column("x").dtype == object
        assert table.column("x").tolist() == [0, 1, 2, "mixed"]
        # zone maps were rebuilt in the string domain
        zones = table.zone_maps("x")
        assert zones[1].high == "mixed"

    def test_flatten_after_append_rechunks_without_duplication(self):
        table = Table("t", {"x": np.arange(8)}, chunk_rows=4)
        table.append_rows(["x"], [(8,), (9,)])
        table.zone_maps("x")
        flat = table.column("x")
        assert flat.tolist() == list(range(10))
        # the chunks now alias the flat array instead of duplicating it
        for chunk in table.column_chunks("x"):
            assert np.shares_memory(chunk, flat)
        # zone maps stayed valid through the re-pointing
        zones = table.zone_maps("x")
        assert [(z.low, z.high) for z in zones] == [(0.0, 3.0), (4.0, 7.0), (8.0, 9.0)]
        surviving = table.prune_chunks([ZonePredicate("x", "cmp", ">=", (8,))])
        assert surviving.tolist() == [2]

    def test_take_and_copy_preserve_chunk_size(self):
        table = Table("t", {"x": np.arange(10)}, chunk_rows=4)
        taken = table.take(np.array([1, 3, 5]))
        assert taken.chunk_rows == 4
        assert taken.column("x").tolist() == [1, 3, 5]
        assert table.copy("u").chunk_rows == 4


# ---------------------------------------------------------------------------
# zone-map construction and pruning rules
# ---------------------------------------------------------------------------


class TestZoneMapRules:
    def test_numeric_zone_map_ignores_nan(self):
        zone = zone_map_for_chunk(np.array([np.nan, 2.0, 8.0, np.nan]))
        assert (zone.low, zone.high, zone.null_count, zone.length) == (2.0, 8.0, 2, 4)

    def test_null_only_chunk_skips_comparisons_keeps_is_null(self):
        zone = zone_map_for_chunk(np.array([np.nan, np.nan]))
        assert not chunk_may_match(ZonePredicate("x", "cmp", "=", (1.0,)), zone, False)
        assert not chunk_may_match(ZonePredicate("x", "cmp", "<", (1.0,)), zone, False)
        assert not chunk_may_match(ZonePredicate("x", "between", "", (0, 9)), zone, False)
        assert not chunk_may_match(ZonePredicate("x", "in", "", (1, 2)), zone, False)
        assert chunk_may_match(ZonePredicate("x", "null", "is"), zone, False)
        assert not chunk_may_match(ZonePredicate("x", "null", "isnot"), zone, False)
        # engine float semantics: NaN <> x is True, so <> must keep the chunk
        assert chunk_may_match(ZonePredicate("x", "cmp", "<>", (1.0,)), zone, False)

    def test_null_only_object_chunk_skips_every_comparison(self):
        zone = zone_map_for_chunk(np.array([None, None], dtype=object))
        assert not chunk_may_match(ZonePredicate("s", "cmp", "=", ("a",)), zone, True)
        # object NULLs never satisfy <>, unlike float NaN
        assert not chunk_may_match(ZonePredicate("s", "cmp", "<>", ("a",)), zone, True)
        assert chunk_may_match(ZonePredicate("s", "null", "is"), zone, True)

    def test_object_bounds_use_escaped_keys(self):
        # Data starting with a NUL byte is escaped so it can never be
        # conflated with the NULL sentinel; bounds must use the same order.
        zone = zone_map_for_chunk(np.array(["\0weird", "apple", None], dtype=object))
        assert zone.low == "\0S\0weird"  # escape prefix applied
        assert zone.high == "apple"
        assert zone.null_count == 1
        # '\0weird' < 'a' in raw order; bounds must agree
        assert chunk_may_match(ZonePredicate("s", "cmp", "<", ("a",)), zone, True)

    def test_type_mismatch_never_prunes(self):
        numeric = zone_map_for_chunk(np.array([1.0, 2.0]))
        assert chunk_may_match(ZonePredicate("x", "cmp", "=", ("1",)), numeric, False)
        strings = zone_map_for_chunk(np.array(["a", "b"], dtype=object))
        assert chunk_may_match(ZonePredicate("s", "cmp", "=", (1,)), strings, True)

    def test_comparison_against_null_literal(self):
        zone = zone_map_for_chunk(np.array([1.0, np.nan]))
        assert not chunk_may_match(ZonePredicate("x", "cmp", "=", (None,)), zone, False)
        assert chunk_may_match(ZonePredicate("x", "cmp", "<>", (None,)), zone, False)
        obj = zone_map_for_chunk(np.array(["a"], dtype=object))
        assert not chunk_may_match(ZonePredicate("s", "cmp", "<>", (None,)), obj, True)

    def test_prune_chunks_selects_surviving_chunks(self):
        table = Table("t", {"x": np.arange(100)}, chunk_rows=10)
        surviving = table.prune_chunks([ZonePredicate("x", "between", "", (35, 44))])
        assert surviving.tolist() == [3, 4]
        assert table.chunk_row_indices(surviving).tolist() == list(range(30, 50))
        assert table.gather_chunks("x", surviving).tolist() == list(range(30, 50))
        # no pruning possible -> None (fall back to the flat scan)
        assert table.prune_chunks([ZonePredicate("x", "cmp", ">=", (0,))]) is None
        # contradiction -> empty selection
        assert table.prune_chunks([ZonePredicate("x", "cmp", "=", (1000,))]).tolist() == []

    def test_case_insensitive_predicate_column(self):
        table = Table("t", {"Value": np.arange(40)}, chunk_rows=10)
        surviving = table.prune_chunks([ZonePredicate("value", "cmp", "=", (35,))])
        assert surviving.tolist() == [3]

    def test_zone_maps_stale_after_dml_rebuilt_lazily(self):
        engine = Database(seed=0, optimize=True, chunk_rows=8)
        engine.register_table("t", {"x": np.arange(32)})
        query = "SELECT count(*) FROM t WHERE x >= 100"
        assert engine.execute(query).scalar() == 0.0  # builds zone maps
        table = engine.table("t")
        version_before = table.version
        engine.execute("INSERT INTO t (x) VALUES (100), (200)")
        assert table.version > version_before
        # the version bump invalidated the zone maps; the next query must
        # rebuild them lazily and see the new rows
        assert engine.execute(query).scalar() == 2.0


# ---------------------------------------------------------------------------
# executor chunk skipping: A/B bit-identical
# ---------------------------------------------------------------------------


def _chunked_pair(chunk_rows: int = 64):
    rng = np.random.default_rng(11)
    num_rows = 1000
    cities = ["ann arbor", "boston", "chicago", "detroit", None]
    columns = {
        "order_id": np.arange(num_rows),
        "price": np.where(
            rng.random(num_rows) < 0.1, np.nan, np.round(rng.normal(10, 5, num_rows), 2)
        ),
        "qty": rng.integers(1, 9, num_rows),
        # clustered string column: values come in contiguous runs
        "region": np.repeat(
            np.array([f"region_{i:02d}" for i in range(10)], dtype=object), num_rows // 10
        ),
        "city": rng.choice(np.array(cities, dtype=object), num_rows),
    }
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize, chunk_rows=chunk_rows)
        engine.register_table("orders", {k: v.copy() for k, v in columns.items()})
        engines.append(engine)
    return engines


ZONE_AB_CORPUS = [
    "SELECT count(*) AS n, sum(qty) AS s FROM orders WHERE order_id BETWEEN 300 AND 340",
    "SELECT order_id FROM orders WHERE order_id = 512",
    "SELECT order_id FROM orders WHERE order_id = -5",
    "SELECT count(*) FROM orders WHERE order_id < 10",
    "SELECT count(*) FROM orders WHERE order_id <= 10",
    "SELECT count(*) FROM orders WHERE order_id > 990",
    "SELECT count(*) FROM orders WHERE order_id >= 990",
    "SELECT count(*) FROM orders WHERE order_id <> 500",
    "SELECT count(*) FROM orders WHERE order_id IN (3, 700, 5000)",
    "SELECT count(*) FROM orders WHERE price IS NULL",
    "SELECT count(*) FROM orders WHERE price IS NOT NULL AND order_id < 100",
    # float column with NaN NULLs: <> must keep NaN rows (engine semantics)
    "SELECT count(*) FROM orders WHERE price <> 10.5",
    "SELECT count(*) FROM orders WHERE price > 25",
    # clustered string column: equality and ranges skip most chunks
    "SELECT count(*) AS n, sum(qty) AS s FROM orders WHERE region = 'region_07'",
    "SELECT count(*) FROM orders WHERE region < 'region_02'",
    "SELECT count(*) FROM orders WHERE region BETWEEN 'region_03' AND 'region_04'",
    "SELECT count(*) FROM orders WHERE region IN ('region_00', 'region_09', 'nope')",
    "SELECT count(*) FROM orders WHERE region = 'missing'",
    # unclustered string column with NULLs
    "SELECT count(*) FROM orders WHERE city = 'detroit' AND order_id BETWEEN 100 AND 200",
    "SELECT count(*) FROM orders WHERE city IS NULL AND order_id < 50",
    # combined predicates across columns
    "SELECT city, count(*) AS n FROM orders WHERE order_id BETWEEN 450 AND 463 "
    "AND qty > 2 GROUP BY city ORDER BY city",
    # contradiction: every chunk skipped
    "SELECT count(*) FROM orders WHERE order_id > 5000",
    "SELECT order_id FROM orders WHERE order_id BETWEEN 700 AND 650",
]


@pytest.mark.parametrize("query", ZONE_AB_CORPUS)
def test_zone_skipping_matches_naive(query):
    optimized, naive = _chunked_pair()
    assert_identical_results(optimized.execute(query), naive.execute(query))


def test_zone_skipping_after_appends_matches_naive():
    optimized, naive = _chunked_pair(chunk_rows=16)
    queries = [
        "SELECT count(*) AS n FROM orders WHERE order_id BETWEEN 995 AND 1015",
        "SELECT count(*) FROM orders WHERE region = 'region_new'",
    ]
    for engine in (optimized, naive):
        for _ in range(2):  # warm plan/zone caches, then mutate
            engine.execute(queries[0])
        engine.execute(
            "INSERT INTO orders (order_id, price, qty, region, city) "
            "VALUES (1010, 1.0, 2, 'region_new', 'nyc'), (1011, 2.0, 3, 'region_new', 'nyc')"
        )
    for query in queries:
        assert_identical_results(optimized.execute(query), naive.execute(query))


def test_chunk_skipping_actually_skips(monkeypatch):
    engine = Database(seed=0, optimize=True, chunk_rows=100)
    engine.register_table("t", {"x": np.arange(1000), "v": np.ones(1000)})
    table = engine.table("t")
    calls = {}
    original = table.prune_chunks

    def spy(predicates):
        result = original(predicates)
        calls["surviving"] = None if result is None else result.tolist()
        return result

    monkeypatch.setattr(table, "prune_chunks", spy)
    result = engine.execute("SELECT sum(v) FROM t WHERE x BETWEEN 250 AND 260")
    assert result.scalar() == 11.0
    assert calls["surviving"] == [2]


# ---------------------------------------------------------------------------
# bind-time zone predicates: a bound operand prunes like its literal twin
# ---------------------------------------------------------------------------


def _bound_twins(query: str):
    """``(named template, mapping)`` and ``(qmark template, tuple)`` of a text.

    Every predicate literal becomes a parameter (the session's own lifting
    rule, so the twins cover exactly the positions the middleware rewrites).
    """
    lifted, constants = lift_literals(parser.parse(query))
    named = lifted.to_sql()
    values: list = []

    def positional(match):
        values.append(constants[match.group(1)])
        return "?"

    qmark = re.sub(rf":({LIFTED_PREFIX}\d+)", positional, named)
    return (named, constants), (qmark, tuple(values))


@pytest.fixture
def pruned_chunks(monkeypatch):
    """Log of every ``Table.prune_chunks`` outcome (surviving ids or None)."""
    log: list = []
    original = Table.prune_chunks

    def spy(self, predicates):
        result = original(self, predicates)
        log.append(None if result is None else result.tolist())
        return result

    monkeypatch.setattr(Table, "prune_chunks", spy)
    return log


def _assert_prunes_like_literal(engine, naive, query, log):
    del log[:]
    expected = engine.execute(query)
    literal_log = list(log)
    assert expected.equals(naive.execute(query))
    for template, params in _bound_twins(query):
        del log[:]
        bound = engine.execute(template, params)
        assert log == literal_log, (template, params)
        assert bound.equals(expected), (template, params)
        assert naive.execute(template, params).equals(expected)
    return literal_log


@pytest.mark.parametrize("query", ZONE_AB_CORPUS)
def test_bound_operand_prunes_like_literal(query, pruned_chunks):
    optimized, naive = _chunked_pair()
    _assert_prunes_like_literal(optimized, naive, query, pruned_chunks)


def test_bound_pruning_actually_skips(pruned_chunks):
    optimized, naive = _chunked_pair()
    query = "SELECT count(*) AS n, sum(qty) AS s FROM orders WHERE order_id BETWEEN 300 AND 340"
    log = _assert_prunes_like_literal(optimized, naive, query, pruned_chunks)
    assert log == [[4, 5]]  # rows 256..383 of 1000, 64 per chunk


def test_bound_range_on_large_clustered_table(pruned_chunks):
    # The acceptance shape: 400 k rows clustered on k.  Wall time follows the
    # surviving-chunk set, so that is what is asserted.
    rows = 400_000
    columns = {"k": np.arange(rows), "v": np.random.default_rng(3).random(rows)}
    engine = Database(seed=0)
    engine.register_table("t", columns)
    literal = engine.execute("SELECT sum(v) FROM t WHERE k >= 100000 AND k < 120000")
    for template, params in (
        ("SELECT sum(v) FROM t WHERE k >= ? AND k < ?", (100_000, 120_000)),
        ("SELECT sum(v) FROM t WHERE k >= :lo AND k < :hi", {"lo": 100_000, "hi": 120_000}),
    ):
        assert engine.execute(template, params).equals(literal)
    expected = list(range(100_000 // DEFAULT_CHUNK_ROWS, 119_999 // DEFAULT_CHUNK_ROWS + 1))
    assert pruned_chunks == [expected] * 3
    assert len(expected) == 2 and engine.table("t").num_chunks == 25


def test_bound_string_against_numeric_column_never_prunes(pruned_chunks):
    optimized, naive = _chunked_pair()
    # A string operand switches the row path to per-value string semantics,
    # which the numeric bounds cannot summarize: no pruning, same rows.
    query = "SELECT order_id FROM orders WHERE order_id = '512'"
    log = _assert_prunes_like_literal(optimized, naive, query, pruned_chunks)
    assert log == [None]
    assert optimized.execute(query).fetchall() == [(512,)]
    # ... and a numeric operand against an object column likewise.
    log = _assert_prunes_like_literal(
        optimized, naive, "SELECT count(*) FROM orders WHERE region = 7", pruned_chunks
    )
    assert log == [None]


def test_bound_null_and_nan_rules(pruned_chunks):
    values = np.concatenate([np.full(8, np.nan), np.arange(8.0), np.arange(100.0, 108.0)])
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize, chunk_rows=8)
        engine.register_table("t", {"x": values.copy()})
        engines.append(engine)
    optimized, naive = engines
    for query, surviving in [
        # the NULL-only chunk fails every comparison but <>
        ("SELECT sum(x) AS s FROM t WHERE x = 3", [1]),
        ("SELECT sum(x) AS s FROM t WHERE x < 50", [1]),
        ("SELECT sum(x) AS s FROM t WHERE x BETWEEN 101 AND 500", [2]),
        ("SELECT sum(x) AS s FROM t WHERE x IN (2, 104)", [1, 2]),
        # NaN <> x is True under the engine's float semantics
        ("SELECT sum(x) AS s FROM t WHERE x <> 3", None),
    ]:
        log = _assert_prunes_like_literal(optimized, naive, query, pruned_chunks)
        assert log == [surviving], query
    # A parameter bound to NULL reads as a NULL literal does.
    for op, survivors in (("=", []), ("<>", None)):
        del pruned_chunks[:]
        bound = optimized.execute(f"SELECT sum(x) AS s FROM t WHERE x {op} ?", (None,))
        literal = optimized.execute(f"SELECT sum(x) AS s FROM t WHERE x {op} NULL")
        assert pruned_chunks == [survivors, survivors]
        assert bound.equals(literal)
        assert bound.equals(naive.execute(f"SELECT sum(x) AS s FROM t WHERE x {op} ?", (None,)))


def test_unbound_placeholder_raises_bind_error():
    engine = Database(seed=0, chunk_rows=8)
    engine.register_table("t", {"x": np.arange(32)})
    with pytest.raises(BindParameterError):
        engine.execute("SELECT count(*) FROM t WHERE x > ?")
    with pytest.raises(BindParameterError):
        engine.execute("SELECT count(*) FROM t WHERE x > :lo", {"hi": 3})


def test_zone_aggregate_under_fully_prunable_bound_where():
    engines = []
    for optimize in (True, False):
        engine = Database(seed=0, optimize=optimize, chunk_rows=100)
        engine.register_table("t", {"x": np.arange(1000), "v": np.arange(1000) * 0.5})
        engines.append(engine)
    optimized, naive = engines
    literal = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n FROM t WHERE x >= 200 AND x < 500"
    expected = naive.execute(literal)
    for template, params in _bound_twins(literal):
        assert optimized.execute(template, params).equals(expected)
    # A bound window that cuts a chunk: same answer as the naive engine.
    template = "SELECT min(v) AS lo, max(v) AS hi, count(*) AS n FROM t WHERE x >= ? AND x < ?"
    assert optimized.execute(template, (250, 500)).equals(naive.execute(template, (250, 500)))


class TestZoneAggregateWithWhere:
    """Aggregates under chunk-aligned and chunk-cutting WHERE clauses."""

    def _db(self, optimize=True):
        db = Database(seed=0, optimize=optimize, chunk_rows=100)
        rng = np.random.default_rng(3)
        db.register_table(
            "events",
            {
                "ts": np.arange(1_000, dtype=np.int64),
                "value": rng.normal(size=1_000),
                "kind": rng.choice(["click", "view"], 1_000).astype(object),
            },
        )
        return db

    def test_chunk_aligned_predicate_answers_from_zones(self):
        db, serial = self._db(), self._db(optimize=False)
        for sql in (
            "SELECT count(*) AS n FROM events WHERE ts >= 200",
            "SELECT count(*) AS n FROM events WHERE ts >= 200 AND ts < 700",
            "SELECT min(ts) AS lo, max(ts) AS hi FROM events WHERE ts >= 300",
            "SELECT count(*) AS n FROM events WHERE ts < 0",
        ):
            assert db.execute(sql).equals(serial.execute(sql)), sql

    def test_partial_chunk_overlap_stays_on_scan_path(self):
        db, serial = self._db(), self._db(optimize=False)
        sql = "SELECT count(*) AS n FROM events WHERE ts >= 250"
        assert db.execute(sql).equals(serial.execute(sql))

    def test_object_predicates_never_claim_must_match(self):
        db, serial = self._db(), self._db(optimize=False)
        sql = "SELECT count(*) AS n FROM events WHERE kind = 'click'"
        assert db.execute(sql).equals(serial.execute(sql))


def test_rebound_template_prunes_each_bindings_own_chunks(pruned_chunks):
    rows = 2000
    rng = np.random.default_rng(5)
    columns = {"k": np.arange(rows), "g": rng.integers(0, 4, rows), "v": rng.random(rows)}
    optimized = Database(seed=0, chunk_rows=100)
    naive = Database(seed=0, optimize=False, chunk_rows=100)
    for engine in (optimized, naive):
        engine.register_table("t", {name: array.copy() for name, array in columns.items()})
    template = (
        "SELECT g, count(*) AS n, max(v) AS hi FROM t WHERE k >= ? AND k < ? "
        "GROUP BY g ORDER BY g"
    )
    for low, high, surviving in [
        (350, 850, list(range(3, 9))),
        (1000, 1400, list(range(10, 14))),
        (0, 2000, None),  # nothing prunable
    ]:
        del pruned_chunks[:]
        got = optimized.execute(template, (low, high))
        assert pruned_chunks == [surviving]
        assert got.equals(naive.execute(template, (low, high)))
        del pruned_chunks[:]
        literal = template.replace("?", "{}").format(low, high)
        assert optimized.execute(literal).equals(got)
        assert pruned_chunks == [surviving]
    # One plan served all three bindings of the template.
    assert optimized.stats["plan_cache_misses"] == 1 + 3  # the template + three literal texts
    assert optimized.stats["plan_cache_hits"] == 2


# ---------------------------------------------------------------------------
# appends to tables written in sorted order
# ---------------------------------------------------------------------------


class TestAppendsToSortedCopies:
    """Rows appended to a ``CREATE TABLE AS ... ORDER BY`` copy land after
    the sorted rows, in or out of order; zone-map skipping over the result
    still answers as the naive scan."""

    QUERIES = [
        "SELECT count(*) AS n, sum(weight) AS w FROM sorted_copy WHERE sid >= 90",
        "SELECT count(*) AS n FROM sorted_copy WHERE sid < 10",
        "SELECT count(*) AS n FROM sorted_copy WHERE sid BETWEEN 40 AND 60",
        "SELECT sid, count(*) AS n FROM sorted_copy WHERE sid <= 5 GROUP BY sid ORDER BY sid",
        "SELECT min(sid) AS lo, max(sid) AS hi, count(*) AS n FROM sorted_copy",
    ]

    def _pair(self):
        rng = np.random.default_rng(4)
        columns = {
            "sid": rng.integers(0, 100, 400),
            "weight": rng.normal(size=400),
            "label": rng.choice(["a", "b"], 400).astype(object),
        }
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize, chunk_rows=50)
            engine.register_table("raw", {name: array.copy() for name, array in columns.items()})
            engine.execute("CREATE TABLE sorted_copy AS SELECT * FROM raw ORDER BY sid")
            engines.append(engine)
        return engines

    def _append_and_compare(self, sids):
        optimized, naive = self._pair()
        for engine in (optimized, naive):
            engine.table("sorted_copy").append_rows(
                ["sid", "weight", "label"], [(sid, 0.5, "a") for sid in sids]
            )
        for sql in self.QUERIES:
            assert optimized.execute(sql).equals(naive.execute(sql)), sql
        stored = optimized.table("sorted_copy").column("sid")
        assert stored[-len(sids):].tolist() == list(sids)  # appended, not merged
        return stored

    def test_in_order_append_keeps_the_column_sorted(self):
        stored = self._append_and_compare([99, 100, 250])
        assert np.all(stored[:-1] <= stored[1:])

    def test_out_of_order_append(self):
        stored = self._append_and_compare([5])
        assert not np.all(stored[:-1] <= stored[1:])

    def test_unsorted_batch(self):
        self._append_and_compare([200, 150, 3])

    def test_float_key_with_nan_tail(self):
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize, chunk_rows=50)
            engine.register_table(
                "m",
                {"x": np.random.default_rng(1).normal(size=200), "y": np.arange(200)},
            )
            engine.execute("CREATE TABLE mc AS SELECT * FROM m ORDER BY x")
            engine.table("mc").append_rows(
                ["x", "y"], [(50.0, 0), (60.0, 1), (float("nan"), 2), (float("nan"), 4), (70.0, 5)]
            )
            engines.append(engine)
        optimized, naive = engines
        for sql in (
            "SELECT count(*) AS n FROM mc WHERE x > 55",
            "SELECT count(*) AS n FROM mc WHERE x IS NULL",
            "SELECT count(*) AS n, sum(y) AS s FROM mc WHERE x <> 60",
            "SELECT min(x) AS lo, max(x) AS hi, count(x) AS c FROM mc",
        ):
            assert optimized.execute(sql).equals(naive.execute(sql)), sql
        assert optimized.execute("SELECT count(*) AS n FROM mc WHERE x > 55").scalar() == 2

    def test_string_key(self):
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize, chunk_rows=50)
            engine.register_table(
                "s", {"name": np.array(list("dcba") * 25, dtype=object), "v": np.arange(100)}
            )
            engine.execute("CREATE TABLE sc AS SELECT * FROM s ORDER BY name")
            engine.table("sc").append_rows(["name", "v"], [("zzz", 1), ("a", 2)])
            engines.append(engine)
        optimized, naive = engines
        assert optimized.table("sc").column("name")[:100].tolist() == sorted(list("dcba") * 25)
        for sql in (
            "SELECT count(*) AS n FROM sc WHERE name = 'a'",
            "SELECT count(*) AS n FROM sc WHERE name > 'c'",
            "SELECT name, sum(v) AS s FROM sc GROUP BY name ORDER BY name",
        ):
            assert optimized.execute(sql).equals(naive.execute(sql)), sql

    def test_grouped_aggregates_after_insert(self):
        rng = np.random.default_rng(9)
        columns = {"sid": np.sort(rng.integers(0, 20, 300)), "v": rng.normal(size=300)}
        engines = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize, chunk_rows=50)
            engine.register_table("raw", {name: array.copy() for name, array in columns.items()})
            engine.execute("CREATE TABLE sc AS SELECT * FROM raw ORDER BY sid")
            engine.execute("INSERT INTO sc (sid, v) VALUES (20, 1.25), (21, -0.5), (3, 2.0)")
            engines.append(engine)
        optimized, naive = engines
        sql = "SELECT sid, stddev(v) AS s, sum(v) AS t, count(*) AS n FROM sc GROUP BY sid ORDER BY sid"
        result = optimized.execute(sql)
        assert result.equals(naive.execute(sql))
        assert result.num_rows == 22


# ---------------------------------------------------------------------------
# sid-sorted scrambles
# ---------------------------------------------------------------------------


class TestSidClusteredScrambles:
    def test_sample_is_written_sid_sorted(self):
        connector = BuiltinConnector(seed=2)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        builder = SampleBuilder(connector, subsample_count=50)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.1))
        sids = connector.execute(f"SELECT vdb_sid FROM {info.sample_table}").column("vdb_sid")
        values = sids.astype(np.float64)
        assert np.all(np.diff(values) >= 0)  # nondecreasing = sid-sorted
        # the staging table is cleaned up
        assert not connector.has_table(f"{info.sample_table}_vdb_stage")

    def test_every_sample_type_is_written_sid_sorted(self):
        # The sid order is only the order the rows were written in, for
        # every sample type; the sample metadata round-trips without it.
        connector = BuiltinConnector(seed=2)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=50)
        infos = [
            builder.create_sample("orders", spec)
            for spec in (
                SampleSpec("uniform", (), 0.1),
                SampleSpec("hashed", ("order_id",), 0.1),
                SampleSpec("stratified", ("city",), 0.1),
            )
        ]
        for info in infos:
            sids = connector.database.table(info.sample_table).column(SID_COLUMN)
            assert np.all(np.diff(sids) >= 0)
        stored = {
            record.sample_table: record
            for record in MetadataStore(connector).samples_for("orders")
        }
        assert stored == {info.sample_table: info for info in infos}

    def test_outdated_metadata_schema_is_migrated(self):
        # A metadata table that still carries the legacy sid_clustered column
        # is rewritten to the current schema by the next write; its rows
        # survive.
        from repro.sampling import metadata as metadata_module
        from repro.sqlengine import sqlast as ast

        connector = BuiltinConnector(seed=2)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        legacy_columns = [*metadata_module._COLUMNS, ("sid_clustered", "bigint")]
        connector.execute(
            ast.CreateTableStatement(
                table_name=metadata_module.METADATA_TABLE,
                columns=[ast.ColumnDefinition(n, t) for n, t in legacy_columns],
            )
        )
        connector.execute(
            f"INSERT INTO {metadata_module.METADATA_TABLE} VALUES "
            "('orders', 'orders_old_sample', 'uniform', '', 0.1, 20000, 2000, 100, 1)"
        )
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=50)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.1))
        assert connector.column_names(metadata_module.METADATA_TABLE) == [
            name for name, _ in metadata_module._COLUMNS
        ]
        stored = {record.sample_table: record for record in metadata.samples_for("orders")}
        assert stored["orders_old_sample"] == SampleInfo(
            original_table="orders",
            sample_table="orders_old_sample",
            sample_type="uniform",
            columns=(),
            ratio=0.1,
            original_rows=20_000,
            sample_rows=2_000,
            subsample_count=100,
        )
        assert stored[info.sample_table] == info

    def test_per_sid_reads_match_across_modes(self):
        results = []
        for optimize in (True, False):
            connector = BuiltinConnector(
                database=Database(seed=2, optimize=optimize, chunk_rows=256)
            )
            connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
            builder = SampleBuilder(connector, subsample_count=50)
            info = builder.create_sample("orders", SampleSpec("uniform", (), 0.2))
            result = connector.execute(
                f"SELECT count(*) AS n, sum(price) AS s FROM {info.sample_table} "
                "WHERE vdb_sid = 7"
            )
            results.append(result.fetchall())
        assert results[0] == results[1]
        assert results[0][0][0] > 0

    def test_appended_rows_interleave_sids_and_per_sid_reads_find_them(self):
        connector = BuiltinConnector(seed=3)
        rng = np.random.default_rng(5)

        def batch(start, rows):
            return {
                "order_id": np.arange(start, start + rows),
                "price": rng.normal(10.0, 10.0, rows),
                "city": rng.choice(["a", "b", "c"], rows).astype(object),
            }

        connector.load_table("orders", batch(0, 20_000))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        maintainer = SampleMaintainer(connector, metadata, rng=np.random.default_rng(1))
        inserted = maintainer.append("orders", batch(20_000, 5_000))
        assert inserted[info.sample_table] > 0
        # Random sids land after the sorted run: the table is no longer
        # sid-sorted, and reads by sid must still find every row.
        sids = connector.database.table(info.sample_table).column(SID_COLUMN)
        assert not np.all(np.diff(sids) >= 0)
        for sid in (1, 37, 100):
            count = connector.execute(
                f"SELECT count(*) AS n FROM {info.sample_table} WHERE vdb_sid = {sid}"
            ).scalar()
            assert count == int(np.sum(sids == sid)), sid


# ---------------------------------------------------------------------------
# round 3a: derived-column encodings reused by the outer query
# ---------------------------------------------------------------------------


class TestDerivedEncodingPropagation:
    def test_outer_group_by_reuses_inner_codes(self, monkeypatch):
        import repro.sqlengine.executor as executor_module

        engine = Database(seed=0, optimize=True)
        rng = np.random.default_rng(3)
        engine.register_table(
            "orders",
            {
                "city": rng.choice(np.array(["a", "b", "c", None], dtype=object), 2000),
                "status": rng.choice(np.array(["x", "y"], dtype=object), 2000),
                "price": rng.normal(10, 2, 2000),
            },
        )
        calls = {"object_encodes": 0}
        original = executor_module.encode_key

        def counting(values, encoded=None):
            if values.dtype == object and encoded is None:
                calls["object_encodes"] += 1
            return original(values, encoded)

        monkeypatch.setattr(executor_module, "encode_key", counting)
        monkeypatch.setattr("repro.sqlengine.expressions.encode_key", counting)
        result = engine.execute(
            "SELECT t.city, count(*) AS groups FROM "
            "(SELECT city, status, sum(price) AS s FROM orders GROUP BY city, status) AS t "
            "GROUP BY t.city ORDER BY t.city"
        )
        # the outer GROUP BY consumed the propagated codes: no object column
        # was re-encoded anywhere in the statement
        assert calls["object_encodes"] == 0
        assert result.num_rows == 4

    def test_propagated_codes_survive_having_order_and_limit(self):
        queries = [
            "SELECT t.city, t.n FROM (SELECT city, count(*) AS n FROM orders "
            "GROUP BY city HAVING count(*) > 10 ORDER BY city DESC LIMIT 3) AS t "
            "WHERE t.city <> 'nyc' ORDER BY t.city",
            "SELECT t.city, count(*) AS n FROM "
            "(SELECT city, qty FROM orders ORDER BY order_id LIMIT 200 OFFSET 10) AS t "
            "GROUP BY t.city ORDER BY t.city",
        ]
        for query in queries:
            results = []
            for optimize in (True, False):
                engine = Database(seed=0, optimize=optimize)
                engine.register_table("orders", build_orders_columns(num_rows=2_000, seed=9))
                results.append(engine.execute(query).fetchall())
            assert results[0] == results[1], query


# ---------------------------------------------------------------------------
# dictionary-broadcast scalar string functions
# ---------------------------------------------------------------------------


class TestDictionaryScalarFunctions:
    CORPUS = [
        "SELECT s, upper(s) AS u FROM t ORDER BY k",
        "SELECT s, lower(s) AS l FROM t ORDER BY k",
        "SELECT s, length(s) AS n FROM t ORDER BY k",
        "SELECT s, substr(s, 2) AS tail FROM t ORDER BY k",
        "SELECT s, substr(s, 1, 2) AS head FROM t ORDER BY k",
        "SELECT count(*) FROM t WHERE upper(s) = 'APPLE'",
        "SELECT upper(s) AS u, count(*) AS n FROM t GROUP BY upper(s) ORDER BY u",
    ]

    @pytest.mark.parametrize("query", CORPUS)
    def test_matches_naive(self, query):
        rows = np.array(
            ["apple", "Banana", None, "", "\0weird", "apple", 42], dtype=object
        )
        results = []
        for optimize in (True, False):
            engine = Database(seed=0, optimize=optimize)
            engine.register_table("t", {"s": rows.copy(), "k": np.arange(len(rows))})
            results.append(engine.execute(query).fetchall())
        assert results[0] == results[1], query

    def test_per_row_comprehension_runs_over_dictionary(self, monkeypatch):
        import repro.sqlengine.functions as functions_module

        engine = Database(seed=0, optimize=True)
        engine.register_table(
            "t", {"s": np.array(["a", "b"] * 500, dtype=object)}
        )
        seen = {}
        original = functions_module.SCALAR_FUNCTIONS["upper"]

        def spy(context, values):
            seen["rows"] = len(values)
            return original(context, values)

        monkeypatch.setitem(functions_module.SCALAR_FUNCTIONS, "upper", spy)
        result = engine.execute("SELECT upper(s) AS u FROM t")
        assert result.num_rows == 1000
        assert seen["rows"] == 2  # dictionary entries, not rows

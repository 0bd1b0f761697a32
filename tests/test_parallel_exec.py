"""Tests for process-sharded execution (partial aggregation + shard pool).

Covers the partial-aggregation kernels in isolation, the shared-memory shard
pool lifecycle, dispatch bit-identity against the unoptimized engine (both
in-thread and process modes, including a hypothesis A/B sweep over
NaN/NULL-heavy data), zone-map aggregate answering under fully prunable
predicates, and clustering survival across monotone appends.
"""

import glob
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.connectors import BuiltinConnector
from repro.sampling import MetadataStore, SampleBuilder, SampleMaintainer, SampleSpec, SID_COLUMN
from repro.sqlengine import Database, functions, sqlast as ast
from repro.sqlengine import partialagg, shardpool
from repro.sqlengine.encoding import encode_object_array
from repro.sqlengine.expressions import Frame, LazyCodes
from repro.sqlengine.parser import parse_select
from tests.conftest import sharded_database


# ---------------------------------------------------------------------------
# Shared data / helpers
# ---------------------------------------------------------------------------


def sales_columns(num_rows=600, seed=7):
    rng = np.random.default_rng(seed)
    keys = rng.choice(["ann arbor", "boston", "chicago", "detroit"], num_rows).astype(object)
    keys[rng.random(num_rows) < 0.1] = None
    prices = rng.normal(10.0, 5.0, num_rows)
    prices[rng.random(num_rows) < 0.1] = np.nan
    return {
        "city": keys,
        "qty": rng.integers(-50, 50, num_rows),
        "price": prices,
        "flag": rng.random(num_rows) < 0.5,
    }


QUERIES = [
    "SELECT count(*) AS n FROM sales",
    "SELECT count(price) AS n, count(*) AS total FROM sales",
    "SELECT sum(qty) AS s, avg(qty) AS a FROM sales",
    "SELECT min(price) AS lo, max(price) AS hi FROM sales",
    "SELECT avg(flag) AS share FROM sales",
    "SELECT city, count(*) AS n FROM sales GROUP BY city",
    "SELECT city, sum(qty) AS s, min(price) AS lo FROM sales GROUP BY city ORDER BY city",
    "SELECT city, avg(qty) AS a FROM sales WHERE qty > 0 GROUP BY city ORDER BY a DESC",
    "SELECT city, flag, count(*) AS n FROM sales GROUP BY city, flag ORDER BY city, flag",
    "SELECT city, max(price) AS hi FROM sales GROUP BY city HAVING count(*) > 10 ORDER BY city",
]


def assert_matches_serial(parallel_db, serial_db, sql, params=None):
    got = parallel_db.execute(sql, params=params)
    ref = serial_db.execute(sql, params=params)
    assert got.equals(ref), f"parallel result diverged for {sql!r}"


@pytest.fixture(scope="module")
def serial_db():
    db = Database(seed=0, optimize=False, chunk_rows=64)
    db.register_table("sales", sales_columns())
    return db


@pytest.fixture(scope="module")
def inthread_db():
    db = Database(seed=0, parallel_exec=1, chunk_rows=64)
    db.register_table("sales", sales_columns())
    return db


@pytest.fixture(scope="module")
def process_db():
    # min_shard_rows=0: the fixture tables are far below the production
    # admission threshold, and these tests exercise dispatch mechanics,
    # not the cost model.
    db = sharded_database(seed=0, parallel_exec=2, chunk_rows=64)
    db.register_table("sales", sales_columns())
    yield db
    db.close()


# ---------------------------------------------------------------------------
# Partial-aggregation kernels
# ---------------------------------------------------------------------------


class TestPartialAggregation:
    def _build(self, num_rows=1_000, seed=42):
        rng = np.random.default_rng(seed)
        keys = np.array(
            [["a", "b", "c", None][i] for i in rng.integers(0, 4, num_rows)], dtype=object
        )
        values = rng.integers(-50, 50, num_rows).astype(np.int64)
        floats = rng.normal(size=num_rows)
        floats[rng.random(num_rows) < 0.1] = np.nan
        codes, dictionary = encode_object_array(keys)

        def build_frame(piece):
            frame = Frame()
            frame.add_column(
                "t", "k", keys[piece], codes=LazyCodes.presolved(codes[piece], dictionary)
            )
            frame.add_column("t", "v", values[piece])
            frame.add_column("t", "f", floats[piece])
            return frame

        return build_frame, num_rows

    def _specs(self):
        col_v = ast.ColumnRef(name="v")
        col_f = ast.ColumnRef(name="f")
        return [
            partialagg.AggSpec(mode="count_star", name="count", is_star=True),
            partialagg.AggSpec(mode="sum", name="sum", args=(col_v,), column="v"),
            partialagg.AggSpec(mode="avg", name="avg", args=(col_v,), column="v"),
            partialagg.AggSpec(mode="min", name="min", args=(col_f,), column="f"),
            partialagg.AggSpec(mode="max", name="max", args=(col_f,), column="f"),
            partialagg.AggSpec(mode="count", name="count", args=(col_f,)),
        ]

    @staticmethod
    def _context(num_rows):
        return functions.EvaluationContext(
            num_rows=num_rows, rng=np.random.default_rng(0), params=None
        )

    def test_grouped_merge_matches_single_shard(self):
        build_frame, num_rows = self._build()
        specs = self._specs()
        group_columns = [("k", "t")]
        whole = partialagg.compute_shard_state(
            build_frame(slice(None)), group_columns, specs, self._context(num_rows)
        )
        reference = partialagg.merge_shard_states([whole], specs, scalar=False, aligned=False)
        for splits in ([0, 250, 500, 750, num_rows], [0, 1, num_rows], [0, num_rows],
                       [0, 333, 334, num_rows]):
            states = [
                partialagg.compute_shard_state(
                    build_frame(slice(lo, hi)), group_columns, specs, self._context(hi - lo)
                )
                for lo, hi in zip(splits, splits[1:])
            ]
            merged = partialagg.merge_shard_states(states, specs, scalar=False, aligned=False)
            assert merged.num_groups == reference.num_groups
            assert merged.reps == reference.reps
            for got, want in zip(merged.aggregates, reference.aggregates):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_scalar_empty_shards_synthesize_serial_defaults(self):
        build_frame, _ = self._build()
        specs = self._specs()[1:]
        state = partialagg.compute_shard_state(
            build_frame(slice(0, 0)), [], specs, self._context(0)
        )
        merged = partialagg.merge_shard_states([state], specs, scalar=True, aligned=False)
        assert merged.num_groups == 1
        total, average, low, high, count = (array[0] for array in merged.aggregates)
        # Serial bincount semantics: sum of no int rows is 0, not NULL.
        assert total == 0.0 and count == 0.0
        assert np.isnan(average) and np.isnan(low) and np.isnan(high)

    def test_sum_exactness_bound_raises_fallback(self):
        col_v = ast.ColumnRef(name="v")
        spec = partialagg.AggSpec(mode="sum", name="sum", args=(col_v,), column="v")
        frame = Frame()
        frame.add_column("t", "v", np.full(10, 1 << 51, dtype=np.int64))
        state = partialagg.compute_shard_state(frame, [], [spec], self._context(10))
        with pytest.raises(partialagg.ParallelFallback):
            partialagg.merge_shard_states([state], [spec], scalar=True, aligned=False)

    def test_classify_rejects_unmergeable_unaligned_aggregates(self):
        def node(expression):
            return parse_select(f"SELECT {expression} AS a FROM t").select_items[0].expression

        dtypes = {"v": np.dtype(np.int64), "f": np.dtype(np.float64)}

        def column_dtype(ref):
            return dtypes.get(getattr(ref, "name", None))

        def row_local(expression):
            return True

        assert partialagg.classify_aggregate(node("count(*)"), column_dtype, False, row_local)
        assert partialagg.classify_aggregate(node("sum(v)"), column_dtype, False, row_local)
        assert partialagg.classify_aggregate(node("min(f)"), column_dtype, False, row_local)
        # Float sums reorder additions across shards; distinct and holistic
        # aggregates cannot be merged from partials at all.
        assert partialagg.classify_aggregate(node("sum(f)"), column_dtype, False, row_local) is None
        assert (
            partialagg.classify_aggregate(node("count(DISTINCT v)"), column_dtype, False, row_local)
            is None
        )
        assert partialagg.classify_aggregate(node("stddev(v)"), column_dtype, False, row_local) is None
        # Group-aligned shards lift all three restrictions.
        assert partialagg.classify_aggregate(node("sum(f)"), column_dtype, True, row_local)
        assert partialagg.classify_aggregate(node("stddev(v)"), column_dtype, True, row_local)


# ---------------------------------------------------------------------------
# In-thread sharding (parallel_exec=1)
# ---------------------------------------------------------------------------


class TestInThreadSharding:
    def test_corpus_matches_serial_and_dispatches(self, inthread_db, serial_db):
        # Every corpus query reaches the shard path.
        for sql in QUERIES:
            before = inthread_db.stats["parallel_exec_dispatches"]
            assert_matches_serial(inthread_db, serial_db, sql)
            assert inthread_db.stats["parallel_exec_dispatches"] > before, sql

    def test_ineligible_queries_fall_back_silently(self, inthread_db, serial_db):
        before = inthread_db.stats["parallel_exec_dispatches"]
        for sql in (
            "SELECT count(DISTINCT city) AS n FROM sales",
            "SELECT sum(price) AS s FROM sales",
            "SELECT city, count(*) AS n FROM (SELECT city FROM sales) t "
            "GROUP BY city ORDER BY city",
        ):
            assert_matches_serial(inthread_db, serial_db, sql)
        assert inthread_db.stats["parallel_exec_dispatches"] == before

    def test_expression_group_keys_dispatch(self, inthread_db, serial_db):
        before = inthread_db.stats["parallel_exec_dispatches"]
        expr_before = inthread_db.stats["parallel_exec_expr_key_dispatches"]
        for sql in (
            "SELECT qty + 1 AS k, count(*) AS n FROM sales GROUP BY qty + 1 ORDER BY k",
            "SELECT qty * 2 AS k, sum(qty) AS s FROM sales GROUP BY qty * 2 ORDER BY k",
            "SELECT upper(city) AS k, count(*) AS n FROM sales GROUP BY upper(city) ORDER BY k",
        ):
            assert_matches_serial(inthread_db, serial_db, sql)
        assert inthread_db.stats["parallel_exec_dispatches"] == before + 3
        assert inthread_db.stats["parallel_exec_expr_key_dispatches"] == expr_before + 3

    def test_stats_consistent_under_concurrent_queries(self, inthread_db, serial_db):
        sql = "SELECT city, sum(qty) AS s FROM sales GROUP BY city ORDER BY city"
        reference = serial_db.execute(sql)
        before = inthread_db.stats["parallel_exec_dispatches"]
        errors = []

        def run():
            try:
                for _ in range(5):
                    assert inthread_db.execute(sql).equals(reference)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert inthread_db.stats["parallel_exec_dispatches"] == before + 40


# ---------------------------------------------------------------------------
# Process sharding (parallel_exec=2, shared-memory shard pool)
# ---------------------------------------------------------------------------


class TestProcessSharding:
    def test_corpus_matches_serial(self, process_db, serial_db):
        for sql in QUERIES:
            assert_matches_serial(process_db, serial_db, sql)

    def test_columns_published_once_across_queries(self, process_db, serial_db):
        publications = process_db.stats["shard_publications"]
        dispatches = process_db.stats["parallel_exec_dispatches"]
        for sql in QUERIES[5:]:  # the grouped queries always dispatch
            assert_matches_serial(process_db, serial_db, sql)
        # All dispatches reuse the segment published by whichever query
        # touched the table first — zero per-query column pickling.
        assert process_db.stats["parallel_exec_dispatches"] >= dispatches + 5
        assert process_db.stats["shard_publications"] <= max(publications, 1)

    def test_dml_invalidates_and_republishes(self):
        serial = Database(seed=0, optimize=False, chunk_rows=32)
        parallel = sharded_database(seed=0, parallel_exec=2, chunk_rows=32)
        for db in (serial, parallel):
            db.register_table("sales", sales_columns(num_rows=300))
        try:
            sql = "SELECT city, sum(qty) AS s, count(*) AS n FROM sales GROUP BY city ORDER BY city"
            assert_matches_serial(parallel, serial, sql)
            first = parallel.stats["shard_publications"]
            insert = "INSERT INTO sales (city, qty, price, flag) VALUES ('zzz', 7, 1.5, TRUE)"
            serial.execute(insert)
            parallel.execute(insert)
            assert_matches_serial(parallel, serial, sql)
            assert parallel.stats["shard_publications"] == first + 1
        finally:
            parallel.close()

    def test_close_releases_segments_and_pool_restarts(self):
        db = sharded_database(seed=0, parallel_exec=2, chunk_rows=32)
        db.register_table("sales", sales_columns(num_rows=300))
        sql = "SELECT city, count(*) AS n FROM sales GROUP BY city ORDER BY city"
        baseline = set(shardpool.ShardPool.live_segment_names())
        first = db.execute(sql)
        mine = set(shardpool.ShardPool.live_segment_names()) - baseline
        assert mine, "query should have published at least one segment"
        db.close()
        remaining = set(shardpool.ShardPool.live_segment_names())
        assert mine.isdisjoint(remaining)
        for name in mine:
            assert not glob.glob(f"/dev/shm/{name}"), f"segment {name} leaked in /dev/shm"
        # The engine survives close(): the next query recreates the pool.
        dispatches = db.stats["parallel_exec_dispatches"]
        assert db.execute(sql).equals(first)
        assert db.stats["parallel_exec_dispatches"] == dispatches + 1
        db.close()

    def test_small_tables_skip_process_dispatch(self):
        # The default admission threshold keeps tiny tables off the pool:
        # fork/IPC overhead beats any 2-way speedup at this size, so the
        # dispatcher should not even publish a segment.
        serial = Database(seed=0, optimize=False, chunk_rows=64)
        parallel = Database(seed=0, parallel_exec=2, chunk_rows=64)  # default threshold
        for db in (serial, parallel):
            db.register_table("sales", sales_columns(num_rows=300))
        try:
            sql = "SELECT city, count(*) AS n FROM sales GROUP BY city ORDER BY city"
            assert_matches_serial(parallel, serial, sql)
            assert parallel.stats["parallel_exec_dispatches"] == 0
            assert parallel.stats["shard_publications"] == 0
        finally:
            parallel.close()

    def test_unfaithful_object_columns_fall_back(self):
        # Mixed-type object columns cannot round-trip through the dictionary
        # segment faithfully, so the dispatcher must defer to the serial path.
        serial = Database(seed=0, optimize=False, chunk_rows=16)
        parallel = sharded_database(seed=0, parallel_exec=2, chunk_rows=16)
        columns = {
            "k": np.array(["a", 1, "b", None] * 25, dtype=object),
            "v": np.arange(100, dtype=np.int64),
        }
        for db in (serial, parallel):
            db.register_table("mixed", {name: array.copy() for name, array in columns.items()})
        try:
            sql = "SELECT k, count(*) AS n FROM mixed GROUP BY k ORDER BY n DESC"
            fallbacks = parallel.stats["parallel_exec_fallbacks"]
            assert_matches_serial(parallel, serial, sql)
            assert parallel.stats["parallel_exec_fallbacks"] == fallbacks + 1
        finally:
            parallel.close()


# ---------------------------------------------------------------------------
# Hypothesis A/B: sharded execution is bitwise-identical to serial
# ---------------------------------------------------------------------------


row_counts = st.integers(min_value=0, max_value=300)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
null_rates = st.sampled_from([0.0, 0.2, 0.9])

AB_QUERIES = [
    "SELECT count(*) AS n FROM sales",
    "SELECT sum(qty) AS s, avg(qty) AS a, count(price) AS c FROM sales",
    "SELECT city, count(*) AS n, min(price) AS lo, max(price) AS hi FROM sales "
    "GROUP BY city ORDER BY city",
    "SELECT city, sum(qty) AS s FROM sales WHERE price > 0 GROUP BY city ORDER BY s, city",
]


def _random_columns(num_rows, seed, null_rate):
    rng = np.random.default_rng(seed)
    keys = rng.choice(["x", "y", "z"], num_rows).astype(object)
    keys[rng.random(num_rows) < null_rate] = None
    prices = rng.normal(size=num_rows)
    prices[rng.random(num_rows) < null_rate] = np.nan
    return {
        "city": keys,
        "qty": rng.integers(-1_000, 1_000, num_rows),
        "price": prices,
    }


@given(row_counts, seeds, null_rates)
@settings(max_examples=25, deadline=None)
def test_inthread_sharding_is_bitwise_serial(num_rows, seed, null_rate):
    columns = _random_columns(num_rows, seed, null_rate)
    serial = Database(seed=0, optimize=False, chunk_rows=32)
    parallel = Database(seed=0, parallel_exec=1, chunk_rows=32)
    serial.register_table("sales", {name: array.copy() for name, array in columns.items()})
    parallel.register_table("sales", columns)
    for sql in AB_QUERIES:
        assert parallel.execute(sql).equals(serial.execute(sql)), sql


@pytest.mark.parametrize("example", range(8))
def test_process_sharding_is_bitwise_serial(process_db, example):
    # Re-registering the table per example exercises republication; the
    # shared module-scoped pool keeps worker startup off the hot path.
    columns = _random_columns(num_rows=37 * example, seed=1_000 + example, null_rate=0.3)
    serial = Database(seed=0, optimize=False, chunk_rows=64)
    serial.register_table("sales", {name: array.copy() for name, array in columns.items()})
    process_db.register_table("sales", columns)
    for sql in AB_QUERIES:
        assert process_db.execute(sql).equals(serial.execute(sql)), sql


# ---------------------------------------------------------------------------
# Aggregates under chunk-aligned and chunk-cutting WHERE clauses
# ---------------------------------------------------------------------------


class TestZoneAggregateWithWhere:
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


# ---------------------------------------------------------------------------
# Clustering survival across appends
# ---------------------------------------------------------------------------


class TestClusteringSurvival:
    def _clustered_db(self):
        db = Database(seed=0, chunk_rows=50)
        rng = np.random.default_rng(4)
        db.register_table(
            "raw",
            {
                "sid": rng.integers(0, 100, 400),
                "weight": rng.normal(size=400),
                "label": rng.choice(["a", "b"], 400).astype(object),
            },
        )
        db.execute("CREATE TABLE sorted_copy AS SELECT * FROM raw ORDER BY sid")
        assert db.table("sorted_copy").clustered_on == "sid"
        return db

    def _append(self, db, sids, weights=None, labels=None):
        count = len(sids)
        weights = weights if weights is not None else [0.0] * count
        labels = labels if labels is not None else ["a"] * count
        db.table("sorted_copy").append_rows(
            ["sid", "weight", "label"], list(zip(sids, weights, labels))
        )

    def test_monotone_append_preserves_clustering(self):
        db = self._clustered_db()
        self._append(db, [99, 100, 250])
        assert db.table("sorted_copy").clustered_on == "sid"
        # And the invariant actually holds: the column is still sorted.
        column = db.table("sorted_copy").column("sid")
        assert np.all(column[:-1] <= column[1:])

    def test_non_monotone_append_wipes_clustering(self):
        db = self._clustered_db()
        self._append(db, [5])
        assert db.table("sorted_copy").clustered_on is None

    def test_unsorted_batch_wipes_clustering(self):
        db = self._clustered_db()
        self._append(db, [200, 150])
        assert db.table("sorted_copy").clustered_on is None

    def test_float_clustering_with_nan_tail_survives(self):
        db = Database(seed=0, chunk_rows=50)
        db.register_table("m", {"x": np.sort(np.random.default_rng(1).normal(size=200)), "y": np.arange(200)})
        db.execute("CREATE TABLE mc AS SELECT * FROM m ORDER BY x")
        table = db.table("mc")
        assert table.clustered_on == "x"
        table.append_rows(["x", "y"], [(50.0, 0), (60.0, 1), (float("nan"), 2)])
        assert table.clustered_on == "x"
        table.append_rows(["x", "y"], [(float("nan"), 3)])
        assert table.clustered_on == "x"
        # A NaN followed by a value is not a sorted suffix.
        table.append_rows(["x", "y"], [(float("nan"), 4), (70.0, 5)])
        assert table.clustered_on is None

    def test_object_key_clustering_always_wiped(self):
        db = Database(seed=0, chunk_rows=50)
        db.register_table("s", {"name": np.array(list("abcd") * 25, dtype=object), "v": np.arange(100)})
        db.execute("CREATE TABLE sc AS SELECT * FROM s ORDER BY name")
        assert db.table("sc").clustered_on == "name"
        db.table("sc").append_rows(["name", "v"], [("zzz", 1)])
        assert db.table("sc").clustered_on is None

    def test_parallel_dispatch_correct_after_clustering_survival(self):
        # The aligned dispatch tier trusts clustered_on; a survived append
        # must still produce bit-identical grouped results.
        serial = Database(seed=0, optimize=False, chunk_rows=50)
        parallel = Database(seed=0, parallel_exec=1, chunk_rows=50)
        rng = np.random.default_rng(9)
        columns = {"sid": np.sort(rng.integers(0, 20, 300)), "v": rng.normal(size=300)}
        for db in (serial, parallel):
            db.register_table("raw", {name: array.copy() for name, array in columns.items()})
            db.execute("CREATE TABLE sc AS SELECT * FROM raw ORDER BY sid")
            db.execute("INSERT INTO sc (sid, v) VALUES (20, 1.25), (21, -0.5)")
        assert parallel.table("sc").clustered_on == "sid"
        sql = "SELECT sid, stddev(v) AS s, sum(v) AS t FROM sc GROUP BY sid ORDER BY sid"
        dispatches = parallel.stats["parallel_exec_dispatches"]
        assert parallel.execute(sql).equals(serial.execute(sql))
        assert parallel.stats["parallel_exec_dispatches"] == dispatches + 1


class TestSidClusteredMetadata:
    def test_append_clears_sid_clustered_flag(self):
        connector = BuiltinConnector(seed=3)
        rng = np.random.default_rng(5)
        connector.load_table(
            "orders",
            {
                "order_id": np.arange(20_000),
                "price": rng.normal(10.0, 10.0, 20_000),
                "city": rng.choice(["a", "b", "c"], 20_000).astype(object),
            },
        )
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        sample = connector.database.table(info.sample_table)
        assert sample.clustered_on == SID_COLUMN

        maintainer = SampleMaintainer(connector, metadata, rng=np.random.default_rng(1))
        batch = {
            "order_id": np.arange(5_000) + 20_000,
            "price": rng.normal(10.0, 10.0, 5_000),
            "city": rng.choice(["a", "b", "c"], 5_000).astype(object),
        }
        inserted = maintainer.append("orders", batch)
        assert inserted[info.sample_table] > 0
        # Random sids interleave into the sorted scramble: the engine must
        # drop its clustering claim.
        assert sample.clustered_on is None

"""Round-8 dispatch tiers: sharded joins, expression group keys, plan cache.

The A/B suites assert the new tiers are *bitwise* identical to the serial
engine (``optimize=False``) — including NaN/NULL-heavy build sides and
mid-run DML republication — and the counter tests prove a prepared
statement's re-executions ship no column bytes and no re-derived plans
(dispatch counters race far ahead of publication counters).
"""

from __future__ import annotations

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api.options import ExecutionOptions
from repro.sqlengine import shardpool
from repro.sqlengine.engine import Database
from tests.conftest import sharded_database

JOIN_QUERIES = [
    "SELECT r.name AS name, count(*) AS n FROM orders o JOIN regions r "
    "ON o.region_id = r.id GROUP BY r.name ORDER BY r.name",
    "SELECT r.name AS name, sum(o.qty) AS s, min(o.price) AS lo, max(o.price) AS hi "
    "FROM orders o JOIN regions r ON o.region_id = r.id "
    "GROUP BY r.name ORDER BY r.name",
    # WHERE on the probe side plus a conjunct pushed into ON on the build side.
    "SELECT r.name AS name, count(*) AS n FROM orders o JOIN regions r "
    "ON o.region_id = r.id AND r.id > 0 WHERE o.qty > 2 "
    "GROUP BY r.name ORDER BY r.name",
    # Unqualified key and group columns (each resolves in exactly one table).
    "SELECT name, count(*) AS n FROM orders JOIN regions ON region_id = id "
    "GROUP BY name ORDER BY name",
]

EXPR_QUERIES = [
    "SELECT qty + 1 AS k, count(*) AS n FROM orders GROUP BY qty + 1 ORDER BY k",
    "SELECT qty * 2 AS k, sum(qty) AS s FROM orders GROUP BY qty * 2 ORDER BY k",
    "SELECT upper(city) AS k, count(*) AS n FROM orders GROUP BY upper(city) ORDER BY k",
]


def orders_columns(num_rows=600, seed=5, null_rate=0.0):
    rng = np.random.default_rng(seed)
    cities = rng.choice(["ann arbor", "detroit", "nyc"], num_rows).astype(object)
    cities[rng.random(num_rows) < null_rate] = None
    prices = rng.normal(10.0, 5.0, num_rows)
    prices[rng.random(num_rows) < null_rate] = np.nan
    return {
        "order_id": np.arange(num_rows, dtype=np.int64),
        "region_id": rng.integers(0, 6, num_rows).astype(np.int64),
        "qty": rng.integers(1, 10, num_rows).astype(np.int64),
        "price": prices,
        "city": cities,
    }


def regions_columns(num_regions=5, seed=9, null_rate=0.0):
    rng = np.random.default_rng(seed)
    names = np.array([f"region-{i}" for i in range(num_regions)], dtype=object)
    names[rng.random(num_regions) < null_rate] = None
    taxes = rng.normal(0.1, 0.05, num_regions)
    taxes[rng.random(num_regions) < null_rate] = np.nan
    return {
        # Deliberately sparser than the probe's foreign keys: some orders
        # have no matching region (INNER JOIN drops them).
        "id": np.arange(num_regions, dtype=np.int64),
        "name": names,
        "tax": taxes,
    }


def register_pair(db, seed=5, num_rows=600, null_rate=0.0):
    db.register_table("orders", orders_columns(num_rows, seed, null_rate))
    db.register_table("regions", regions_columns(5, seed + 1, null_rate))


def assert_matches_serial(parallel_db, serial_db, sql):
    got = parallel_db.execute(sql)
    ref = serial_db.execute(sql)
    assert got.equals(ref), f"parallel result diverged for {sql!r}"


@pytest.fixture(scope="module")
def serial_db():
    db = Database(seed=0, optimize=False, chunk_rows=64)
    register_pair(db)
    return db


@pytest.fixture(scope="module")
def inthread_db():
    db = Database(seed=0, parallel_exec=1, chunk_rows=64)
    register_pair(db)
    return db


@pytest.fixture(scope="module")
def process_db():
    db = sharded_database(seed=0, parallel_exec=2, chunk_rows=64)
    register_pair(db)
    yield db
    db.close()


# ---------------------------------------------------------------------------
# join tier
# ---------------------------------------------------------------------------


class TestJoinDispatch:
    def test_join_corpus_matches_serial_inthread(self, inthread_db, serial_db):
        before = inthread_db.stats["parallel_exec_join_dispatches"]
        for sql in JOIN_QUERIES:
            assert_matches_serial(inthread_db, serial_db, sql)
        assert (
            inthread_db.stats["parallel_exec_join_dispatches"]
            == before + len(JOIN_QUERIES)
        )

    def test_join_corpus_matches_serial_process(self, process_db, serial_db):
        before = process_db.stats["parallel_exec_join_dispatches"]
        for sql in JOIN_QUERIES:
            assert_matches_serial(process_db, serial_db, sql)
        assert (
            process_db.stats["parallel_exec_join_dispatches"]
            == before + len(JOIN_QUERIES)
        )

    def test_join_counters_surface_in_health(self, process_db):
        stats = process_db.health().stats
        assert "parallel_exec_join_dispatches" in stats
        assert "parallel_exec_expr_key_dispatches" in stats
        assert "plan_cache_shm_hits" in stats
        assert "plan_cache_shm_publications" in stats

    def test_oversized_build_side_falls_back(self):
        from repro.sqlengine import executor as executor_module

        serial = Database(seed=0, optimize=False, chunk_rows=64)
        parallel = sharded_database(seed=0, parallel_exec=1, chunk_rows=64)
        big = executor_module.JOIN_BUILD_ROW_BOUND + 1
        for db in (serial, parallel):
            db.register_table("orders", orders_columns(num_rows=200))
            db.register_table(
                "regions",
                {
                    "id": np.arange(big, dtype=np.int64) % 7,
                    "name": np.array(
                        [f"r{i % 7}" for i in range(big)], dtype=object
                    ),
                },
            )
        try:
            before = parallel.stats["parallel_exec_join_dispatches"]
            assert_matches_serial(parallel, serial, JOIN_QUERIES[0])
            assert parallel.stats["parallel_exec_join_dispatches"] == before
        finally:
            parallel.close()


# ---------------------------------------------------------------------------
# expression group keys
# ---------------------------------------------------------------------------


class TestExpressionKeys:
    def test_expr_corpus_matches_serial_process(self, process_db, serial_db):
        before = process_db.stats["parallel_exec_expr_key_dispatches"]
        for sql in EXPR_QUERIES:
            assert_matches_serial(process_db, serial_db, sql)
        assert (
            process_db.stats["parallel_exec_expr_key_dispatches"]
            == before + len(EXPR_QUERIES)
        )

    def test_nondeterministic_expression_keys_fall_back(self, inthread_db, serial_db):
        # rand() is not row-local-deterministic; the dispatcher must not
        # shard it (per-shard evaluation would reseed the generator).
        before = inthread_db.stats["parallel_exec_dispatches"]
        sql = (
            "SELECT floor(rand() * 0) + qty AS k, count(*) AS n FROM orders "
            "GROUP BY floor(rand() * 0) + qty ORDER BY k"
        )
        inthread_db.execute(sql)
        assert inthread_db.stats["parallel_exec_dispatches"] == before


# ---------------------------------------------------------------------------
# Hypothesis A/B: join + expression tiers are bitwise-identical to serial
# ---------------------------------------------------------------------------


row_counts = st.integers(min_value=0, max_value=250)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
null_rates = st.sampled_from([0.0, 0.3, 0.9])


@given(row_counts, seeds, null_rates)
@settings(max_examples=20, deadline=None)
def test_join_and_expr_inthread_bitwise_serial(num_rows, seed, null_rate):
    serial = Database(seed=0, optimize=False, chunk_rows=32)
    parallel = sharded_database(seed=0, parallel_exec=1, chunk_rows=32)
    for db in (serial, parallel):
        register_pair(db, seed=seed % 10_000, num_rows=num_rows, null_rate=null_rate)
    for sql in JOIN_QUERIES + EXPR_QUERIES[:1]:
        assert parallel.execute(sql).equals(serial.execute(sql)), sql


@pytest.mark.parametrize("example", range(6))
def test_join_process_bitwise_serial(process_db, example):
    # Re-registering both sides per example exercises probe and build
    # republication; NaN/NULL-heavy build sides stress the faithful
    # object-column round-trip checks.
    null_rate = (0.0, 0.3, 0.9)[example % 3]
    serial = Database(seed=0, optimize=False, chunk_rows=64)
    register_pair(serial, seed=2_000 + example, num_rows=41 * example, null_rate=null_rate)
    register_pair(process_db, seed=2_000 + example, num_rows=41 * example, null_rate=null_rate)
    for sql in JOIN_QUERIES:
        assert process_db.execute(sql).equals(serial.execute(sql)), sql


def test_mid_run_dml_republishes_both_sides(process_db):
    serial = Database(seed=0, optimize=False, chunk_rows=64)
    register_pair(serial, seed=77, num_rows=240)
    register_pair(process_db, seed=77, num_rows=240)
    sql = JOIN_QUERIES[1]
    assert_matches_serial(process_db, serial, sql)
    publications = process_db.stats["shard_publications"]
    for db in (serial, process_db):
        db.execute(
            "INSERT INTO orders (order_id, region_id, qty, price, city) "
            "VALUES (9999, 2, 3, 1.25, 'nyc')"
        )
        db.execute("INSERT INTO regions (id, name, tax) VALUES (6, 'region-6', 0.2)")
    assert_matches_serial(process_db, serial, sql)
    # Both sides changed version, so both segments were republished.
    assert process_db.stats["shard_publications"] == publications + 2


# ---------------------------------------------------------------------------
# cross-process plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_prepared_reexecution_ships_no_bytes(self):
        db = sharded_database(seed=0, parallel_exec=2, chunk_rows=64)
        register_pair(db, num_rows=400)
        serial = Database(seed=0, optimize=False, chunk_rows=64)
        register_pair(serial, num_rows=400)
        try:
            sql = (
                "SELECT city, count(*) AS n, sum(qty) AS s FROM orders "
                "WHERE qty > ? GROUP BY city ORDER BY city"
            )
            for threshold in range(8):
                got = db.execute(sql, params=(threshold,))
                ref = serial.execute(sql, params=(threshold,))
                assert got.equals(ref), threshold
            stats = db.stats
            # One publication of the plan spec and of the column segment;
            # every later execution ships only row ranges + bound params.
            assert stats["plan_cache_shm_publications"] == 1
            assert stats["shard_publications"] == 1
            assert stats["parallel_exec_dispatches"] == 8
            # dispatches ≫ publications is the no-bytes-on-the-hot-path proof.
            assert stats["plan_cache_shm_hits"] >= stats["parallel_exec_dispatches"] - 1
        finally:
            db.close()

    def test_rebound_zone_pruning_reuses_the_published_plan(self):
        # order_id is clustered, so each binding prunes to different chunks:
        # the shard ranges travel in the task, the plan spec is published once.
        db = sharded_database(seed=0, parallel_exec=2, chunk_rows=64)
        register_pair(db, num_rows=400)
        serial = Database(seed=0, optimize=False, chunk_rows=64)
        register_pair(serial, num_rows=400)
        try:
            sql = (
                "SELECT city, count(*) AS n, sum(qty) AS s FROM orders "
                "WHERE order_id >= ? AND order_id < ? GROUP BY city ORDER BY city"
            )
            for low in (0, 64, 130, 300, 390):
                params = (low, low + 128)
                assert db.execute(sql, params=params).equals(
                    serial.execute(sql, params=params)
                ), params
            assert db.stats["plan_cache_shm_publications"] == 1
            assert db.stats["parallel_exec_dispatches"] == 5
        finally:
            db.close()

    def test_plan_segments_unlinked_on_close(self):
        db = sharded_database(seed=0, parallel_exec=2, chunk_rows=64)
        register_pair(db, num_rows=300)
        baseline = set(shardpool.ShardPool.live_segment_names())
        db.execute("SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city")
        mine = set(shardpool.ShardPool.live_segment_names()) - baseline
        assert any("_plan" in name for name in mine), mine
        db.close()
        remaining = set(shardpool.ShardPool.live_segment_names())
        assert mine.isdisjoint(remaining)
        for name in mine:
            assert not glob.glob(f"/dev/shm/{name}"), f"segment {name} leaked"

    def test_dml_invalidates_plan_spec(self):
        db = sharded_database(seed=0, parallel_exec=2, chunk_rows=64)
        register_pair(db, num_rows=300)
        serial = Database(seed=0, optimize=False, chunk_rows=64)
        register_pair(serial, num_rows=300)
        try:
            sql = "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city"
            assert_matches_serial(db, serial, sql)
            first = db.stats["plan_cache_shm_publications"]
            insert = (
                "INSERT INTO orders (order_id, region_id, qty, price, city) "
                "VALUES (8888, 1, 2, 0.5, 'detroit')"
            )
            db.execute(insert)
            serial.execute(insert)
            assert_matches_serial(db, serial, sql)
            # The table version changed, so the stale shard ranges cannot be
            # reused: a fresh spec is derived and published.
            assert db.stats["plan_cache_shm_publications"] == first + 1
        finally:
            db.close()


# ---------------------------------------------------------------------------
# AQP wiring: rewritten subsample queries dispatch to the pool
# ---------------------------------------------------------------------------


class TestAqpWiring:
    def test_approximate_query_dispatches_and_matches_serial_override(self):
        db = sharded_database(parallel_exec=2, min_shard_rows=64)
        conn = repro.connect(database=db)
        try:
            session = conn.session
            rng = np.random.default_rng(13)
            n = 20_000
            session.connector.load_table(
                "orders",
                {
                    "region": rng.integers(0, 8, n).astype(np.int64),
                    "qty": rng.integers(1, 50, n).astype(np.int64),
                },
            )
            session.create_sample("orders", repro.SampleSpec("uniform", (), 0.25))
            sql = (
                "SELECT region, sum(qty) AS s, count(*) AS n FROM orders "
                "GROUP BY region ORDER BY region"
            )
            before = db.stats["parallel_exec_dispatches"]
            approx = session.sql(sql)
            assert not approx.is_exact
            assert db.stats["parallel_exec_dispatches"] > before

            # options.parallel=False pins the same query to the serial
            # executor — and the answers are bit-identical.
            mid = db.stats["parallel_exec_dispatches"]
            pinned = session.sql(sql, options=ExecutionOptions(parallel=False))
            assert db.stats["parallel_exec_dispatches"] == mid
            assert list(approx.rows()) == list(pinned.rows())
        finally:
            conn.close()
            db.close()

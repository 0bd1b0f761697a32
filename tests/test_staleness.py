"""The one staleness rule: an entry is valid iff stored under the token it is read with.

Three layers of evidence: the versioned ``LRUCache`` itself, a session whose
backend changes *while* it is computing a value it is about to cache (the
interleaving the old per-session epoch guards existed for), and the write
count token that gives connectors without a backend version (SQLite) the
same rule.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import SampleSpec, VerdictSession
from repro.cache import LRUCache
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.core.sample_planner import PlannerConfig
from repro.sampling.metadata import METADATA_TABLE
from repro.sqlengine import Database
from tests.conftest import build_orders_columns

PLANNER = PlannerConfig(io_budget=0.2, large_table_rows=5_000)
QUERY = "SELECT city, avg(price) AS a FROM orders GROUP BY city ORDER BY city"


class TestVersionedLRUCache:
    def test_same_key_different_token_is_a_miss(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=4)
        cache.put("rows", 10, token=1)
        assert cache.get("rows", token=1) == 10
        assert cache.get("rows", token=2) is None
        assert cache.get("rows") is None  # "no token" is a token like any other
        assert (cache.hits, cache.misses) == (1, 2)
        # The stale entry was left in place, and is simply overwritten.
        assert len(cache) == 1
        cache.put("rows", 11, token=2)
        assert len(cache) == 1
        assert cache.get("rows", token=2) == 11
        assert cache.get("rows", token=1) is None

    def test_unversioned_use_is_a_plain_lru(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_stale_entries_age_out_without_clear(self):
        cache: LRUCache[str, int] = LRUCache(maxsize=3)
        for key in ("a", "b", "c"):
            cache.put(key, 0, token="old")
        for index, key in enumerate(("d", "e", "f")):
            cache.put(key, index, token="new")
        assert len(cache) == 3
        assert all(cache.get(key, token="old") is None for key in ("a", "b", "c"))
        assert [cache.get(key, token="new") for key in ("d", "e", "f")] == [0, 1, 2]


class RacingConnector(BuiltinConnector):
    """Counts the backend reads a session caches and can commit foreign DML
    straight after one of them returns — the value the session then holds
    was computed before a change it has not seen."""

    def __init__(self, database: Database) -> None:
        super().__init__(database=database)
        self.reads: Counter[str] = Counter()
        self.race_after: str | None = None
        render = self.syntax_changer.to_sql
        self.syntax_changer.to_sql = lambda statement: self._read("rewrite", render, statement)

    def _read(self, kind, read, *args, **kwargs):
        value = read(*args, **kwargs)
        self.reads[kind] += 1
        if self.race_after == kind:
            self.race_after = None
            # Another session's committed write, between this session's read
            # and its cache store.
            self.database.execute(
                "INSERT INTO orders (order_id, price, qty, city) "
                "VALUES (9000001, 12.5, 2, 'a city nobody has seen')"
            )
        return value

    def row_count(self, table):
        return self._read("rows", super().row_count, table)

    def column_cardinality(self, table, column):
        return self._read("cardinality", super().column_cardinality, table, column)

    def execute(self, statement, *args, **kwargs):
        if isinstance(statement, str) and METADATA_TABLE in statement:
            return self._read("samples", super().execute, statement, *args, **kwargs)
        return super().execute(statement, *args, **kwargs)


@pytest.fixture()
def racing_session():
    connector = RacingConnector(Database(seed=0))
    session = VerdictSession(connector=connector, planner_config=PLANNER)
    session.load_table("orders", build_orders_columns(num_rows=20_000, seed=8))
    session.create_sample("orders", SampleSpec("uniform", (), 0.05))
    yield session
    session.close()


class TestChangeDuringComputation:
    @pytest.mark.parametrize("kind", ["rows", "cardinality", "samples", "rewrite"])
    def test_value_computed_across_foreign_dml_is_never_served(self, racing_session, kind):
        connector = racing_session.connector
        connector.race_after = kind
        assert not racing_session.sql(QUERY).is_exact  # the write lands mid-call
        assert connector.race_after is None
        raced = Counter(connector.reads)
        assert all(raced[name] >= 1 for name in ("rows", "cardinality", "samples", "rewrite"))

        # The next call sees a moved version: everything held from the raced
        # call — including the value read just before the write — is
        # recomputed, not served.
        assert not racing_session.sql(QUERY).is_exact
        fresh = Counter(connector.reads)
        assert fresh[kind] > raced[kind]
        assert fresh["rows"] == raced["rows"] + 1
        assert fresh["samples"] == raced["samples"] + 1

        # ...and with the backend quiet again the recomputed values are hits.
        assert not racing_session.sql(QUERY).is_exact
        assert connector.reads == fresh

    def test_fresh_row_count_reaches_the_planner(self, racing_session, monkeypatch):
        from repro.core.sample_planner import SamplePlanner

        seen: list[int] = []
        plan = SamplePlanner.plan

        def recording(self, analysis, samples, table_rows, expected_groups=None, *, owners):
            seen.append(table_rows["orders"])
            return plan(self, analysis, samples, table_rows, expected_groups, owners=owners)

        monkeypatch.setattr(SamplePlanner, "plan", recording)
        racing_session.connector.race_after = "rows"
        racing_session.sql(QUERY)
        racing_session.sql(QUERY)
        assert seen == [20_000, 20_001]


class TestWriteCountToken:
    """Backends without a version of their own follow the same rule."""

    def test_token_moves_on_writes_only(self):
        connector = SqliteConnector(seed=1)
        try:
            start = connector.catalog_state()
            connector.load_table("t", {"x": [1, 2, 3]})
            loaded = connector.catalog_state()
            assert loaded != start
            connector.execute("SELECT count(*) AS n FROM t")
            assert connector.row_count("t") == 3
            assert connector.catalog_state() == loaded
            connector.execute("INSERT INTO t (x) VALUES (4)")
            inserted = connector.catalog_state()
            assert inserted != loaded
            connector.execute("CREATE TABLE u AS SELECT * FROM t")
            connector.drop_table("u")
            assert len({start, loaded, inserted, connector.catalog_state()}) == 4
        finally:
            connector.close()

    def test_append_data_on_sqlite_refreshes_every_derived_value(self):
        connector = SqliteConnector(seed=9)
        session = VerdictSession(connector=connector, planner_config=PLANNER)
        try:
            session.load_table("orders", build_orders_columns(num_rows=20_000, seed=4))
            session.create_sample("orders", SampleSpec("uniform", (), 0.05))
            count_sql = "SELECT count(*) AS c FROM orders"
            before = session.sql(count_sql)
            assert not before.is_exact
            assert session.sql(count_sql).column("c")[0] == before.column("c")[0]  # cached path
            (old_info,) = session.last_plan.assignments.values()
            assert old_info.original_rows == 20_000

            inserted = session.append_data(
                "orders", build_orders_columns(num_rows=10_000, seed=5)
            )
            after = session.sql(count_sql)
            assert not after.is_exact
            (new_info,) = session.last_plan.assignments.values()
            # Sample list and row counts were re-read, and the rewrite was
            # prepared again against the grown sample.
            assert new_info.original_rows == 30_000
            assert new_info.sample_rows == old_info.sample_rows + sum(inserted.values())
            assert abs(float(after.column("c")[0]) - 30_000) / 30_000 < 0.15
        finally:
            session.close()

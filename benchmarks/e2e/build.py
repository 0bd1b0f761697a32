"""Dataset generation and engine set-up for the end-to-end benchmark.

Sizes are constants of the benchmark, identical on every commit it measures.
The issue's starting point (scale factor 10, 20 s windows, 2000-row append
batches) was resized once, before the baseline was recorded, to fit the
driver's time cap and to give every window enough repetitions: at scale
factor 5 one set-up takes ~0.9 s (repeated five times per run, ``setup_s`` is
the median), one default + one exact round of the 18 queries ~1.3 s, so a
10 s window holds ~8 rounds, and a 500-row append ~0.2 s, so ``ingest_mix``
completes ~30 batches instead of ~11.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

import repro
from repro import Database, PlannerConfig, SampleSpec
from repro.workloads import tpch

SAMPLE_RATIO = 0.02
APPEND_BATCH_ROWS = 500


@dataclass(frozen=True)
class Sizing:
    scale_factor: float
    setup_repeats: int  # setup_s is the median over this many set-ups
    audit_pairs: int  # default / exact pairs per audited statement
    warmup_seconds: float


#: What every recorded number is measured at: lineitem 300 k, orders 75 k rows.
FULL = Sizing(scale_factor=5.0, setup_repeats=5, audit_pairs=5, warmup_seconds=1.0)
#: ``--quick``: the smoke test's size.  Numbers at this size mean nothing.
QUICK = Sizing(scale_factor=0.5, setup_repeats=2, audit_pairs=1, warmup_seconds=0.2)

#: The sample set of ``repro.experiments.harness.build_tpch_workbench``.
HASHED_COLUMNS = {
    "lineitem": ["l_orderkey", "l_partkey"],
    "orders": ["o_orderkey"],
    "partsupp": ["ps_partkey"],
}
STRATIFIED_COLUMNS = {
    "lineitem": ["l_returnflag", "l_shipmode"],
    "orders": ["o_orderpriority"],
}
FACT_TABLES = ("lineitem", "orders", "partsupp")

Columns = dict[str, np.ndarray]


def planner_config() -> PlannerConfig:
    return PlannerConfig(io_budget=0.1, large_table_rows=5_000)


@dataclass
class Dataset:
    seed: int
    scale_factor: float
    tables: dict[str, Columns]
    # Rows appended by ``ingest_mix`` (and the append probe of traced runs):
    # lineitem rows of a second, smaller draw, whose keys all exist in
    # ``tables`` because every key domain grows with the scale factor.
    append_source: Columns = field(default_factory=dict)
    generate_seconds: float = 0.0

    def num_rows(self, table: str) -> int:
        return len(next(iter(self.tables[table].values())))

    def append_batches(self) -> Iterator[Columns]:
        """Endless stream of ``APPEND_BATCH_ROWS``-row lineitem batches."""
        total = len(next(iter(self.append_source.values())))
        starts = range(0, total - APPEND_BATCH_ROWS + 1, APPEND_BATCH_ROWS)
        for start in itertools.cycle(starts):
            yield {
                name: values[start : start + APPEND_BATCH_ROWS]
                for name, values in self.append_source.items()
            }


def generate(seed: int, scale_factor: float) -> Dataset:
    started = time.perf_counter()
    tables = tpch.generate(scale_factor=scale_factor, seed=seed).tables
    append_scale = min(2.0, scale_factor / 2.0)
    append_source = tpch.generate(scale_factor=append_scale, seed=seed + 1).tables["lineitem"]
    return Dataset(
        seed, scale_factor, tables, append_source, time.perf_counter() - started
    )


def sample_specs(table: str) -> list[SampleSpec]:
    specs = [SampleSpec("uniform", (), SAMPLE_RATIO)]
    specs += [SampleSpec("hashed", (c,), SAMPLE_RATIO) for c in HASHED_COLUMNS.get(table, [])]
    specs += [
        SampleSpec("stratified", (c,), SAMPLE_RATIO) for c in STRATIFIED_COLUMNS.get(table, [])
    ]
    return specs


def build_engine(dataset: Dataset) -> tuple[Database, repro.VerdictConnection]:
    """Load every table and build every sample through the public session API.

    Returns the engine and the connection that built it; more connections (a
    pool, a server) attach to the same ``Database``.
    """
    database = Database(seed=dataset.seed)
    connection = repro.connect(database=database, planner_config=planner_config())
    session = connection.session
    for name, columns in dataset.tables.items():
        session.load_table(name, columns)
    for table in FACT_TABLES:
        for spec in sample_specs(table):
            session.create_sample(table, spec)
    return database, connection


def timed_setups(dataset: Dataset, repeats: int, finish=None):
    """Set up ``repeats`` times; returns (median seconds, last build).

    ``finish(database, connection)`` completes a set-up beyond the engine
    (start a server); whatever it returns is kept for the last repeat and
    closed via ``.close()`` for the earlier ones.
    """
    seconds = []
    built = None
    for _ in range(repeats):
        if built is not None:
            _close(built)
            built = None
            gc.collect()
        started = time.perf_counter()
        database, connection = build_engine(dataset)
        extra = finish(database, connection) if finish is not None else None
        seconds.append(time.perf_counter() - started)
        built = (database, connection, extra)
    return statistics.median(seconds), built


def _close(built) -> None:
    database, connection, extra = built
    if extra is not None:
        extra.close()
    connection.close()
    database.close()

"""The five workloads: closed-loop load generation through the public API.

Every workload is a closed loop — a DB-API caller blocks on the reply before
sending its next statement — driven from this one process with at most two
threads / connections (the box has two cores).  Each run: generate inputs
from the seed, set up several times (``setup_s`` is the median),
warm up, audit the distinct statements against exact mode (reference answers,
actual error, paired exact / default latencies), then time a fixed window.

The box this runs on drifts by several percent over seconds, so the reported
statistics are built from pieces that each see the same statement mix:

* the window is cut into *slices* of one full cycle of the workload's
  statements; ``qps`` is the median over slices of statements / wall seconds;
* ``p50_ms`` is the geometric mean over statement shapes of each shape's
  median latency — one global median over shapes whose latencies differ
  tenfold would jump between clusters;
* ``aqp_speedup`` pairs every default-mode run with an exact-mode run of the
  same statement issued right after it and takes, per shape, the median of
  the pairs' ratios.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro import ExecutionOptions

from e2e import build, check, queries
from e2e.check import Answer
from e2e.queries import Op

WORKLOADS = ("dash_hot", "adhoc_cold", "tpch_mix", "serve_socket", "ingest_mix")
#: ingest_mix: one append batch, then this many dashboard queries.
QUERIES_PER_BATCH = 40
#: ingest_mix warms up with a fixed number of batches so the audit that
#: follows sees the same data version on every run of a seed.
WARMUP_BATCHES = 3
#: adhoc_cold audits this many texts against exact mode (20 per template), one
#: default / exact pair each because a text is only cold once; the rest of its
#: answers get the schema and group rules only.
ADHOC_AUDITED = 120
EXACT = ExecutionOptions(mode="exact")
SERVER_POOL_SIZE = 2
SERVE_CLIENTS = 2


# ---------------------------------------------------------------------------
# clients: one DB-API cursor each, local or over the wire
# ---------------------------------------------------------------------------


def _fetch(cursor, op: Op) -> list[tuple]:
    if not op.heavy:
        return cursor.fetchall()
    rows: list[tuple] = []
    while batch := cursor.fetchmany(queries.FETCH_BATCH):
        rows.extend(batch)
    return rows


class _Client:
    """One cursor; ``run`` times ``execute`` + ``fetch*`` of one statement."""

    cursor = None

    def run(self, op: Op, options: ExecutionOptions | None = None) -> tuple[Answer, float]:
        cursor = self.cursor
        started = time.perf_counter()
        cursor.execute(op.text, op.params, options=options)
        rows = _fetch(cursor, op)
        seconds = time.perf_counter() - started
        names = [column[0] for column in cursor.description]
        return self._answer(names, rows), seconds


class LocalClient(_Client):
    def __init__(self, connection) -> None:
        self.cursor = connection.cursor()

    def _answer(self, names: list[str], rows: list[tuple]) -> Answer:
        result = self.cursor.last_result
        return Answer(names, rows, not result.is_exact, result)


class RemoteClient(_Client):
    def __init__(self, address: tuple[str, int]) -> None:
        self.connection = repro.client.connect(*address, timeout=60.0)
        self.cursor = self.connection.cursor()

    def _answer(self, names: list[str], rows: list[tuple]) -> Answer:
        return Answer(names, rows, bool(self.cursor.approximate))

    def close(self) -> None:
        self.connection.close()


# ---------------------------------------------------------------------------
# measurement state
# ---------------------------------------------------------------------------


@dataclass
class Window:
    """Everything one client's timed window produced."""

    records: list[tuple[Op, Answer, float]] = field(default_factory=list)
    failures: int = 0  # operations that raised
    errors: list[str] = field(default_factory=list)  # the first few, for the report
    # (default-mode statements completed, wall seconds) per full cycle.
    slices: list[tuple[int, float]] = field(default_factory=list)
    # shape -> (default seconds, exact seconds) of back-to-back runs.
    pairs: dict[str, list[tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    append_seconds: list[float] = field(default_factory=list)
    first_after_append: list[float] = field(default_factory=list)

    def attempt(self, client, op: Op, options: ExecutionOptions | None = None) -> float | None:
        """Run one statement; default-mode answers are kept for checking."""
        try:
            answer, seconds = client.run(op, options)
        # A failed operation is a measurement here, not an error to handle:
        # whatever the stack raised counts against ``failed``, is reported,
        # and the loop goes on.
        except Exception as error:
            self.fail(op.key, error)
            return None
        if options is None:
            self.records.append((op, answer, seconds))
        return seconds

    def fail(self, what: str, error: Exception) -> None:
        self.failures += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {error!r}")

    @property
    def qps(self) -> float:
        return statistics.median(count / seconds for count, seconds in self.slices)


def cycle_until(
    window: Window, client, ops: list[Op], deadline: float, start: int = 0,
    slice_ops: int | None = None,
) -> None:
    """Cycle through ``ops`` until the deadline, one slice per ``slice_ops``."""
    slice_ops = slice_ops or len(ops)
    stream = itertools.islice(itertools.cycle(ops), start, None)
    while time.perf_counter() < deadline:
        started = time.perf_counter()
        for op in itertools.islice(stream, slice_ops):
            window.attempt(client, op)
        window.slices.append((slice_ops, time.perf_counter() - started))


# ---------------------------------------------------------------------------
# audit: reference answers, actual error and paired latencies
# ---------------------------------------------------------------------------


@dataclass
class Audit:
    references: dict[str, check.Reference] = field(default_factory=dict)
    answers: dict[str, Answer] = field(default_factory=dict)
    accuracies: dict[str, check.Accuracy] = field(default_factory=dict)
    pairs: dict[str, list[tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def audit_ops(client, ops: list[Op], pairs: int) -> Audit:
    """Run each distinct statement in default then exact mode, ``pairs`` times;
    the first pair gives the reference answer and the actual error."""
    audit = Audit()
    for op in ops:
        audit.attempted += 2 * pairs
        try:
            answer, default_seconds = client.run(op)
            exact, exact_seconds = client.run(op, EXACT)
            audit.pairs[op.group].append((default_seconds, exact_seconds))
            for _ in range(pairs - 1):
                audit.pairs[op.group].append((client.run(op)[1], client.run(op, EXACT)[1]))
        # As in Window.attempt: a raise is counted and reported, not handled.
        except Exception as error:
            audit.failed += 2 * pairs
            audit.errors.append(f"{op.key}: {error!r}")
            continue
        reference = check.make_reference(op, exact)
        audit.references[op.key] = reference
        audit.answers[op.key] = answer
        if exact.approximate or not check.is_correct(op, answer, reference):
            audit.failed += 1
        if answer.approximate:
            audit.accuracies[op.key] = check.accuracy(op, answer, reference)
    return audit


def _shape_references(ops: list[Op], audit: Audit) -> dict[str, check.Reference]:
    """Per statement shape: the exact schema and the union of exact groups."""
    merged: dict[str, check.Reference] = {}
    for op in ops:
        reference = audit.references.get(op.key)
        if reference is None:
            continue
        shape = merged.setdefault(op.group, check.Reference(reference.names, []))
        shape.by_group.update(reference.by_group)
    return merged


def count_failures(window: Window, audit: Audit, audited: list[Op], data_stable: bool) -> int:
    shapes = _shape_references(audited, audit)
    failed = window.failures
    for op, answer, _seconds in window.records:
        reference = audit.references.get(op.key)
        if reference is not None:
            ok = check.is_correct(op, answer, reference, data_stable)
        elif op.group in shapes:
            ok = check.is_correct(op, answer, shapes[op.group], data_stable=False)
        else:
            ok = False
        failed += not ok
    return failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def shape_medians(records) -> dict[str, float]:
    by_shape: dict[str, list[float]] = defaultdict(list)
    for op, _answer, seconds in records:
        by_shape[op.group].append(seconds)
    return {shape: statistics.median(samples) for shape, samples in by_shape.items()}


def shape_speedups(pairs: dict[str, list[tuple[float, float]]]) -> dict[str, float]:
    return {
        shape: statistics.median(exact / default for default, exact in samples)
        for shape, samples in pairs.items()
    }


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One untraced run of one workload."""

    clients: int
    setup_s: float
    rss_mb: float
    qps: float
    window: Window  # merged over clients
    audit: Audit
    failed: int
    inputs_sha: str
    extras: dict = field(default_factory=dict)

    @property
    def pairs(self) -> dict[str, list[tuple[float, float]]]:
        """tpch_mix pairs inside its window; the others in their audit."""
        return self.window.pairs or self.audit.pairs

    @property
    def attempted(self) -> int:
        window = self.window
        return (
            self.audit.attempted
            + len(window.records)
            + window.failures
            + sum(len(samples) for samples in window.pairs.values())
            + len(window.append_seconds)
        )


def workload_ops(workload: str, dataset: build.Dataset) -> list[Op]:
    if workload in ("dash_hot", "ingest_mix"):
        return queries.dash_ops(dataset.seed)
    if workload == "adhoc_cold":
        return queries.adhoc_ops(dataset.seed)
    if workload == "tpch_mix":
        return queries.tpch_ops()
    if workload == "serve_socket":
        return queries.serve_ops(dataset.seed, dataset.num_rows("orders"))
    raise KeyError(workload)


def audited_ops(workload: str, ops: list[Op]) -> list[Op]:
    """The distinct statements the audit compares against exact mode."""
    if workload == "adhoc_cold":
        return ops[:ADHOC_AUDITED]
    return list({op.key: op for op in ops}.values())


def run_workload(workload: str, seed: int, seconds: float, sizing: build.Sizing) -> Outcome:
    dataset = build.generate(seed, sizing.scale_factor)
    ops = workload_ops(workload, dataset)
    audited = audited_ops(workload, ops)
    sha = check.inputs_sha(dataset, ops)
    if workload == "serve_socket":
        return _run_serve_socket(dataset, ops, audited, seconds, sizing, sha)

    setup_s, (database, connection, _extra) = build.timed_setups(dataset, sizing.setup_repeats)
    try:
        client = LocalClient(connection)
        window = Window()
        warmup = sizing.warmup_seconds
        if workload == "ingest_mix":
            batches = dataset.append_batches()
            ingest(Window(), connection.session, client, ops, batches, max_batches=WARMUP_BATCHES)
            audit = audit_ops(client, audited, sizing.audit_pairs)
            ingest(window, connection.session, client, ops, batches,
                    deadline=time.perf_counter() + seconds)
        elif workload == "tpch_mix":
            cycle_until(Window(), client, ops, time.perf_counter() + warmup)
            audit = audit_ops(client, audited, pairs=1)
            _tpch_rounds(window, client, ops, time.perf_counter() + seconds)
        elif workload == "adhoc_cold":
            # Warm the interpreter on texts the window never reaches, so the
            # window's texts stay cold in every cache.
            cycle_until(Window(), client, ops[-200:], time.perf_counter() + warmup)
            audit = audit_ops(client, audited, pairs=1)
            cycle_until(window, client, ops, time.perf_counter() + seconds,
                         start=len(audited), slice_ops=10 * len(queries.DASH_TEMPLATES))
        else:
            cycle_until(Window(), client, ops, time.perf_counter() + warmup)
            audit = audit_ops(client, audited, sizing.audit_pairs)
            cycle_until(window, client, ops, time.perf_counter() + seconds)
        failed = audit.failed + count_failures(
            window, audit, audited, data_stable=workload != "ingest_mix"
        )
        stats = dict(database.stats)
    finally:
        connection.close()
        database.close()
    return Outcome(
        1, setup_s, rss_mb(), window.qps, window, audit, failed, sha,
        {"database_stats": stats, "generate_s": dataset.generate_seconds},
    )


def _tpch_rounds(window: Window, client, ops: list[Op], deadline: float) -> None:
    """Rounds of the 18 queries, each run in default then in exact mode.

    Only the default-mode runs count towards ``qps`` / ``p50_ms``; the exact
    run right after each is the other half of its ``aqp_speedup`` pair.
    """
    while time.perf_counter() < deadline:
        default_total = 0.0
        completed = 0
        for op in ops:
            default_seconds = window.attempt(client, op)
            exact_seconds = window.attempt(client, op, EXACT)
            if default_seconds is not None:
                default_total += default_seconds
                completed += 1
                if exact_seconds is not None:
                    window.pairs[op.group].append((default_seconds, exact_seconds))
        if completed:
            window.slices.append((completed, default_total))


def ingest(
    window: Window,
    session,
    client,
    ops: list[Op],
    batches,
    deadline: float = math.inf,
    max_batches: int | None = None,
) -> None:
    """Repeat {one append batch, then QUERIES_PER_BATCH dashboard queries};
    each repetition is one slice, so slower appends show as lower ``qps``."""
    stream = itertools.cycle(ops)
    for batch in itertools.islice(batches, max_batches):
        if time.perf_counter() >= deadline:
            return
        started = time.perf_counter()
        try:
            session.append_data("lineitem", batch)
        # As in Window.attempt: a raise is counted and reported, not handled.
        except Exception as error:
            window.fail("append_data", error)
            continue
        window.append_seconds.append(time.perf_counter() - started)
        before = len(window.records)
        for op in itertools.islice(stream, QUERIES_PER_BATCH):
            window.attempt(client, op)
        window.slices.append((len(window.records) - before, time.perf_counter() - started))
        if len(window.records) > before:
            window.first_after_append.append(window.records[before][2])


# ---------------------------------------------------------------------------
# serve_socket: the server is a child process, the load is two client threads
# ---------------------------------------------------------------------------


def _run_serve_socket(
    dataset: build.Dataset, ops: list[Op], audited: list[Op], seconds: float,
    sizing: build.Sizing, sha: str,
) -> Outcome:
    child = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).with_name("server_child.py")),
            "--seed", str(dataset.seed),
            *(["--quick"] if sizing is build.QUICK else []),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    clients: list[RemoteClient] = []
    try:
        ready = json.loads(child.stdout.readline())
        address = ("127.0.0.1", ready["port"])
        connect_started = time.perf_counter()
        clients = [RemoteClient(address) for _ in range(SERVE_CLIENTS)]
        setup_s = ready["setup_s"] + (time.perf_counter() - connect_started)

        cycle_until(Window(), clients[0], ops, time.perf_counter() + sizing.warmup_seconds)
        audit = audit_ops(clients[0], audited, sizing.audit_pairs)
        _attach_error_bars(dataset, audited, audit)

        windows = [Window() for _ in clients]
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(
                target=cycle_until,
                # Stagger the two clients half a cycle apart.
                args=(window, client, ops, deadline, index * len(ops) // 2),
            )
            for index, (window, client) in enumerate(zip(windows, clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = Window()
        for window in windows:
            merged.records.extend(window.records)
            merged.slices.extend(window.slices)
            merged.failures += window.failures
            merged.errors.extend(window.errors)
        failed = audit.failed + count_failures(merged, audit, audited, data_stable=True)
        for client in clients:
            client.close()
        clients = []
        report, _ = child.communicate("stop\n", timeout=60)
        final = json.loads(report.strip().splitlines()[-1])
    finally:
        for client in clients:
            client.close()
        if child.poll() is None:
            child.kill()
        child.wait()
    return Outcome(
        SERVE_CLIENTS, setup_s, final["rss_mb"],
        sum(window.qps for window in windows), merged, audit, failed, sha,
        {
            "database_stats": final["database_stats"],
            "server_stats": final["server_stats"],
            "generate_s": ready["generate_s"],
            "loadgen_rss_mb": rss_mb(),
            "server_pid": child.pid,
            "server_port": ready["port"],
        },
    )


def _attach_error_bars(dataset: build.Dataset, audited: list[Op], audit: Audit) -> None:
    """Error bars do not travel the wire, so interval coverage of the served
    answers is judged with a local twin: an engine built from the same seed
    must return the very rows the server returned (anything else is a
    failure), and its intervals are then those of the served answer."""
    database, connection = build.build_engine(dataset)
    try:
        twin = LocalClient(connection)
        for op in audited:
            served = audit.answers.get(op.key)
            if served is None or not served.approximate:
                continue
            audit.attempted += 1
            local, _seconds = twin.run(op)
            if not check.rows_identical(local.rows, served.rows):
                audit.failed += 1
                audit.errors.append(f"{op.key}: served rows differ from the local twin's")
                continue
            audit.accuracies[op.key] = check.accuracy(op, local, audit.references[op.key])
    finally:
        connection.close()
        database.close()


def cores() -> int:
    return os.cpu_count() or 1

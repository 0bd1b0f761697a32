"""The traced run: per-layer attribution measured from the benchmark's own files.

End-to-end metrics come from the untraced window (``loadgen``).  This module
is the second, separate pass: it replays a workload's statements with spans
recorded around the calls into each layer, and times direct calls into the
layers' public functions.  Nothing under ``src/`` is edited: for the nested
timings the public callables are wrapped for the duration of the traced pass
(``Recorder.instrument``) and restored afterwards.

A span is ``{id, parent, layer, name, start, end, n}`` on
``time.perf_counter``; ``n`` is the count taken at that boundary (rows out,
rows the sample plan reads, sample rows built).  A layer's self time is its
span minus the part its children cover.  Spans live in memory and are written
once, when the run ends.
"""

from __future__ import annotations

import bisect
import itertools
import json
import socket
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro
import repro.api.session as session_module
import repro.sqlengine.engine as engine_module
from repro.connectors.syntax_changer import SyntaxChanger
from repro.core.answer import ApproximateResult
from repro.core.flattener import flatten
from repro.core.query_info import analyze
from repro.core.rewriter import AqpRewriter
from repro.core.sample_planner import SamplePlanner
from repro.errors import ReproError
from repro.sampling.builder import SampleBuilder
from repro.sampling.maintenance import SampleMaintainer
from repro.server import protocol
from repro.sqlengine import parser
from repro.sqlengine.planner import plan_select

from e2e import build, check, loadgen
from e2e.queries import Op

#: name -> unit, in the order of the README's per-layer table.
PER_LAYER = {
    "parse_ms": "ms",
    "analyse_ms": "ms",
    "sample_plan_ms": "ms",
    "approx_frac": "share",
    "rewrite_ms": "ms",
    "engine_plan_ms": "ms",
    "engine_exec_ms": "ms",
    "rows_in_per_row_out": "ratio",
    "statement_cache_hit_ratio": "share",
    "plan_cache_hit_ratio": "share",
    "zone_map_aggregates": "count",
    "merge_joins": "count",
    "session_self_ms": "ms",
    "analysis_cache_hit_ratio": "share",
    "rewrite_cache_hit_ratio": "share",
    "materialise_ms": "ms",
    "rows_out_per_op": "count",
    "wire_ms": "ms",
    "wire_bytes_per_row": "B/row",
    "serving_overhead_ms": "ms",
    "pool_checkout_ms": "ms",
    "server_rejected": "count",
    "sample_build_s": "s",
    "sample_rows_per_base_row": "ratio",
    "append_ms": "ms",
    "append_rows_per_s": "1/s",
    "first_query_after_append_ms": "ms",
    "rel_err": "ratio",
    "attributed_frac": "share",
    "trace_overhead": "x",
}

PARSER = "sqlengine.parser"
ANALYSE = "core.flattener+query_info"
SAMPLE_PLANNER = "core.sample_planner"
REWRITER = "core.rewriter+syntax_changer"
ENGINE_PLANNER = "sqlengine.planner"
ENGINE = "sqlengine.engine"
SESSION = "api.session"
ANSWER = "core.answer"
CONNECTION = "api.connection"
REMOTE = "client+server"
WIRE = "server.protocol"
BUILDER = "sampling.builder"
MAINTENANCE = "sampling.maintenance"

APPEND_PROBES = 3
POOL_CHECKOUT_PROBES = 50


def _plan_rows(plan, args, _kwargs):
    """Rows the chosen sample plan reads (the base tables' when it declines)."""
    if plan is not None:
        return plan.io_rows
    table_rows = args[3] if len(args) > 3 else {}
    return sum(table_rows.values())


#: (owner, attribute, layer, count taken from (result, args, kwargs) or None)
_WRAPPED = [
    (parser, "parse", PARSER, None),
    (session_module, "flatten", ANALYSE, None),
    (session_module, "analyze", ANALYSE, None),
    (SamplePlanner, "plan", SAMPLE_PLANNER, _plan_rows),
    (AqpRewriter, "rewrite", REWRITER, None),
    (AqpRewriter, "rewrite_count_distinct", REWRITER, None),
    (SyntaxChanger, "to_sql", REWRITER, None),
    (engine_module, "plan_select", ENGINE_PLANNER, None),
    (repro.Database, "execute", ENGINE, lambda result, _a, _k: result.num_rows),
    (repro.VerdictSession, "execute", SESSION, None),
    (ApproximateResult, "fetchall", ANSWER, lambda rows, _a, _k: len(rows)),
    (SampleBuilder, "create_sample", BUILDER, lambda info, _a, _k: info.sample_rows),
    (SampleMaintainer, "append", MAINTENANCE, None),
]


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack()
        record = [next(self._ids), stack[-1] if stack else None, layer, name,
                  time.perf_counter(), 0.0, None]
        stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def timed(self, layer: str, name: str, function, *args):
        """Call ``function`` inside a span; returns (result, seconds)."""
        with self.span(layer, name) as record:
            result = function(*args)
        return result, record[5] - record[4]

    def _wrap(self, original, layer: str, name: str, count):
        def traced(*args, **kwargs):
            with self.span(layer, name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record[6] = count(result, args, kwargs)
                return result

        return traced

    @contextmanager
    def instrument(self):
        """Wrap the layers' public callables; always restore them."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _l, _c in _WRAPPED]
        try:
            for owner, attr, layer, count in _WRAPPED:
                setattr(owner, attr, self._wrap(getattr(owner, attr), layer, attr, count))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def as_dicts(self) -> list[dict]:
        keys = ("id", "parent", "layer", "name", "start", "end", "n")
        return [dict(zip(keys, span)) for span in sorted(self.spans, key=lambda s: s[4])]


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


@dataclass
class Attribution:
    """Per-operation self times by layer, from the spans of a traced pass."""

    per_op: list[dict[str, float]] = field(default_factory=list)  # layer -> self seconds
    counts: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    leaf_seconds: float = 0.0

    def median_ms(self, *layers: str) -> float | None:
        """Median over operations that reached any of ``layers`` of their self time."""
        sums = [
            sum(op.get(layer, 0.0) for layer in layers)
            for op in self.per_op
            if any(layer in op for layer in layers)
        ]
        return statistics.median(sums) * 1e3 if sums else None


def attribute(spans: list[list], roots: list[list]) -> Attribution:
    """Self time = span minus children.  A span opened on another thread (the
    in-process server's worker) has no parent on its own stack; it is adopted
    by the operation whose interval contains it — the traced pass has one
    client, so operations do not overlap."""
    root_ids = {root[0] for root in roots}
    starts = [root[4] for root in roots]
    children: dict[int, list[list]] = defaultdict(list)
    for span in spans:
        parent = span[1]
        if parent is None and span[0] not in root_ids:
            index = bisect.bisect_right(starts, span[4]) - 1
            if index < 0 or span[5] > roots[index][5]:
                continue  # outside every operation (set-up, probes)
            parent = roots[index][0]
        if parent is not None:
            children[parent].append(span)

    found = Attribution()
    for root in roots:
        layers: dict[str, float] = defaultdict(float)
        pending = [root]
        while pending:
            span = pending.pop()
            below = children.get(span[0], [])
            duration = span[5] - span[4]
            layers[span[2]] += duration - sum(child[5] - child[4] for child in below)
            found.calls[span[2]] += 1
            if span[6] is not None:
                found.counts[span[2]].append(span[6])
            if not below and span is not root:
                found.leaf_seconds += duration
            pending.extend(below)
        found.per_op.append(dict(layers))
    return found


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


@dataclass
class TracedReport:
    metrics: dict[str, float]
    detail: dict
    attempted: int
    failed: int
    recorder: Recorder

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"clock": "time.perf_counter", "spans": self.recorder.as_dicts()}
        path.write_text(json.dumps(document))


class _SpanningClient:
    """Opens a root span around every statement the wrapped client runs."""

    def __init__(self, client, recorder: Recorder, layer: str) -> None:
        self.client = client
        self.recorder = recorder
        self.layer = layer
        self.roots: list[list] = []  # one per completed statement, in order

    def run(self, op: Op, options=None):
        with self.recorder.span(self.layer, op.key) as root:
            result = self.client.run(op, options)
        self.roots.append(root)
        return result


def _replay(workload: str, client, session, ops, batches, seconds: float, start: int):
    """The workload's own loop for ``seconds``, one statement per slice so the
    deadline is looked at after every statement."""
    window = loadgen.Window()
    deadline = time.perf_counter() + seconds
    if workload == "ingest_mix":
        loadgen.ingest(window, session, client, ops, batches, deadline)
    else:
        loadgen.cycle_until(window, client, ops, deadline, start, slice_ops=1)
    return window


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


class _CountingSocket:
    """Counts what ``protocol.send_frame`` writes."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.sent = 0

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self.sock.sendall(data)


def _wire_probe(recorder: Recorder, op: Op, answer: check.Answer, pair) -> tuple[float, int]:
    """Encode, send, receive and decode the frames the server would send for
    this answer: one RESULT, then ROWS in the server's default batch size."""
    sender, receiver = pair
    frames = [{
        "type": "RESULT", "id": "q1", "description": answer.names,
        "rowcount": len(answer.rows), "approximate": answer.approximate,
        "elapsed_seconds": 0.0,
    }]
    batch = repro.server.server.DEFAULT_FETCH_ROWS
    for start in range(0, len(answer.rows), batch):
        rows = answer.rows[start : start + batch]
        frames.append({"type": "ROWS", "id": "q1", "rows": rows,
                       "done": start + batch >= len(answer.rows)})
    def round_trip() -> None:
        for frame in frames:
            protocol.send_frame(sender, frame)
            protocol.recv_frame(receiver)

    before = sender.sent
    _none, seconds = recorder.timed(WIRE, f"probe:{op.key}", round_trip)
    return seconds, sender.sent - before


def _probe_layers(recorder, local, session, database, ops: list[Op], seconds: float):
    """Direct calls into the cold-path layers and the frame codec: one pass over
    the distinct statements, every shape at least once, the rest while time lasts."""
    probes: dict[str, list[float]] = defaultdict(list)
    wire_bytes = wire_rows = 0
    left, right = socket.socketpair()
    try:
        pair = (_CountingSocket(left), right)
        deadline = time.perf_counter() + seconds
        seen_shapes: set[str] = set()
        for op in {op.key: op for op in ops}.values():
            if time.perf_counter() >= deadline and op.group in seen_shapes:
                continue
            seen_shapes.add(op.group)
            answer, _elapsed = local.run(op)
            _probe_statement(recorder, probes, session, database, op, answer)
            elapsed, sent = _wire_probe(recorder, op, answer, pair)
            probes["wire"].append(elapsed)
            wire_bytes += sent
            wire_rows += max(1, len(answer.rows))
    finally:
        left.close()
        right.close()
    return probes, wire_bytes / wire_rows


def _probe_serving(remote, local, ops: list[Op], seconds: float) -> list[float]:
    """The same statement over the wire and locally, alternating: remote - local."""
    overheads: list[float] = []
    deadline = time.perf_counter() + seconds
    for op in itertools.cycle(ops):
        if overheads and time.perf_counter() >= deadline:
            return overheads
        overheads.append(remote.run(op)[1] - local.run(op)[1])
    return overheads


def _probe_pool_checkout(database) -> list[float]:
    seconds = []
    with repro.connect(database=database, pool_size=loadgen.SERVER_POOL_SIZE,
                       planner_config=build.planner_config()) as pool:
        for _ in range(POOL_CHECKOUT_PROBES):
            started = time.perf_counter()
            pooled = pool.checkout()
            seconds.append(time.perf_counter() - started)
            pooled.close()
    return seconds


def _probe_appends(recorder, session, local, ops: list[Op], batches):
    """A few ingest batches, each followed by one query."""
    append_seconds, after_append = [], []
    with recorder.instrument():
        for op in ops[:APPEND_PROBES]:
            started = time.perf_counter()
            session.append_data("lineitem", next(batches))
            append_seconds.append(time.perf_counter() - started)
            after_append.append(local.run(op)[1])
    return append_seconds, after_append


def run_traced(workload: str, seed: int, seconds: float, sizing: build.Sizing) -> TracedReport:
    dataset = build.generate(seed, sizing.scale_factor)
    ops = loadgen.workload_ops(workload, dataset)
    audited = loadgen.audited_ops(workload, ops)
    recorder = Recorder()
    slice_s = seconds / 4.0

    with recorder.instrument():
        database, connection = build.build_engine(dataset)
    server = remote = None
    try:
        session = connection.session
        local = loadgen.LocalClient(connection)
        server = repro.serve(
            database=database, port=0, pool_size=loadgen.SERVER_POOL_SIZE,
            session_kwargs={"planner_config": build.planner_config()},
        )
        remote = loadgen.RemoteClient(server.address)
        batches = dataset.append_batches()
        client, root_layer = (remote, REMOTE) if workload == "serve_socket" else (local, CONNECTION)

        # Reference answers and interval coverage, through the local connection
        # (error bars do not travel the wire).
        audit = loadgen.audit_ops(local, audited, pairs=1)

        # Untraced, then traced, over the workload's own statement order;
        # adhoc_cold's traced pass continues on texts no cache has seen.
        cold = workload == "adhoc_cold"
        first = len(audited) if cold else 0
        plain = _replay(workload, client, session, ops, batches, slice_s, first)
        stats_before = dict(database.stats)
        resume = first + len(plain.records) if cold else first
        spanning = _SpanningClient(client, recorder, root_layer)
        with recorder.instrument():
            traced = _replay(workload, spanning, session, ops, batches, slice_s, resume)
        stats = {key: value - stats_before.get(key, 0) for key, value in database.stats.items()}
        failed = audit.failed + plain.failures + loadgen.count_failures(
            traced, audit, audited, data_stable=workload != "ingest_mix"
        )
        attribution = attribute(recorder.spans, spanning.roots)

        probes, wire_bytes_per_row = _probe_layers(
            recorder, local, session, database, ops[resume:] + ops[:resume], slice_s
        )
        serving = _probe_serving(remote, local, audited, slice_s)
        server_stats = server.stats.as_dict()
        checkout = _probe_pool_checkout(database)
        append_seconds, after_append = _probe_appends(recorder, session, local, audited, batches)
        append_seconds += traced.append_seconds
        samples = session.samples()
    finally:
        if remote is not None:
            remote.close()
        if server is not None:
            server.shutdown()
        connection.close()
        database.close()

    untraced_by_shape = loadgen.shape_medians(plain.records)
    overall = statistics.median(seconds for _op, _answer, seconds in plain.records)
    untraced_wall = sum(
        untraced_by_shape.get(op.group, overall) for op, _answer, _seconds in traced.records
    )
    traced_ops = len(traced.records)
    rows_in = sum(attribution.counts.get(SAMPLE_PLANNER, []))
    rows_out = sum(attribution.counts.get(ANSWER, []))
    build_spans = [s for s in recorder.spans if s[2] == BUILDER and s[1] is None]
    accuracies = list(audit.accuracies.values())
    append_s = statistics.median(append_seconds)

    def layer_ms(*layers: str) -> float:
        return attribution.median_ms(*layers) or 0.0

    def hit_ratio(cache: str) -> float:
        hits, misses = stats.get(f"{cache}_hits", 0), stats.get(f"{cache}_misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {
        "parse_ms": _median_ms(probes["parse"]),
        "analyse_ms": _median_ms(probes["analyse"]),
        "sample_plan_ms": layer_ms(SAMPLE_PLANNER),
        "approx_frac": sum(a.approximate for _op, a, _seconds in traced.records) / traced_ops,
        "rewrite_ms": _median_ms(probes["rewrite"]),
        "engine_plan_ms": _median_ms(probes["engine_plan"]),
        "engine_exec_ms": layer_ms(ENGINE),
        "rows_in_per_row_out": rows_in / rows_out if rows_out else 0.0,
        "statement_cache_hit_ratio": hit_ratio("statement_cache"),
        "plan_cache_hit_ratio": hit_ratio("plan_cache"),
        "zone_map_aggregates": stats.get("zone_map_aggregates", 0),
        "merge_joins": stats.get("merge_joins", 0),
        "session_self_ms": layer_ms(SESSION),
        "analysis_cache_hit_ratio": hit_ratio("analysis_cache"),
        "rewrite_cache_hit_ratio": hit_ratio("rewrite_cache"),
        "materialise_ms": layer_ms(CONNECTION, ANSWER),
        "rows_out_per_op": rows_out / traced_ops,
        "wire_ms": _median_ms(probes["wire"]),
        "wire_bytes_per_row": wire_bytes_per_row,
        "serving_overhead_ms": _median_ms(serving),
        "pool_checkout_ms": _median_ms(checkout),
        "server_rejected": server_stats["rejected"],
        "sample_build_s": sum(s[5] - s[4] for s in build_spans),
        "sample_rows_per_base_row": (
            sum(info.sample_rows for info in samples)
            / sum(info.original_rows for info in samples)
        ),
        "append_ms": append_s * 1e3,
        "append_rows_per_s": build.APPEND_BATCH_ROWS / append_s,
        "first_query_after_append_ms": _median_ms(after_append),
        "rel_err": check.median_relative_error(accuracies) or 0.0,
        "attributed_frac": attribution.leaf_seconds / untraced_wall,
        "trace_overhead": statistics.median(s for _op, _answer, s in traced.records) / overall,
    }
    specs = [(table, spec) for table in build.FACT_TABLES for spec in build.sample_specs(table)]
    detail = {
        "clients": 1,
        "loop": "closed",
        "inputs_sha": check.inputs_sha(dataset, ops),
        "ci_coverage": check.coverage(accuracies),
        "untraced_ops": len(plain.records),
        "traced_ops": traced_ops,
        "untraced_p50_ms": overall * 1e3,
        "probed_statements": len(probes["parse"]),
        "serving_pairs": len(serving),
        "appends": len(append_seconds),
        "server_stats": server_stats,
        "errors": (audit.errors + plain.errors + traced.errors)[:5],
        "sample_build": [
            {"table": table, "kind": spec.sample_type, "columns": list(spec.columns),
             "seconds": span[5] - span[4], "sample_rows": span[6]}
            for (table, spec), span in zip(specs, build_spans)
        ],
        "layers": {
            layer: {
                "calls": attribution.calls[layer],
                "self_ms_per_op": attribution.median_ms(layer),
                "self_s_total": sum(op.get(layer, 0.0) for op in attribution.per_op),
            }
            for layer in sorted(attribution.calls)
        },
    }
    attempted = (
        audit.attempted + len(plain.records) + plain.failures + traced_ops + traced.failures
        + 2 * len(serving) + len(append_seconds)
    )
    return TracedReport(metrics, detail, attempted, failed, recorder)


def _probe_statement(recorder, probes, session, database, op: Op, answer: check.Answer) -> None:
    """Time direct calls into parser, analysis, rewriter and engine planner for
    one statement, the way the session chains them on a cold text."""

    def timed(layer: str, key: str, function, *args):
        result, seconds = recorder.timed(layer, f"probe:{op.key}", function, *args)
        probes[key].append(seconds)
        return result

    statement = timed(PARSER, "parse", parser.parse, op.text)
    template = session.prepare(op.text)
    if not template.is_select:
        return
    timed(ANALYSE, "analyse", lambda: analyze(flatten(statement)))
    changer = session.connector.syntax_changer
    if answer.approximate:
        # session.last_plan is the sample plan of the run that produced `answer`.
        kinds = frozenset(aggregate.kind for aggregate in template.analysis.aggregates)
        rewriter = AqpRewriter(include_errors=True)
        rewrite = {
            frozenset({"mean_like"}): rewriter.rewrite,
            frozenset({"count_distinct"}): rewriter.rewrite_count_distinct,
        }.get(kinds)
        if rewrite is not None:
            try:
                timed(REWRITER, "rewrite", lambda: changer.to_sql(
                    rewrite(template.flattened, template.analysis, session.last_plan).statement
                ))
            except ReproError:
                pass  # the session would fall back to exact here; nothing was timed
        parts = answer.result.rewritten_sql.split(";\n")
    else:
        parts = [changer.to_sql(template.statement)]
    parsed = [parser.parse(part) for part in parts]
    timed(ENGINE_PLANNER, "engine_plan",
          lambda: [plan_select(statement, database.catalog) for statement in parsed])

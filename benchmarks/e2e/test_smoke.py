"""Smoke test of bench_e2e: the quick set end to end, and the failure rules.

``--quick`` runs all five workloads, untraced and traced, at scale factor 0.5
with 0.5 s windows; numbers at that size mean nothing, the test only checks
that every declared metric comes out, that nothing fails and nothing is left
running.
"""

from __future__ import annotations

import glob
import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [path for path in (str(HERE.parent), str(ROOT / "src")) if path not in sys.path]

import repro  # noqa: E402
from e2e import build, loadgen, queries, tracing  # noqa: E402
from repro.core.answer import ApproximateResult  # noqa: E402


def test_quick_set_reports_every_declared_metric(tmp_path):
    segments_before = set(glob.glob("/dev/shm/repro_shm_*"))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads((tmp_path / "run.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    assert list(document["workloads"]) == [w["name"] for w in declared["workloads"]]
    for workload, entry in document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            result = entry[section]
            assert result["correct"] and result["failed"] == 0, (
                workload, section, result["detail"].get("errors"))
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == [m["name"] for m in declared[section]]
            for metric in declared[section]:
                measured = result["metrics"][metric["name"]]
                assert measured["unit"] == metric["unit"], metric["name"]
                assert math.isfinite(measured["value"]), (workload, metric["name"])
            assert result["detail"]["loop"] == "closed"
            assert result["detail"]["clients"] <= loadgen.cores()
        spans = json.loads((tmp_path / f"trace_{workload}.json").read_text())["spans"]
        assert {"id", "parent", "layer", "name", "start", "end", "n"} <= set(spans[0])

    # Nothing outlives the run: no server process, no listening socket, no
    # shared-memory segment.
    served = document["workloads"]["serve_socket"]["end_to_end"]["detail"]
    with pytest.raises(ProcessLookupError):
        os.kill(served["server_pid"], 0)
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", served["server_port"]), timeout=1.0).close()
    assert set(glob.glob("/dev/shm/repro_shm_*")) <= segments_before


@pytest.fixture(scope="module")
def audited():
    """A small engine, a handful of statements and their audit."""
    dataset = build.generate(7, build.QUICK.scale_factor)
    ops = queries.dash_ops(7)[:6] + queries.heavy_ops(7, dataset.num_rows("orders"), count=1)
    database, connection = build.build_engine(dataset)
    client = loadgen.LocalClient(connection)
    yield client, ops, loadgen.audit_ops(client, ops, pairs=1)
    connection.close()
    database.close()


def _window_failures(client, ops, audit) -> int:
    window = loadgen.Window()
    for op in ops:
        window.attempt(client, op)
    return loadgen.count_failures(window, audit, ops, data_stable=True)


def test_correct_answers_do_not_fail(audited):
    client, ops, audit = audited
    assert audit.failed == 0, audit.errors
    assert _window_failures(client, ops, audit) == 0
    # The static grouping-column counts agree with what the middleware reports.
    for op in ops:
        result = audit.answers[op.key].result
        if not result.is_exact:
            assert len(result.group_columns) == op.group_cols, op.key


@pytest.mark.parametrize("breakage", ["unknown_group", "exact_rows_differ", "raises"])
def test_a_broken_answer_counts_as_failed(audited, monkeypatch, breakage):
    client, ops, audit = audited
    original = ApproximateResult.fetchall

    def broken(self, include_errors=False):
        rows = original(self, include_errors)
        if breakage == "raises":
            raise repro.errors.ExecutionError("injected by the smoke test")
        if breakage == "unknown_group" and not self.is_exact and self.group_columns:
            return [("no such group", *row[1:]) for row in rows]
        if breakage == "exact_rows_differ" and self.is_exact:
            return rows[:-1]
        return rows

    monkeypatch.setattr(ApproximateResult, "fetchall", broken)
    assert _window_failures(client, ops, audit) > 0


def test_instrumentation_is_removed_after_the_traced_pass():
    originals = [owner.__dict__[attr] for owner, attr, _layer, _count in tracing._WRAPPED]
    with tracing.Recorder().instrument():
        assert repro.Database.__dict__["execute"] not in originals
    assert [o.__dict__[a] for o, a, _l, _c in tracing._WRAPPED] == originals

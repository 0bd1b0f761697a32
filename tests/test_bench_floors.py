"""Cheap floor checks over the committed benchmark reports.

Marked ``bench_floor``: these tests re-validate the speedup floors recorded
in the committed ``benchmarks/BENCH_*.json`` files without running any
benchmark, so tier-1 catches a PR that commits a regressed baseline.  The
full (slow) re-measurement lives in ``benchmarks/run_all.py``.

    PYTHONPATH=src python -m pytest -m bench_floor -q
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench_floor

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_compare_bench():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", BENCH_DIR / "compare_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_floor_gated_report_is_committed():
    compare_bench = _load_compare_bench()
    for name in compare_bench.FLOORS:
        assert (BENCH_DIR / name).exists(), f"{name} missing from benchmarks/"


def test_committed_reports_hold_their_floors():
    compare_bench = _load_compare_bench()
    failures: list[str] = []
    for name in sorted(compare_bench.FLOORS):
        committed = compare_bench.load_committed(name)
        if committed is None:
            continue  # absence is test_every_floor_gated_report_is_committed's job
        failures.extend(compare_bench.check_floors(name, committed))
    assert not failures, failures


def _run_all_reports() -> set[str]:
    """The report names in ``run_all.SUITES``, read from the source so the
    check imports no benchmark module."""
    tree = ast.parse((BENCH_DIR / "run_all.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SUITES" for target in node.targets
        ):
            return {
                constant.value
                for constant in ast.walk(node.value)
                if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
            }
    raise AssertionError("run_all.py defines no SUITES list")


def test_floors_suites_and_committed_reports_name_the_same_reports():
    # Deleting a benchmark must take its floors, its run_all entry and its
    # committed report with it: no orphan floor, no unchecked report.
    compare_bench = _load_compare_bench()
    committed = {path.name for path in BENCH_DIR.glob("BENCH_*.json")}
    assert set(compare_bench.FLOORS) == _run_all_reports() == committed

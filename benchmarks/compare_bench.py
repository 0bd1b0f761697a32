"""Compare benchmark reports against the committed baselines and floors.

``BENCH_*.json`` files committed to the repository are the performance
baselines: each records per-workload ``speedup`` values (baseline seconds /
optimized seconds) measured when the PR landed.  This module

* diffs a freshly produced report against the committed JSON (so a PR that
  erodes a speedup is visible in review),
* fails — returns a non-zero exit status — when any workload's speedup drops
  below the floor asserted by its benchmark, and
* emits one machine-readable ``BENCH_SUMMARY`` JSON line per report (plus an
  aggregate line from :func:`main`) so CI can annotate exactly which floor
  regressed without parsing human-oriented output.

The benchmark scripts call :func:`compare_and_check` from their ``__main__``
path after rewriting the JSON; running this module directly re-checks every
committed report against the floors without re-running anything:

    PYTHONPATH=src python benchmarks/compare_bench.py
    PYTHONPATH=src python benchmarks/compare_bench.py --tolerance 0.25

Flags:

* ``--tolerance FRACTION`` — a speedup within ``floor * (1 - FRACTION)`` of
  its floor produces a *warning* instead of a failure.  CI's measured-floor
  job uses this so timing noise on shared runners warns instead of breaking
  the build; gross regressions still fail.
* ``--update-baseline`` — demote every floor failure to a warning and exit 0.
  Meant for re-baselining runs (``benchmarks/run_all.py --update-baseline``
  forwards it) whose fresh JSON is about to be committed as the new baseline.

Floors that depend on hardware are gated: ``FLOOR_MIN_CORES`` lists the
minimum CPU-core count a workload's floor assumes (e.g. many concurrent
socket clients can only out-serve one on a multi-core machine).  A report
produced on a smaller machine records the measurement but skips the floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Speedup floors per report file.  These mirror the assertions inside the
# benchmark tests; keeping them here as well lets CI re-check the *committed*
# numbers without paying for a benchmark run.
FLOORS: dict[str, dict[str, float]] = {
    "BENCH_planner.json": {
        "repeated_statement": 3.0,
        "join_heavy": 1.5,
        "string_group": 1.1,
    },
    # ``nested`` and ``fixed_cost`` are per-call budgets, as BENCH_api.json's are.
    "BENCH_verdict.json": {
        "flat": 1.5,
        "join": 2.0,
        "nested": 1.0,
        "fixed_cost": 1.0,
    },
    # Per-call budgets: ``speedup`` is budget ÷ measured, so 1.0 = in budget.
    "BENCH_api.json": {
        "prepared_reexec": 1.0,
        "adhoc_literals": 1.0,
    },
    # Resilience guard: deadline checkpoints must cost at most ~5% of a warm
    # grouped aggregation.
    "BENCH_resilience.json": {
        "checkpoint_overhead": 0.95,
    },
    # Serving tier: one socket client's median latency may be at most twice
    # the same statement's in-process (holds on any core count); sustained QPS
    # with 16 concurrent socket clients at least 2x a single closed-loop
    # client's — a hypothesis for >= 4 cores, never yet measured on such a box.
    "BENCH_serving.json": {
        "served_vs_local": 0.5,
        "serving_concurrency": 2.0,
    },
}

# workload -> minimum CPU cores its floor assumes.  Reports record the core
# count they were measured on; on smaller machines the floor is skipped (the
# measurement is still recorded and diffed).
FLOOR_MIN_CORES: dict[str, dict[str, int]] = {
    "BENCH_serving.json": {"serving_concurrency": 4},
}


def load_committed(name: str) -> dict | None:
    """The committed report for ``name``, or None when absent."""
    path = BENCH_DIR / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def evaluate_report(name: str, report: dict, tolerance: float = 0.0) -> dict:
    """Check one report against its floors.

    Returns ``{"report", "failures", "warnings", "skipped"}`` where each
    entry is a machine-readable dict (``workload``, ``speedup``, ``floor``
    and — for skips — the unmet ``min_cores``).  With ``tolerance`` t, a
    speedup in ``[floor * (1 - t), floor)`` is a warning, not a failure.
    """
    failures: list[dict] = []
    warnings: list[dict] = []
    skipped: list[dict] = []
    floors = FLOORS.get(name, {})
    min_cores = FLOOR_MIN_CORES.get(name, {})
    cores = int(report.get("cores", os.cpu_count() or 1))
    workloads = report.get("workloads", {})
    for workload, floor in floors.items():
        metrics = workloads.get(workload)
        if metrics is None:
            failures.append(
                {"workload": workload, "speedup": None, "floor": floor, "missing": True}
            )
            continue
        speedup = float(metrics.get("speedup", 0.0))
        required = min_cores.get(workload)
        entry = {"workload": workload, "speedup": speedup, "floor": floor}
        if required is not None and cores < required:
            skipped.append({**entry, "min_cores": required, "cores": cores})
            continue
        if speedup >= floor:
            continue
        if speedup >= floor * (1.0 - tolerance):
            warnings.append(entry)
        else:
            failures.append(entry)
    return {
        "report": name,
        "failures": failures,
        "warnings": warnings,
        "skipped": skipped,
    }


def _describe(entry: dict) -> str:
    if entry.get("missing"):
        return f"workload {entry['workload']!r} is missing"
    return (
        f"{entry['workload']} speedup {entry['speedup']:.2f}x is below "
        f"the {entry['floor']:.2f}x floor"
    )


def check_floors(name: str, report: dict, tolerance: float = 0.0) -> list[str]:
    """Return a failure message per workload whose speedup is below floor."""
    verdict = evaluate_report(name, report, tolerance)
    return [f"{name}: {_describe(entry)}" for entry in verdict["failures"]]


def diff_reports(name: str, fresh: dict, committed: dict | None) -> list[str]:
    """Human-readable per-workload deltas between fresh and committed runs."""
    lines: list[str] = []
    fresh_workloads = fresh.get("workloads", {})
    committed_workloads = (committed or {}).get("workloads", {})
    for workload, metrics in fresh_workloads.items():
        new = float(metrics.get("speedup", 0.0))
        old_metrics = committed_workloads.get(workload)
        if old_metrics is None:
            lines.append(f"  {workload}: {new:.2f}x (new workload)")
            continue
        old = float(old_metrics.get("speedup", 0.0))
        delta = new - old
        lines.append(f"  {workload}: {old:.2f}x -> {new:.2f}x ({delta:+.2f})")
    for workload in committed_workloads:
        if workload not in fresh_workloads:
            lines.append(f"  {workload}: removed (was committed)")
    return lines


def _print_verdict(verdict: dict, update_baseline: bool = False) -> int:
    """Print one report's outcome (human + BENCH_SUMMARY line), return status."""
    failures = verdict["failures"]
    warnings = list(verdict["warnings"])
    if update_baseline and failures:
        warnings, failures = warnings + failures, []
    for entry in verdict["skipped"]:
        print(
            f"SKIP: {verdict['report']}: {entry['workload']} floor needs "
            f">= {entry['min_cores']} cores (have {entry['cores']}); "
            f"measured {entry['speedup']:.2f}x"
        )
    for entry in warnings:
        print(f"WARN: {verdict['report']}: {_describe(entry)}", file=sys.stderr)
    for entry in failures:
        print(f"FAIL: {verdict['report']}: {_describe(entry)}", file=sys.stderr)
    status = "fail" if failures else ("warn" if warnings else "ok")
    summary = {**verdict, "failures": failures, "warnings": warnings, "status": status}
    print("BENCH_SUMMARY " + json.dumps(summary, sort_keys=True))
    if status == "ok":
        print(f"{verdict['report']}: all speedup floors hold")
    return 1 if failures else 0


def compare_and_check(
    name: str,
    fresh: dict,
    tolerance: float = 0.0,
    update_baseline: bool = False,
) -> int:
    """Diff ``fresh`` against the committed ``name`` and enforce the floors.

    Returns a process exit status (0 = ok) so benchmark ``__main__`` paths
    can hand it straight to ``SystemExit``.  Note the benchmark has already
    overwritten the committed file by the time this runs, so the committed
    numbers are read before the benchmark in CI setups that need the diff —
    here the diff is informational and the floors are the gate.
    """
    committed = load_committed(name)
    print(f"\n=== {name} vs committed baseline ===")
    for line in diff_reports(name, fresh, committed):
        print(line)
    return _print_verdict(
        evaluate_report(name, fresh, tolerance), update_baseline=update_baseline
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="speedups within floor*(1-FRACTION) of their floor warn instead of fail",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="demote floor failures to warnings and exit 0 (re-baselining run)",
    )
    args = parser.parse_args(argv)

    status = 0
    reports: dict[str, str] = {}
    for name in sorted(FLOORS):
        committed = load_committed(name)
        if committed is None:
            print(f"{name}: not present, skipping")
            reports[name] = "absent"
            continue
        verdict = evaluate_report(name, committed, args.tolerance)
        failed = _print_verdict(verdict, update_baseline=args.update_baseline)
        reports[name] = "fail" if failed else "ok"
        status |= failed
    print(
        "BENCH_SUMMARY "
        + json.dumps(
            {"status": "fail" if status else "ok", "reports": reports}, sort_keys=True
        )
    )
    return status


if __name__ == "__main__":
    raise SystemExit(main())

"""Run every tracked benchmark suite and gate the speedup floors.

Runs the engine hot-path, middleware hot-path, API, resilience and
serving benchmarks back to back, rewrites their
``BENCH_*.json`` reports, diffs each against the committed
baseline and exits non-zero when any asserted speedup floor regresses:

    PYTHONPATH=src python benchmarks/run_all.py                # full run
    PYTHONPATH=src python benchmarks/run_all.py --quick        # CI-sized run
    PYTHONPATH=src python benchmarks/run_all.py --tolerance 0.5

Flags:

* ``--quick`` — each suite runs with much smaller row counts and fewer
  repeats (minutes instead of tens of minutes; see PERFORMANCE.md).  Quick
  numbers are noisier and are *not* written over the committed baselines
  unless ``--update-baseline`` is also given.
* ``--tolerance FRACTION`` — forwarded to ``compare_bench``: near-floor
  speedups warn instead of fail (CI's defense against shared-runner noise).
* ``--update-baseline`` — keep the fresh JSON as the new committed baseline
  and demote floor failures to warnings (for intentional re-baselining).
  Full (non-quick) runs keep their fresh JSON by default, preserving the
  original workflow of committing freshly measured numbers.

The cheap counterpart — re-checking the *committed* reports without running
anything — is ``compare_bench.main()``, wired into the test suite as the
``bench_floor`` pytest marker (``tests/test_bench_floors.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bench_api_hotpath  # noqa: E402
import bench_planner_hotpath  # noqa: E402
import bench_resilience  # noqa: E402
import bench_serving  # noqa: E402
import bench_verdict_hotpath  # noqa: E402
import compare_bench  # noqa: E402

SUITES = [
    (bench_planner_hotpath, "BENCH_planner.json"),
    (bench_verdict_hotpath, "BENCH_verdict.json"),
    (bench_api_hotpath, "BENCH_api.json"),
    (bench_resilience, "BENCH_resilience.json"),
    (bench_serving, "BENCH_serving.json"),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small row counts / few repeats so the whole run finishes in minutes",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="near-floor speedups warn instead of fail (see compare_bench.py)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="keep the fresh JSON as the committed baseline even on a --quick run",
    )
    args = parser.parse_args(argv)
    keep_fresh = args.update_baseline or not args.quick

    status = 0
    for module, name in SUITES:
        mode = "quick" if args.quick else "full"
        print(f"\n### running {module.__name__} ({mode}) -> {name}")
        committed_path = BENCH_DIR / name
        committed_text = committed_path.read_text() if committed_path.exists() else None
        fresh = module.run(quick=args.quick)
        print(json.dumps(fresh, indent=2))
        status |= compare_bench.compare_and_check(
            name,
            fresh,
            tolerance=args.tolerance,
            update_baseline=args.update_baseline,
        )
        if not keep_fresh:
            # The suite rewrote its JSON in place; a quick run's noisy
            # numbers must not silently become the committed baseline.
            if committed_text is not None:
                committed_path.write_text(committed_text)
            else:
                committed_path.unlink(missing_ok=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

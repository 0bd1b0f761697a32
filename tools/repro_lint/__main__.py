"""CLI for the project linter.

Usage::

    python -m tools.repro_lint src tests benchmarks
    python -m tools.repro_lint src --format json
    python -m tools.repro_lint src --rules REP002,REP004
    python -m tools.repro_lint src tests benchmarks --write-baseline

Exit codes: 0 clean (only suppressed/baselined findings), 1 new findings or
unparsable files, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.repro_lint.baseline import DEFAULT_BASELINE, load_baseline, write_baseline
from tools.repro_lint.core import Rule, active_rules, run_lint
from tools.repro_lint.reporting import render_json, render_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description="Project-specific static analysis (REP rules).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rule codes to run (e.g. REP002,REP004)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report historical findings too)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept current findings: write them to the baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also print suppressed/baselined"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in active_rules():
            print(f"{rule.code}  {rule.name}: {rule.description}")
        return 0

    only = None
    if args.rules:
        only = {code.strip().upper() for code in args.rules.split(",") if code.strip()}
        known = set(Rule.registry) | {
            rule.code for rule in active_rules()
        }
        unknown = only - known
        if unknown:
            print(f"unknown rule code(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    baseline_path = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    baseline = set() if (args.no_baseline or args.write_baseline) else load_baseline(baseline_path)

    result = run_lint(list(args.paths), root=Path.cwd(), only=only, baseline=baseline)

    if args.write_baseline:
        write_baseline(result.findings, baseline_path)
        print(
            f"baseline written: {baseline_path} "
            f"({len(result.findings)} finding(s) accepted)"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())

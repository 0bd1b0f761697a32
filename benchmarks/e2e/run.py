"""bench_e2e entry point.

One workload, as the driver runs it (the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload dash_hot --seed 1 --seconds 10 --trace 0

The whole set — every workload in its own subprocess, untraced then traced —
with a table of every metric and one ``run.json``::

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--aa] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import numpy  # noqa: E402

from e2e import build, check, loadgen, tracing  # noqa: E402

DEFAULT_OUT = HERE / "out"
QUICK_SECONDS = 0.5

#: name -> unit.  BENCHMARK.json carries the same names with their bounds.
END_TO_END = {
    "qps": "1/s",
    "p50_ms": "ms",
    "aqp_speedup": "x",
    "ci_coverage": "share",
    "setup_s": "s",
    "rss_mb": "MB",
}


def end_to_end(outcome: loadgen.Outcome) -> dict[str, float]:
    return {
        "qps": outcome.qps,
        "p50_ms": statistics.geometric_mean(loadgen.shape_medians(outcome.window.records).values())
        * 1e3,
        "aqp_speedup": statistics.geometric_mean(loadgen.shape_speedups(outcome.pairs).values()),
        "ci_coverage": check.coverage(list(outcome.audit.accuracies.values())),
        "setup_s": outcome.setup_s,
        "rss_mb": outcome.rss_mb,
    }


def diagnostics(outcome: loadgen.Outcome) -> dict:
    """Printed and written to run.json; not gated."""
    window, audit = outcome.window, outcome.audit
    latencies = [seconds for _op, _answer, seconds in window.records]
    accuracies = list(audit.accuracies.values())
    speedups = loadgen.shape_speedups(outcome.pairs)
    per_shape: dict[str, dict] = {}
    for shape, median in loadgen.shape_medians(window.records).items():
        found = [a for a in accuracies if a.shape == shape]
        per_shape[shape] = {
            "samples": sum(op.group == shape for op, _a, _s in window.records),
            "default_p50_ms": median * 1e3,
            "aqp_speedup": speedups.get(shape),
            "pairs": len(outcome.pairs.get(shape, [])),
            "approximate": bool(found),
            "rel_err": check.median_relative_error(found),
            "ci_coverage": check.coverage(found),
            "groups_returned": sum(a.groups_returned for a in found),
            "groups_exact": sum(a.groups_exact for a in found),
        }
    found = {
        "clients": outcome.clients,
        "loop": "closed",
        "samples": len(latencies),
        "slices": len(window.slices),
        "p95_ms": float(numpy.quantile(latencies, 0.95)) * 1e3,
        "global_p50_ms": statistics.median(latencies) * 1e3,
        "rel_err": check.median_relative_error(accuracies),
        "approx_frac": sum(a.approximate for _o, a, _s in window.records) / len(latencies),
        "inputs_sha": outcome.inputs_sha,
        "answers_sha": check.answers_sha(audit.answers),
        "reference_sha": check.answers_sha(audit.references),
        "answers_rows": sum(len(a.rows) for a in audit.answers.values()),
        "errors": (audit.errors + window.errors)[:5],
        "per_shape": per_shape,
        **outcome.extras,
    }
    if window.append_seconds:
        found["append_p50_ms"] = statistics.median(window.append_seconds) * 1e3
        found["appends"] = len(window.append_seconds)
        found["first_query_after_append_ms"] = (
            statistics.median(window.first_after_append) * 1e3
        )
    return found


# ---------------------------------------------------------------------------
# one workload (what the driver runs)
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    sizing = build.QUICK if args.quick else build.FULL
    if args.trace:
        report = tracing.run_traced(args.workload, args.seed, args.seconds, sizing)
        metrics, units, detail = report.metrics, tracing.PER_LAYER, report.detail
        attempted, failed = report.attempted, report.failed
        if args.out:
            report.write_spans(Path(args.out) / f"trace_{args.workload}.json")
    else:
        outcome = loadgen.run_workload(args.workload, args.seed, args.seconds, sizing)
        metrics, units, detail = end_to_end(outcome), END_TO_END, diagnostics(outcome)
        attempted, failed = outcome.attempted, outcome.failed

    print(f"workload {args.workload}  seed {args.seed}  trace {int(args.trace)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for name, value in detail.items():
        if not isinstance(value, (dict, list)):
            print(f"  . {name:30s} {value}")
    for error in detail.get("errors", []):
        print(f"  ! {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}_trace{int(args.trace)}.json"
        (out / name).write_text(json.dumps({**result, "detail": detail}, indent=1, default=str))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the whole set
# ---------------------------------------------------------------------------


def _child(workload: str, args, trace: bool, out: Path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)), "--out", str(out),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (trace {int(trace)}) exited with {done.returncode}")
    return json.loads((out / f"{workload}_trace{int(trace)}.json").read_text())


def run_set(args, out: Path) -> dict:
    """Every workload in its own process: clean caches, clean RSS."""
    out.mkdir(parents=True, exist_ok=True)
    document = {
        "cores": loadgen.cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale_factor": (build.QUICK if args.quick else build.FULL).scale_factor,
        "workloads": {},
    }
    sections = [("end_to_end", False)] + ([("per_layer", True)] if args.trace else [])
    tasks = [(workload, section, traced) for workload in loadgen.WORKLOADS
             for section, traced in sections]
    # One workload at a time, so nothing else competes for the two cores while
    # it is measured; --quick measures nothing and uses both.
    with ThreadPoolExecutor(max_workers=loadgen.cores() if args.quick else 1) as executor:
        results = executor.map(lambda task: _child(task[0], args, task[2], out), tasks)
        for (workload, section, _traced), result in zip(tasks, results):
            document["workloads"].setdefault(workload, {})[section] = result
    for workload, entry in document["workloads"].items():
        _print_entry(workload, entry)
    (out / "run.json").write_text(json.dumps(document, indent=1, default=str))
    return document


def _print_entry(workload: str, entry: dict) -> None:
    for section, result in entry.items():
        detail = result["detail"]
        print(
            f"== {workload} [{section}]  correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"loop={detail.get('loop')} clients={detail.get('clients')} "
            f"inputs_sha={str(detail.get('inputs_sha'))[:12]}"
        )
        for name, metric in result["metrics"].items():
            print(f"   {name:32s} {metric['value']:14.6g} {metric['unit']}")
        if section == "end_to_end":
            print(f"   {'p95_ms (diagnostic)':32s} {detail['p95_ms']:14.6g} ms "
                  f"over {detail['samples']} samples")
            for shape, row in detail["per_shape"].items():
                print(f"     - {shape:20s} {json.dumps(row, default=str)}")


def bounds() -> dict[str, tuple[str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


#: Sets per side of an A/A comparison.  One set against one set is decided by
#: the box (identical code: 18 % apart on qps within minutes); the driver
#: compares medians of ten runs, this compares medians of three.
AA_SETS = 3


def run_aa(args, out: Path) -> int:
    """Two sides of the same code, AA_SETS alternating sets each; every pair of
    medians must sit inside its bound."""
    sides: dict[str, list[dict]] = {"a": [], "b": []}
    for index in range(AA_SETS):
        for side, sets in sides.items():
            sets.append(run_set(args, out / f"{side}{index}"))
    outside = 0
    print("\nA/A comparison (same code, same seed, "
          f"medians of {AA_SETS} alternating sets per side)")
    print(f"{'workload':14s} {'metric':12s} {'A':>12s} {'B':>12s} {'rel.diff':>9s} {'bound':>6s}")
    for workload in loadgen.WORKLOADS:
        a, b = ([s["workloads"][workload]["end_to_end"] for s in sides[x]] for x in "ab")
        for name, (better, bound) in bounds().items():
            va, vb = (statistics.median(r["metrics"][name]["value"] for r in side)
                      for side in (a, b))
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            verdict = "ok" if abs(worse) <= bound else "OUTSIDE"
            outside += verdict != "ok"
            print(f"{workload:14s} {name:12s} {va:12.5g} {vb:12.5g} {worse:+9.2%} "
                  f"{bound:6.0%} {verdict}")
        # Evidence of identical work on both sides, in the form of SNIPPETS.md
        # snippet 3: timing iterations, then schema / row-count / checksum
        # parity.  Inputs, exact-mode answers and failures gate; default-mode
        # parity is shown only, because ingest_mix's answers legitimately
        # differ run to run (SampleMaintainer draws from an unseeded generator).
        da, db = a[0]["detail"], b[0]["detail"]
        gating = {
            "inputs": da["inputs_sha"] == db["inputs_sha"],
            "schema+rows checksum (exact mode)": da["reference_sha"] == db["reference_sha"],
            "failed == 0": all(r["failed"] == 0 for r in a + b),
        }
        shown = {
            "schema+rows checksum (default mode)": da["answers_sha"] == db["answers_sha"],
            "row count": da["answers_rows"] == db["answers_rows"],
        }
        print(f"  evidence {workload}: timing iterations "
              f"A={[r['detail']['samples'] for r in a]} B={[r['detail']['samples'] for r in b]}; "
              + "; ".join(f"{k}: {'pass' if v else 'FAIL'}" for k, v in gating.items()) + "; "
              + "; ".join(f"{k}: {'same' if v else 'differs'}" for k, v in shown.items()))
        outside += not all(gating.values())
    return 1 if outside else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=loadgen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke-test size: scale factor {build.QUICK.scale_factor}, "
                             f"{QUICK_SECONDS} s windows, workloads run side by side")
    parser.add_argument("--aa", action="store_true", help=f"two sides of {AA_SETS} sets each, compared against the bounds")
    parser.add_argument("--out", help=f"directory for run.json / trace_*.json "
                                      f"(the whole set defaults to {DEFAULT_OUT})")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else 10.0
    if args.workload:
        return run_one(args)
    out = Path(args.out) if args.out else DEFAULT_OUT
    if args.aa:
        return run_aa(args, out)
    run_set(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

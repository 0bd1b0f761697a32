"""Experiment E8 — Figure 11: sample-preparation cost in context.

The paper compares VerdictDB's stratified-sampling time with the data
preparation work that has to happen anyway: shipping the dataset to a remote
cluster and loading it into distributed storage.  We measure the actual
stratified-sampling time on the generated dataset and model the two transfer
times from the dataset's byte size and nominal link rates (the paper's
25.8 h / 7.15 h / 0.59 h / 0.20 h bars).  A direct in-memory stratified
sampler stands in for the tightly-integrated engine's sampling time.  A
hashed (universe) sample on ``l_orderkey`` is timed beside the stratified
one: its cost is hashing the key column, where the stratified sample's is
grouping and joining on the strata column.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import harness
from repro.sampling.params import SampleSpec


WAN_BYTES_PER_SECOND = 35 * 1024 * 1024       # scp to a remote cluster
HDFS_BYTES_PER_SECOND = 150 * 1024 * 1024     # upload into distributed storage


def run(
    scale_factor: float = 2.0,
    sample_ratio: float = 0.02,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Measure sampling time and model the surrounding data-preparation costs."""
    workbench = harness.build_tpch_workbench(
        scale_factor=scale_factor, sample_ratio=sample_ratio, engine="generic", seed=seed
    )
    verdict = workbench.verdict
    database = workbench.connector.database
    dataset_bytes = sum(
        database.table(name).estimated_bytes() for name in database.table_names()
    )

    # VerdictDB's SQL-only stratified sampling on the largest fact table.
    _, verdict_sampling_seconds = harness.timed(
        lambda: verdict.create_sample(
            "lineitem", SampleSpec("stratified", ("l_returnflag",), sample_ratio)
        )
    )

    # VerdictDB's SQL-only hashed (universe) sampling on the same table.
    _, verdict_hashed_seconds = harness.timed(
        lambda: verdict.create_sample(
            "lineitem", SampleSpec("hashed", ("l_orderkey",), sample_ratio)
        )
    )

    # A tightly-integrated engine samples directly from its in-memory columns.
    integrated_seconds = _integrated_stratified_sampling_seconds(
        database.table("lineitem").columns(), "l_returnflag", sample_ratio, seed
    )

    return [
        {
            "task": "data transfer to remote cluster (modelled)",
            "seconds": dataset_bytes / WAN_BYTES_PER_SECOND,
        },
        {
            "task": "data transfer within cluster (modelled)",
            "seconds": dataset_bytes / HDFS_BYTES_PER_SECOND,
        },
        {
            "task": "verdictdb stratified sampling (measured)",
            "seconds": verdict_sampling_seconds,
        },
        {
            "task": "verdictdb hashed sampling (measured)",
            "seconds": verdict_hashed_seconds,
        },
        {
            "task": "integrated-engine stratified sampling (measured)",
            "seconds": integrated_seconds,
        },
    ]


def _integrated_stratified_sampling_seconds(
    columns: dict[str, np.ndarray], key_column: str, ratio: float, seed: int
) -> float:
    """Time a direct in-memory stratified sampler (no SQL round-trips)."""
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    keys = columns[key_column]
    unique_keys, inverse = np.unique(keys.astype(str), return_inverse=True)
    keep = np.zeros(len(keys), dtype=bool)
    for group in range(len(unique_keys)):
        members = np.flatnonzero(inverse == group)
        target = max(1, int(len(members) * ratio))
        keep[rng.choice(members, size=min(target, len(members)), replace=False)] = True
    _ = {name: values[keep] for name, values in columns.items()}
    return time.perf_counter() - started


def main() -> None:  # pragma: no cover - manual entry point
    records = run()
    print("=== Figure 11: sample preparation vs data preparation ===")
    print(harness.format_records(records, float_digits=3))


if __name__ == "__main__":  # pragma: no cover
    main()

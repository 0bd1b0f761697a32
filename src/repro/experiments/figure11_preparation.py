"""Experiment E8 — Figure 11: sample-preparation cost in context.

The paper compares VerdictDB's stratified-sampling time with the data
preparation work that has to happen anyway: shipping the dataset to a remote
cluster and loading it into distributed storage.  We measure the actual
stratified-sampling time on the generated dataset and model the two transfer
times from the dataset's byte size and nominal link rates (the paper's
25.8 h / 7.15 h / 0.59 h / 0.20 h bars).  A direct in-memory stratified
sampler stands in for the tightly-integrated engine's sampling time: it reads
the strata column's dictionary codes, counts each stratum with one
``bincount`` and keeps each row by one draw against its stratum's Lemma 1
probability.  The stand-in used before it, a per-stratum ``rng.choice`` over
the string keys, is timed beside it.  A hashed (universe) sample on
``l_orderkey`` is timed beside the stratified one: its cost is hashing the
key column, where the stratified sample's is grouping the strata column once
and copying the table with a random draw per row; the staircase is evaluated
once per stratum and only the rows below the largest probability are joined
to it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import harness
from repro.sampling import bernoulli
from repro.sampling.params import SampleSpec
from repro.sqlengine.table import Table


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
    lineitem = database.table("lineitem")
    integrated_seconds = _integrated_stratified_sampling_seconds(
        lineitem, "l_returnflag", sample_ratio, seed
    )
    choice_loop_seconds = _choice_loop_sampling_seconds(
        lineitem.columns(), "l_returnflag", sample_ratio, seed
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
        {
            "task": "per-stratum choice-loop sampling (measured)",
            "seconds": choice_loop_seconds,
        },
    ]


def _integrated_stratified_sampling_seconds(
    table: Table, key_column: str, ratio: float, seed: int
) -> float:
    """Time a direct in-memory stratified sampler (no SQL round-trips).

    One Bernoulli draw per row against its stratum's Lemma 1 probability,
    with Equation 1's minimum per stratum, as VerdictDB's build draws; the
    strata are the column's dictionary codes, counted by one ``bincount``.
    """
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    codes, _dictionary = table.dictionary_codes(key_column)
    sizes = np.bincount(codes)
    present = np.flatnonzero(sizes)
    min_rows = max(1, int(np.ceil(len(codes) * ratio / len(present))))
    probabilities = np.zeros(len(sizes))
    probabilities[present] = [
        bernoulli.required_sampling_probability(min_rows, int(size)) for size in sizes[present]
    ]
    keep = rng.random(len(codes)) < probabilities[codes]
    _ = {name: values[keep] for name, values in table.columns().items()}
    return time.perf_counter() - started


def _choice_loop_sampling_seconds(
    columns: dict[str, np.ndarray], key_column: str, ratio: float, seed: int
) -> float:
    """Time a per-stratum ``rng.choice`` of ``ratio`` of each stratum's rows
    over the string keys: the integrated engine's stand-in before the
    dictionary-code sampler."""
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

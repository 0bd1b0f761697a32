"""Incremental sample maintenance for data appends (Appendix D).

When a new batch of rows is appended to a base table, every existing sample
of that table is updated in place: the membership rule its build selected
(:func:`repro.sampling.creators.membership`) is evaluated over the batch and
the kept rows are appended to the sample table.  Stratified samples reuse the
per-stratum probabilities already stored in the sample; strata that appear
for the first time are kept in full (probability 1) until the sample is
rebuilt.

The batch stays columnar from the caller to the backend
(:meth:`~repro.connectors.base.Connector.append_columns`): each sample's
share is a fancy-index of the batch arrays, and the cost of an append is
proportional to the batch, not to the tables it lands in.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.connectors.base import Columns, Connector
from repro.errors import ExecutionError, SamplingError
from repro.sampling import creators
from repro.sampling.metadata import MetadataStore
from repro.sampling.params import PROBABILITY_COLUMN, SID_COLUMN, SampleInfo
from repro.sqlengine.encoding import encode_join_keys
from repro.sqlengine.expressions import Frame, evaluate
from repro.sqlengine.functions import EvaluationContext
from repro.sqlengine.table import coerce_batch, find_sorted

Array = NDArray[Any]
#: Column name -> values, as the backend will store them.
Batch = dict[str, Array]


class SampleMaintainer:
    """Appends data to a base table and keeps its samples consistent."""

    def __init__(self, connector: Connector, metadata: MetadataStore) -> None:
        self._connector = connector
        self._metadata = metadata
        # A fixed seed (as SampleBuilder's): one data set and one sequence of
        # appends must give one set of sample tables.
        self._rng = np.random.default_rng(0)

    def append(self, table: str, columns: Columns) -> dict[str, int]:
        """Append a batch to ``table`` and update its samples.

        The batch and each sample's rule are checked before anything
        changes: a :class:`~repro.errors.SamplingError` leaves the base
        table, its samples and the metadata as they were.

        Args:
            table: base table name.
            columns: column name → values of the new batch; exactly the
                table's columns, all of one length, each castable to the
                stored column type.

        Returns:
            Mapping of sample table name → number of rows inserted into it.
        """
        if not self._connector.has_table(table):
            raise SamplingError(f"table {table!r} does not exist")
        batch = self._validated_batch(table, columns)
        batch_size = len(next(iter(batch.values())))
        samples = self._metadata.samples_for(table)
        rules = [creators.membership(info, info.subsample_count) for info in samples]
        self._connector.append_columns(table, batch)

        inserted: dict[str, int] = {}
        changed: list[SampleInfo] = []
        for info, rule in zip(samples, rules):
            count = self._update_sample(info, rule, batch)
            inserted[info.sample_table] = count
            changed.append(
                dataclasses.replace(
                    info,
                    original_rows=info.original_rows + batch_size,
                    sample_rows=info.sample_rows + count,
                )
            )
        if changed:
            self._metadata.update(changed)
        return inserted

    def _validated_batch(self, table: str, columns: Columns) -> Batch:
        """The batch as the backend will store it, or a :class:`SamplingError`.

        Casting to the stored column types here, once, is also what keeps
        maintenance consistent with the builder: hashed keys and stratum
        keys are derived from the values the backend holds (``5``), not from
        whatever dtype the caller happened to pass (``5.0``).
        """
        stored = self._connector.column_dtypes(table)
        try:
            batch = coerce_batch(stored, columns)
        except ExecutionError as error:
            raise SamplingError(f"cannot append to {table!r}: {error}") from error
        for name, array in batch.items():
            if array.dtype == object and stored[name] != object:
                raise SamplingError(
                    f"column {name!r} holds non-numeric values; {table}.{name} is {stored[name]}"
                )
        return batch

    # -- per-sample update -------------------------------------------------------

    def _update_sample(self, info: SampleInfo, rule: creators.Membership, batch: Batch) -> int:
        """Append the batch rows ``rule`` keeps; returns their count.

        The rule is evaluated as the engine runs the build's CTAS: ``keep``
        over the batch first, then ``probability`` and ``sid`` over the kept
        rows, with the draws in that order.
        """
        frame = Frame()
        for name, array in batch.items():
            frame.add_column(None, name, array)
        if info.sample_type == "stratified":
            frame.add_column(None, PROBABILITY_COLUMN, self._stratified_probabilities(info, batch))
        keep = evaluate(rule.keep, frame, EvaluationContext(frame.num_rows, self._rng))
        indices = np.flatnonzero(keep)
        if indices.size == 0:
            return 0
        kept = frame.take(indices)
        context = EvaluationContext(kept.num_rows, self._rng)
        sample_batch = {name: kept.resolve(name) for name in batch}
        sample_batch[PROBABILITY_COLUMN] = evaluate(rule.probability, kept, context)
        # Integers, as SQLite's floor() gives them in the build.
        sample_batch[SID_COLUMN] = evaluate(rule.sid, kept, context).astype(np.int64)
        self._connector.append_columns(info.sample_table, sample_batch)
        return int(indices.size)

    def _stratified_probabilities(self, info: SampleInfo, batch: Batch) -> Array:
        """Reuse the per-stratum probabilities stored in the existing sample.

        Strata and batch rows are matched by the engine's key codec, as a
        join whose NULLs match NULL (a NULL stratum read back as None from
        SQLite or as NaN from the built-in engine matches a batch's NULL
        rows), so a batch row joins the stratum ``GROUP BY`` put its equals
        in; rows of an unseen stratum get probability 1.
        """
        key_columns = ", ".join(info.columns)
        result = self._connector.execute(
            f"SELECT {key_columns}, max({PROBABILITY_COLUMN}) AS p "
            f"FROM {info.sample_table} GROUP BY {key_columns}"
        )
        strata_keys, batch_keys = encode_join_keys(
            result.columns()[: len(info.columns)],
            [batch[column] for column in info.columns],
            null_safe=[True] * len(info.columns),
        )
        order = np.argsort(strata_keys)
        seen, positions = find_sorted(strata_keys[order], batch_keys)
        probabilities = np.ones(len(batch_keys), dtype=np.float64)
        probabilities[seen] = result.column("p").astype(np.float64)[order[positions]]
        return probabilities


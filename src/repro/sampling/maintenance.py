"""Incremental sample maintenance for data appends (Appendix D).

When a new batch of rows is appended to a base table, every existing sample
of that table is updated in place: the batch is sampled with the same
parameters the sample was built with and the selected rows are inserted into
the sample table.  Stratified samples reuse the per-stratum probabilities
already stored in the sample; strata that appear for the first time are kept
in full (probability 1) until the sample is rebuilt.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping, Sequence

import numpy as np

from repro.connectors.base import Connector
from repro.errors import SamplingError
from repro.sampling.metadata import MetadataStore
from repro.sampling.params import PROBABILITY_COLUMN, SID_COLUMN, SampleInfo


class SampleMaintainer:
    """Appends data to a base table and keeps its samples consistent."""

    def __init__(
        self,
        connector: Connector,
        metadata: MetadataStore,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._connector = connector
        self._metadata = metadata
        # Fixed seed by default (as SampleBuilder does): one seed, one data
        # set and one sequence of appends must give one set of sample tables.
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def append(self, table: str, columns: Mapping[str, Sequence]) -> dict[str, int]:
        """Append a batch to ``table`` and update its samples.

        Args:
            table: base table name.
            columns: column name → values of the new batch.

        Returns:
            Mapping of sample table name → number of rows inserted into it.
        """
        if not self._connector.has_table(table):
            raise SamplingError(f"table {table!r} does not exist")
        column_names = list(columns.keys())
        arrays = {name: np.asarray(values) for name, values in columns.items()}
        lengths = {len(array) for array in arrays.values()}
        if len(lengths) != 1:
            raise SamplingError("all appended columns must have the same length")
        batch_size = lengths.pop()

        rows = list(zip(*[arrays[name] for name in column_names]))
        self._connector.insert_rows(table, column_names, rows)

        inserted: dict[str, int] = {}
        for info in self._metadata.samples_for(table):
            inserted[info.sample_table] = self._update_sample(
                info, column_names, arrays, batch_size
            )
            sid_clustered = info.sid_clustered
            if inserted[info.sample_table] and sid_clustered:
                # New rows carry freshly drawn subsample ids, which almost
                # never extend the sorted sid run.  Ask the backend whether
                # the physical order actually survived; "unknown" (None)
                # must be treated as lost.
                clustered = self._connector.table_clustered_on(info.sample_table)
                sid_clustered = (
                    clustered is not None and clustered.lower() == SID_COLUMN
                )
            self._metadata.update_counts(
                info.sample_table,
                original_rows=info.original_rows + batch_size,
                sample_rows=info.sample_rows + inserted[info.sample_table],
                sid_clustered=sid_clustered,
            )
        return inserted

    # -- per-sample update -------------------------------------------------------

    def _update_sample(
        self,
        info: SampleInfo,
        column_names: list[str],
        arrays: dict[str, np.ndarray],
        batch_size: int,
    ) -> int:
        if info.sample_type == "uniform":
            probabilities = np.full(batch_size, info.ratio)
            keep = self._rng.random(batch_size) < info.ratio
        elif info.sample_type == "hashed":
            keys = _hash_keys(arrays, info.columns)
            probabilities = np.full(batch_size, info.ratio)
            keep = keys < info.ratio
        elif info.sample_type == "stratified":
            probabilities = self._stratified_probabilities(info, arrays, batch_size)
            keep = self._rng.random(batch_size) < probabilities
        else:
            raise SamplingError(f"cannot maintain sample of type {info.sample_type!r}")

        indices = np.flatnonzero(keep)
        if indices.size == 0:
            return 0
        sids = self._rng.integers(1, info.subsample_count + 1, size=indices.size)
        sample_columns = column_names + [PROBABILITY_COLUMN, SID_COLUMN]
        sample_rows = []
        for position, row_index in enumerate(indices):
            row = [arrays[name][row_index] for name in column_names]
            row.append(float(probabilities[row_index]))
            row.append(int(sids[position]))
            sample_rows.append(row)
        self._connector.insert_rows(info.sample_table, sample_columns, sample_rows)
        return indices.size

    def _stratified_probabilities(
        self, info: SampleInfo, arrays: dict[str, np.ndarray], batch_size: int
    ) -> np.ndarray:
        """Reuse the per-stratum probabilities stored in the existing sample."""
        key_columns = ", ".join(info.columns)
        result = self._connector.execute(
            f"SELECT {key_columns}, max({PROBABILITY_COLUMN}) AS p "
            f"FROM {info.sample_table} GROUP BY {key_columns}"
        )
        known: dict[tuple, float] = {}
        for row in result.rows():
            known[tuple(str(value) for value in row[:-1])] = float(row[-1])
        probabilities = np.ones(batch_size, dtype=np.float64)
        for index in range(batch_size):
            key = tuple(str(arrays[column][index]) for column in info.columns)
            probabilities[index] = known.get(key, 1.0)
        return probabilities


def _hash_keys(arrays: dict[str, np.ndarray], columns: tuple[str, ...]) -> np.ndarray:
    """Uniform [0, 1) hash of the key columns, matching the SQL ``vdb_hash``."""
    if len(columns) == 1:
        keys = [str(value) for value in arrays[columns[0]]]
    else:
        keys = [
            "".join(str(arrays[column][index]) for column in columns)
            for index in range(len(next(iter(arrays.values()))))
        ]
    return np.array(
        [zlib.crc32(key.encode("utf-8")) / 4294967296.0 for key in keys], dtype=np.float64
    )

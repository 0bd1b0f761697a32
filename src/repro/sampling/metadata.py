"""Sample metadata stored inside the underlying database.

VerdictDB keeps everything — samples and their metadata — in the underlying
database (Section 2.1), so that any process connecting through the middleware
sees the same sample catalog.  The metadata lives in a regular table: it is
read with plain SQL and written, like every other batch of rows, as columns
through the connector.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.connectors.base import Connector
from repro.sampling.params import SampleInfo


METADATA_TABLE = "verdictdb_metadata"

_COLUMNS = [
    ("original_table", "varchar"),
    ("sample_table", "varchar"),
    ("sample_type", "varchar"),
    ("column_set", "varchar"),
    ("sampling_ratio", "double"),
    ("original_rows", "bigint"),
    ("sample_rows", "bigint"),
    ("subsample_count", "bigint"),
]
#: The array dtype each SQL type above is written as.
_DTYPES: dict[str, type] = {"varchar": object, "double": np.float64, "bigint": np.int64}


class MetadataStore:
    """Reads and writes the sample catalog through a connector.

    The supported SQL subset has no DELETE/UPDATE and the table is tiny, so
    every mutation is one read followed by **one** columnar replace of the
    whole table (:meth:`_write`) — however many samples changed.  The pair
    serializes on the connector's cross-session
    :attr:`~repro.connectors.base.Connector.session_lock`, so two sessions
    sharing one backend cannot interleave their read-modify-writes.
    """

    def __init__(self, connector: Connector, table_name: str = METADATA_TABLE) -> None:
        self._connector = connector
        self.table_name = table_name

    # -- writes -----------------------------------------------------------------

    def record(self, info: SampleInfo) -> None:
        """Add the metadata row of a newly created sample."""
        with self._connector.session_lock:
            self._write([*self._read_samples(), info])

    def forget(self, sample_table: str) -> None:
        """Remove the metadata rows of a dropped sample."""
        with self._connector.session_lock:
            self._write(
                [info for info in self._read_samples() if info.sample_table != sample_table]
            )

    def update(self, changed: Iterable[SampleInfo]) -> None:
        """Replace the rows of the given samples (matched by sample table).

        One write for any number of samples: incremental maintenance updates
        every sample of a table with a single call.
        """
        replacement = {info.sample_table: info for info in changed}
        with self._connector.session_lock:
            self._write(
                [replacement.get(info.sample_table, info) for info in self._read_samples()]
            )

    def _write(self, infos: Sequence[SampleInfo]) -> None:
        """Replace the table's contents with ``infos``, as one columnar load."""
        rows = [
            (
                info.original_table,
                info.sample_table,
                info.sample_type,
                ",".join(info.columns),
                float(info.ratio),
                int(info.original_rows),
                int(info.sample_rows),
                int(info.subsample_count),
            )
            for info in infos
        ]
        self._connector.load_table(
            self.table_name,
            {
                name: np.array([row[index] for row in rows], dtype=_DTYPES[type_name])
                for index, (name, type_name) in enumerate(_COLUMNS)
            },
        )

    # -- reads ------------------------------------------------------------------

    def all_samples(self) -> list[SampleInfo]:
        """Return every recorded sample.

        Reads take the same cross-session lock as the writes, so a session
        never plans with a sample set another session is midway through
        replacing.
        """
        with self._connector.session_lock:
            return self._read_samples()

    def _read_samples(self) -> list[SampleInfo]:
        if not self._connector.has_table(self.table_name):
            return []
        result = self._connector.execute(f"SELECT * FROM {self.table_name}")
        infos = []
        for row in result.rows():
            record = dict(zip(result.column_names, row))
            columns = tuple(
                part for part in str(record["column_set"]).split(",") if part
            )
            infos.append(
                SampleInfo(
                    original_table=str(record["original_table"]),
                    sample_table=str(record["sample_table"]),
                    sample_type=str(record["sample_type"]),
                    columns=columns,
                    ratio=float(record["sampling_ratio"]),
                    original_rows=int(float(record["original_rows"])),
                    sample_rows=int(float(record["sample_rows"])),
                    subsample_count=int(float(record["subsample_count"])),
                )
            )
        return infos

    def samples_for(self, original_table: str) -> list[SampleInfo]:
        """Return the samples built for ``original_table``."""
        lowered = original_table.lower()
        return [info for info in self.all_samples() if info.original_table.lower() == lowered]

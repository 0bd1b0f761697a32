"""Sample builder: creates sample tables in the underlying database.

The builder turns :class:`~repro.sampling.params.SampleSpec` requests into
``CREATE TABLE AS SELECT`` statements (see :mod:`repro.sampling.creators`),
executes them through the connector and records the resulting sample in the
metadata store.  Everything happens inside the underlying database.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.connectors.base import Connector
from repro.errors import (
    OperationalError,
    QueryCancelledError,
    QueryTimeoutError,
    SamplingError,
)
from repro.sampling import creators, policy
from repro.sampling.metadata import MetadataStore
from repro.sampling.params import (
    PROBABILITY_COLUMN,
    SampleInfo,
    SampleSpec,
    SamplingPolicyConfig,
)
from repro.subsampling.sid import default_subsample_count

#: Retries of a failed build, and the seconds before the first (doubled for
#: each further one, plus up to as much again of jitter).
_RETRIES = 1
_RETRY_BACKOFF = 0.05


class SampleBuilder:
    """Creates and drops sample tables for one connector.

    Sample builds issue many statements against the backend, so a transient
    backend failure mid-build is the common case, not the exception.  Each
    build is retried once with exponential backoff + jitter
    (the build's DROP-first preamble makes a retry safe); once retries are
    exhausted a :class:`~repro.errors.SamplingError` surfaces so the caller
    can fall back to exact execution.
    """

    def __init__(
        self,
        connector: Connector,
        metadata: MetadataStore | None = None,
        subsample_count: int | None = None,
    ) -> None:
        self._connector = connector
        self.metadata = metadata if metadata is not None else MetadataStore(connector)
        self._subsample_count = subsample_count
        self._rng = np.random.default_rng(0)

    # -- naming -----------------------------------------------------------------

    @staticmethod
    def sample_table_name(original_table: str, spec: SampleSpec) -> str:
        """Deterministic sample-table name: table, type, key columns and ratio."""
        parts = [original_table, "vdb", spec.sample_type]
        if spec.columns:
            parts.append("_".join(spec.columns))
        parts.append(f"{spec.ratio:.4f}".replace(".", "p"))
        return "_".join(parts)

    # -- creation ---------------------------------------------------------------

    def create_sample(self, original_table: str, spec: SampleSpec) -> SampleInfo:
        """Create one sample table and record its metadata.

        Retries transient backend failures (bounded, with backoff); a hard
        deadline expiry or cancellation is never retried.  See the class
        docstring.
        """
        attempts = _RETRIES + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                base = _RETRY_BACKOFF * (2 ** (attempt - 1))
                time.sleep(base + float(self._rng.random()) * _RETRY_BACKOFF)
                self._connector.record_stat("sample_build_retries")
            injector = self._connector.fault_injector
            try:
                if injector is not None:
                    injector.fire("sample.build")
                return self._create_sample_once(original_table, spec)
            except (QueryTimeoutError, QueryCancelledError):
                raise  # the deadline is dead; retrying cannot revive it
            except SamplingError:
                raise  # spec/table problems are deterministic, not transient
            except OperationalError as error:
                last_error = error
        raise SamplingError(
            f"sample build for {original_table!r} failed after {attempts} attempts: {last_error}"
        ) from last_error

    def _create_sample_once(self, original_table: str, spec: SampleSpec) -> SampleInfo:
        """One build attempt (see :meth:`create_sample` for the public docs).

        The sample is written straight into its final table by one
        ``CREATE TABLE AS SELECT`` (for a stratified sample, the last of
        four: strata sizes, a randomized copy, per-stratum probabilities),
        in the order the backend produces the rows.
        """
        if not self._connector.has_table(original_table):
            raise SamplingError(f"table {original_table!r} does not exist")
        original_rows = self._connector.row_count(original_table)
        subsample_count = self._subsample_count or default_subsample_count(
            max(1, int(original_rows * spec.ratio))
        )
        sample_table = self.sample_table_name(original_table, spec)
        self._connector.drop_table(sample_table, if_exists=True)

        if spec.sample_type == "stratified":
            self._create_stratified(
                original_table, original_rows, sample_table, spec, subsample_count
            )
        else:
            rule = creators.membership(spec, subsample_count)
            self._connector.execute(creators.sample_statement(original_table, sample_table, rule))

        sample_rows = self._connector.row_count(sample_table)
        info = SampleInfo(
            original_table=original_table,
            sample_table=sample_table,
            sample_type=spec.sample_type,
            columns=spec.columns,
            ratio=spec.ratio,
            original_rows=original_rows,
            sample_rows=sample_rows,
            subsample_count=subsample_count,
        )
        self.metadata.record(info)
        return info

    def _create_stratified(
        self,
        original_table: str,
        original_rows: int,
        sample_table: str,
        spec: SampleSpec,
        subsample_count: int,
    ) -> None:
        """Two-pass probabilistic stratified sampling (Section 3.2).

        The first pass counts each stratum's rows; one statement over those
        counts evaluates the Lemma 1 staircase once per stratum; the second
        pass draws every row of a randomized copy against its stratum's
        probability.  An empty table has no strata and yields an empty
        sample.  Every helper table is dropped, whether or not the build
        succeeds.
        """
        sizes_table = f"{sample_table}_sizes"
        probability_table = f"{sample_table}_probs"
        randomized_table = f"{sample_table}_rand"
        helpers = (sizes_table, probability_table, randomized_table)
        try:
            for table in helpers:
                self._connector.drop_table(table, if_exists=True)
            self._connector.execute(
                creators.strata_size_statement(original_table, sizes_table, spec.columns)
            )
            self._connector.execute(
                creators.randomized_copy_statement(original_table, randomized_table)
            )
            strata_count = max(1, self._connector.row_count(sizes_table))
            max_strata_size = int(self._max_of(sizes_table, "vdb_strata_size"))
            # Equation 1: each stratum needs at least |T| * tau / d tuples.
            min_rows = max(1, int(math.ceil(original_rows * spec.ratio / strata_count)))
            self._connector.execute(
                creators.strata_probability_statement(
                    sizes_table,
                    probability_table,
                    spec.columns,
                    min_rows_per_stratum=min_rows,
                    max_strata_size=max_strata_size,
                )
            )
            statement = creators.stratified_sample_statement(
                randomized_table,
                sample_table,
                probability_table,
                spec,
                source_columns=self._connector.column_names(original_table),
                max_probability=self._max_of(probability_table, PROBABILITY_COLUMN),
                subsample_count=subsample_count,
            )
            self._connector.execute(statement)
        finally:
            for table in helpers:
                self._connector.drop_table(table, if_exists=True)

    def _max_of(self, table: str, column: str) -> float:
        """``max(column)`` of ``table``; 0 when the table has no rows."""
        value = self._connector.execute(f"SELECT max({column}) AS m FROM {table}").scalar()
        if value is None or math.isnan(float(value)):
            return 0.0
        return float(value)

    def create_samples(
        self, original_table: str, specs: list[SampleSpec] | None = None,
        policy_config: SamplingPolicyConfig | None = None,
    ) -> list[SampleInfo]:
        """Create several samples; defaults to the Appendix F policy."""
        if specs is None:
            specs = policy.default_sample_specs(self._connector, original_table, policy_config)
        return [self.create_sample(original_table, spec) for spec in specs]

    # -- removal ----------------------------------------------------------------

    def drop_sample(self, sample_table: str) -> None:
        """Drop a sample table and forget its metadata."""
        self._connector.drop_table(sample_table, if_exists=True)
        self.metadata.forget(sample_table)

    def drop_samples_for(self, original_table: str) -> None:
        """Drop every sample built for ``original_table``."""
        for info in self.metadata.samples_for(original_table):
            self.drop_sample(info.sample_table)

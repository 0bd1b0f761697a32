"""Sample specifications and metadata records."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


SAMPLE_TYPES = ("uniform", "hashed", "stratified")

# Names of the bookkeeping columns added to every sample table.
PROBABILITY_COLUMN = "vdb_sampling_prob"
SID_COLUMN = "vdb_sid"


@dataclass(frozen=True)
class SampleSpec:
    """A request to build one sample table.

    Attributes:
        sample_type: 'uniform', 'hashed' or 'stratified'.
        columns: column set the sample is keyed on (empty for uniform).
        ratio: sampling parameter tau in [0, 1].
    """

    sample_type: str
    columns: tuple[str, ...] = ()
    ratio: float = 0.01

    def __post_init__(self) -> None:
        if self.sample_type not in SAMPLE_TYPES:
            raise ConfigurationError(f"unknown sample type {self.sample_type!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigurationError(f"sampling ratio must be in (0, 1], got {self.ratio}")
        if self.sample_type in ("hashed", "stratified") and not self.columns:
            raise ConfigurationError(f"{self.sample_type} samples require a column set")


@dataclass(frozen=True)
class SampleInfo:
    """Metadata describing one sample table stored in the underlying database.

    ``census_rows`` counts a hashed sample's rows whose key hashes to 0 (its
    census).  A session reads it from the sample table, as a fact, when it
    plans a query (0 until then); the metadata table does not store it.
    """

    original_table: str
    sample_table: str
    sample_type: str
    columns: tuple[str, ...] = ()
    ratio: float = 0.01
    original_rows: int = 0
    sample_rows: int = 0
    subsample_count: int = 100
    census_rows: int = 0

    @property
    def effective_ratio(self) -> float:
        """Fraction of the original table actually present in the sample."""
        if self.original_rows <= 0:
            return self.ratio
        return self.sample_rows / self.original_rows

    @property
    def key_ratio(self) -> float:
        """Kept share of the rows outside the census.

        A hashed sample keeps each key with probability ``tau`` and every row
        of a key hashing to 0 with probability 1 (``census_rows`` rows);
        ``tau`` is estimated from the other rows, so the census does not
        inflate it.  With no census it is :attr:`effective_ratio`.
        """
        keyed_rows = self.original_rows - self.census_rows
        if self.census_rows <= 0 or keyed_rows <= 0:
            return self.effective_ratio
        return (self.sample_rows - self.census_rows) / keyed_rows

    def matches_columns(self, needed: tuple[str, ...]) -> bool:
        """True when this sample is keyed on exactly the needed column set."""
        return tuple(c.lower() for c in self.columns) == tuple(c.lower() for c in needed)

    def covers_columns(self, needed: tuple[str, ...]) -> bool:
        """True when the sample's column set is a superset of ``needed``.

        Appendix E grants a stratified sample an "advantage factor" when its
        column set is a superset of a query's grouping attributes.
        """
        own = {c.lower() for c in self.columns}
        return {c.lower() for c in needed}.issubset(own)


@dataclass
class SamplingPolicyConfig:
    """Tunables of the default sampling policy (Appendix F).

    Attributes:
        target_sample_rows: the policy sets ``tau = target_sample_rows / |T|``
            (the paper uses 10 million).
        max_keyed_samples: at most this many hashed and this many stratified
            samples are proposed per table (the paper's "top 10 columns").
        cardinality_fraction: columns with more distinct values than this
            fraction of ``|T|`` get a hashed sample, fewer get a stratified one.
        min_table_rows: tables smaller than this are not sampled at all.
    """

    target_sample_rows: int = 10_000_000
    max_keyed_samples: int = 10
    cardinality_fraction: float = 0.01
    min_table_rows: int = 10_000_000
    default_ratio: float | None = None
    excluded_columns: tuple[str, ...] = field(default=(PROBABILITY_COLUMN, SID_COLUMN))

"""Subsample-id (sid) machinery for variational subsampling.

A *variational table* (Definition 1 in the paper) is a sample table whose
rows each carry a subsample id between 0 and ``b``; 0 means "not used by any
subsample".  This module provides sid assignment, the default choice of the
number of subsamples, and the ``h(i, j)`` function (Theorem 4) that combines
the sids of two joined variational tables into the sid of the join's
variational table (the rewriter renders it as SQL, ``_h_expression``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


DEFAULT_SUBSAMPLE_COUNT = 100


def default_subsample_count(sample_size: int) -> int:
    """Number of subsamples ``b`` used by default for a sample of ``n`` rows.

    The paper's analysis (Appendix B.3) minimises the asymptotic error with
    ``ns = sqrt(n)``, i.e. ``b = n / ns = sqrt(n)``; its experiments cap
    ``b`` at 100.  We follow the experiments: ``b = min(100, ceil(sqrt(n)))``
    rounded down to a perfect square so that ``h(i, j)`` (which uses
    ``sqrt(b)``) stays integral.
    """
    if sample_size <= 1:
        return 1
    b = min(DEFAULT_SUBSAMPLE_COUNT, int(math.ceil(math.sqrt(sample_size))))
    root = max(1, int(math.floor(math.sqrt(b))))
    return root * root


def default_subsample_size(sample_size: int) -> int:
    """The paper's default subsample size ``ns = sqrt(n)``."""
    return max(1, int(round(math.sqrt(max(sample_size, 1)))))


def assign_sids(
    num_rows: int,
    subsample_count: int | None = None,
    rng: np.random.Generator | None = None,
    partial: bool = False,
    subsample_size: int | None = None,
) -> np.ndarray:
    """Assign a subsample id in ``{0..b}`` (or ``{1..b}``) to each row.

    Args:
        num_rows: number of rows in the sample (``n``).
        subsample_count: number of subsamples ``b`` (default per
            :func:`default_subsample_count`).
        rng: random generator (a fresh default generator when omitted).
        partial: when True, follow Definition 1 exactly: a row belongs to a
            subsample with probability ``b * ns / n`` and gets sid 0
            otherwise.  When False (the default, matching the released
            VerdictDB implementation and the Appendix G rewrite), every row is
            assigned to one of the ``b`` subsamples so the subsamples
            partition the sample.
        subsample_size: target subsample size ``ns``; only used when
            ``partial`` is True (defaults to ``sqrt(n)``).

    Returns:
        int64 array of length ``num_rows`` with the sid of each row.
    """
    rng = rng if rng is not None else np.random.default_rng()
    b = subsample_count if subsample_count is not None else default_subsample_count(num_rows)
    if num_rows == 0:
        return np.zeros(0, dtype=np.int64)
    if not partial:
        return rng.integers(1, b + 1, size=num_rows).astype(np.int64)
    ns = subsample_size if subsample_size is not None else default_subsample_size(num_rows)
    keep_probability = min(1.0, b * ns / num_rows)
    sids = rng.integers(1, b + 1, size=num_rows).astype(np.int64)
    keep = rng.random(num_rows) < keep_probability
    sids[~keep] = 0
    return sids


def combine_sids(left_sids: np.ndarray, right_sids: np.ndarray, subsample_count: int) -> np.ndarray:
    """Combine the sids of two joined variational tables (Theorem 4).

    ``h(i, j) = floor((i-1)/sqrt(b)) * sqrt(b) + floor((j-1)/sqrt(b)) + 1``.
    Rows whose sid is 0 on either side do not belong to any subsample of the
    join and keep sid 0.
    """
    root = int(round(math.sqrt(subsample_count)))
    if root * root != subsample_count:
        raise ConfigurationError(
            f"subsample_count must be a perfect square for joins, got {subsample_count}"
        )
    left = np.asarray(left_sids, dtype=np.int64)
    right = np.asarray(right_sids, dtype=np.int64)
    combined = ((left - 1) // root) * root + ((right - 1) // root) + 1
    combined[(left == 0) | (right == 0)] = 0
    return combined

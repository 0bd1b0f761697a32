"""Answer Rewriter: turns raw rewritten-query results into approximate answers.

The middleware folds the rows the underlying database returns into the
raw answer (:class:`~repro.core.rewriter.SubsampleFold`): grouping columns,
one column per approximated aggregate and (when requested) one
standard-error column per aggregate.  :class:`ApproximateResult` wraps that
result with the paper's answer semantics: error columns are hidden unless the
user asks for them (Section 2.4), confidence intervals are derived from the
standard errors, and exact pass-through results use the same interface so
legacy applications never need to know whether a query was approximated.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.errors import ExecutionError
from repro.sqlengine.resultset import ResultSet
from repro.subsampling.intervals import ConfidenceInterval


class ApproximateResult:
    """An approximate (or exact pass-through) query answer."""

    def __init__(
        self,
        result: ResultSet,
        group_columns: list[str] | None = None,
        estimate_columns: dict[str, str | None] | None = None,
        confidence: float = 0.95,
        is_exact: bool = False,
        rewritten_sql: str | None = None,
        plan_description: str | None = None,
        elapsed_seconds: float = 0.0,
    ) -> None:
        self._result = result
        self.group_columns = list(group_columns or [])
        self.estimate_columns = dict(estimate_columns or {})
        self.confidence = confidence
        self.is_exact = is_exact
        self.rewritten_sql = rewritten_sql
        self.plan_description = plan_description
        self.elapsed_seconds = elapsed_seconds
        # True when an accuracy-contract "rerun" was skipped because the
        # soft time budget was already spent (the approximate answer was
        # kept); set by the session's contract enforcement.
        self.budget_degraded = False

    # -- result-set-like access ---------------------------------------------------

    @property
    def raw(self) -> ResultSet:
        """The raw result set, including any error columns."""
        return self._result

    def column_names(self, include_errors: bool = False) -> list[str]:
        """Visible column names; error columns only when requested."""
        error_names = {name for name in self.estimate_columns.values() if name}
        if include_errors:
            return self._result.column_names
        return [name for name in self._result.column_names if name not in error_names]

    @property
    def num_rows(self) -> int:
        return self._result.num_rows

    def column(self, name: str) -> np.ndarray:
        return self._result.column(name)

    def rows(self, include_errors: bool = False):
        names = self.column_names(include_errors)
        columns = [self._result.column(name) for name in names]
        for index in range(self._result.num_rows):
            yield tuple(column[index] for column in columns)

    def fetchall(self, include_errors: bool = False) -> list[tuple]:
        return list(self.rows(include_errors))

    def to_dict(self, include_errors: bool = False) -> dict[str, list]:
        return {
            name: self._result.column(name).tolist()
            for name in self.column_names(include_errors)
        }

    def scalar(self) -> float:
        """The single estimate of a one-row, one-aggregate result."""
        estimates = list(self.estimate_columns)
        if self._result.num_rows != 1 or len(estimates) != 1:
            raise ExecutionError("scalar() requires a single-row, single-aggregate result")
        return float(self._result.column(estimates[0])[0])

    # -- error semantics -------------------------------------------------------------

    def standard_errors(self, column: str) -> np.ndarray:
        """Per-row standard errors of an estimate column (zeros when exact)."""
        error_column = self.estimate_columns.get(column)
        if error_column is None or not self._result.has_column(error_column):
            return np.zeros(self._result.num_rows)
        errors = self._result.column(error_column).astype(np.float64)
        return np.nan_to_num(errors, nan=0.0)

    def margins(self, column: str) -> np.ndarray:
        """Half-widths of the confidence intervals of an estimate column."""
        z = float(stats.norm.ppf(0.5 + self.confidence / 2.0))
        return z * self.standard_errors(column)

    def confidence_interval(self, column: str, row: int = 0) -> ConfidenceInterval:
        """Confidence interval of one cell of an estimate column."""
        estimate = float(self._result.column(column)[row])
        margin = float(self.margins(column)[row])
        return ConfidenceInterval(
            estimate=estimate,
            lower=estimate - margin,
            upper=estimate + margin,
            confidence=self.confidence,
        )

    def relative_errors(self, column: str) -> np.ndarray:
        """Per-row relative half-widths (margin / |estimate|) of an estimate column."""
        estimates = self._result.column(column).astype(np.float64)
        margins = self.margins(column)
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(estimates != 0, np.abs(margins / estimates), np.inf)
        relative[margins == 0] = 0.0
        return relative

    def max_relative_error(self) -> float:
        """The worst relative error across every estimate column and row."""
        if self.is_exact or not self.estimate_columns:
            return 0.0
        worst = 0.0
        for column in self.estimate_columns:
            if self._result.num_rows == 0:
                continue
            worst = max(worst, float(np.max(self.relative_errors(column))))
        return worst

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "exact" if self.is_exact else "approximate"
        return (
            f"ApproximateResult({kind}, rows={self.num_rows}, "
            f"estimates={list(self.estimate_columns)})"
        )


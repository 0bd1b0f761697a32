"""Confidence intervals and error summaries shared by all estimation methods."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric-probability confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float = 0.95

    @property
    def half_width(self) -> float:
        """Half of the interval width (a convenient scalar error measure)."""
        return (self.upper - self.lower) / 2.0

    @property
    def relative_error(self) -> float:
        """Half-width relative to the magnitude of the estimate."""
        if self.estimate == 0:
            return float("inf") if self.half_width > 0 else 0.0
        return abs(self.half_width / self.estimate)

    def contains(self, value: float) -> bool:
        """Return True when ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ConfidenceInterval({self.estimate:.6g} "
            f"[{self.lower:.6g}, {self.upper:.6g}] @ {self.confidence:.0%})"
        )


def normal_interval(
    estimate: float, standard_error: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """Build a CLT-style interval from an estimate and its standard error."""
    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    margin = z * standard_error
    return ConfidenceInterval(
        estimate=estimate, lower=estimate - margin, upper=estimate + margin, confidence=confidence
    )


def empirical_interval(
    estimate: float,
    scaled_deviations: np.ndarray,
    scale: float,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Interval from an empirical distribution of scaled deviations.

    The subsampling theory (Politis & Romano; Theorem 2 of the paper) shows
    that the empirical distribution of ``sqrt(ns_i) * (g_i - g0)`` converges
    to the distribution of ``sqrt(n) * (g0 - g)``.  The confidence interval
    for ``g`` is therefore ``[g0 - t_{1-a/2} / sqrt(n), g0 - t_{a/2} / sqrt(n)]``
    where ``t_q`` are quantiles of the scaled deviations and ``scale`` is
    ``sqrt(n)``.

    Args:
        estimate: the full-sample estimate ``g0``.
        scaled_deviations: array of ``sqrt(ns_i) * (g_i - g0)`` values.
        scale: ``sqrt(n)``, the scaling of the full-sample estimate.
        confidence: interval coverage.
    """
    alpha = 1.0 - confidence
    deviations = np.asarray(scaled_deviations, dtype=np.float64)
    deviations = deviations[~np.isnan(deviations)]
    if deviations.size == 0 or scale <= 0:
        return ConfidenceInterval(estimate, estimate, estimate, confidence)
    upper_quantile = float(np.quantile(deviations, 1.0 - alpha / 2.0))
    lower_quantile = float(np.quantile(deviations, alpha / 2.0))
    return ConfidenceInterval(
        estimate=estimate,
        lower=estimate - upper_quantile / scale,
        upper=estimate - lower_quantile / scale,
        confidence=confidence,
    )


def relative_error(approximate: float, exact: float) -> float:
    """Relative error of an approximate answer against the exact answer."""
    if exact == 0:
        return 0.0 if approximate == 0 else float("inf")
    return abs(approximate - exact) / abs(exact)

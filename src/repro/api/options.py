"""Per-query execution options for the session layer.

The session layer collects every per-query knob into one immutable
:class:`ExecutionOptions` value that can be set per connection (the default
for every cursor), per cursor, or per individual ``execute`` call.  It is
the only place these knobs live: sessions and ``repro.connect`` take no
per-query defaults of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

#: Allowed execution modes.
MODES = ("approximate", "exact")

#: What to do when the accuracy contract is violated.
ON_VIOLATION = ("rerun", "raise", "keep")


@dataclass(frozen=True)
class ExecutionOptions:
    """How one query should be executed by a session.

    Attributes:
        accuracy: optional HAC minimum accuracy (e.g. ``0.99``); when the
            estimated error violates it, ``on_contract_violation`` decides
            what happens.
        confidence: confidence level of reported error estimates.
        include_errors: whether rewritten queries also compute error columns.
        mode: ``"approximate"`` (rewrite against samples when possible, the
            default) or ``"exact"`` (always run the original query on the
            base tables).
        sample_hint: restrict the sample planner to sample tables whose name
            equals the hint (case-insensitive); when no sample matches, the
            query runs exactly.
        time_budget_seconds: *soft* latency budget.  When the accuracy
            contract fails but the approximate attempt has already
            consumed the budget, the exact re-run is skipped and the
            approximate answer is returned with
            ``ApproximateResult.budget_degraded`` set.
        timeout_seconds: *hard* deadline.  A cooperative
            :class:`~repro.faults.QueryDeadline` is threaded through the
            whole pipeline (executor checkpoints, backend drivers); expiry
            cancels the running query with
            :class:`~repro.errors.QueryTimeoutError` instead of letting it
            finish.  Independent of ``time_budget_seconds``.
        on_contract_violation: ``"rerun"`` (re-run exactly, the default),
            ``"raise"`` (raise :class:`~repro.errors.AccuracyContractError`)
            or ``"keep"`` (return the approximate answer anyway).
    """

    accuracy: float | None = None
    confidence: float = 0.95
    include_errors: bool = True
    mode: str = "approximate"
    sample_hint: str | None = None
    time_budget_seconds: float | None = None
    timeout_seconds: float | None = None
    on_contract_violation: str = "rerun"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.on_contract_violation not in ON_VIOLATION:
            raise ConfigurationError(
                f"on_contract_violation must be one of {ON_VIOLATION}, "
                f"got {self.on_contract_violation!r}"
            )
        if self.accuracy is not None and not 0.0 < self.accuracy < 1.0:
            raise ConfigurationError("accuracy must be strictly between 0 and 1")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError("confidence must be strictly between 0 and 1")
        if self.time_budget_seconds is not None and self.time_budget_seconds <= 0:
            raise ConfigurationError("time_budget_seconds must be positive")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        if self.accuracy is not None and not self.include_errors:
            raise ConfigurationError(
                "an accuracy contract needs error estimates; "
                "include_errors=False cannot be combined with accuracy"
            )

    def merged(self, **overrides: Any) -> ExecutionOptions:
        """A copy with the given fields replaced (None overrides are ignored)."""
        effective = {key: value for key, value in overrides.items() if value is not None}
        return replace(self, **effective) if effective else self


#: The all-defaults options value shared by sessions.
DEFAULT_OPTIONS = ExecutionOptions()

"""Resilience primitives: query deadlines and a fault-injection harness.

Two small, dependency-free building blocks shared by every layer:

* :class:`QueryDeadline` — one cooperative cancellation token per query.
  Created by the session (from ``ExecutionOptions.timeout_seconds``) or by
  ``Cursor.execute`` and threaded down through the connector, the engine and
  the executor's :class:`~repro.sqlengine.functions.EvaluationContext`.  Hot
  loops call :meth:`QueryDeadline.check` at checkpoints; expiry raises
  :class:`~repro.errors.QueryTimeoutError`, a cross-thread
  :meth:`QueryDeadline.cancel` raises
  :class:`~repro.errors.QueryCancelledError`.

* :class:`FaultInjector` — a registry of *named failpoints* compiled into
  the production code paths (connector I/O, sample builds, executor
  checkpoints).  Sites are inert unless a :class:`FaultSpec` is configured
  for them via ``Database(fault_injection={...})``; activation is
  deterministic (seeded probability, skip-the-first-``after`` passes, fire
  at most ``times`` times), so the chaos suite replays identical failure
  schedules across runs.  A spec either raises :class:`InjectedFault` or
  sleeps (simulating a slow backend).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from repro.errors import (
    ConfigurationError,
    OperationalError,
    QueryCancelledError,
    QueryTimeoutError,
)


class InjectedFault(OperationalError):
    """An artificial failure raised by an active failpoint.

    Subclasses :class:`~repro.errors.OperationalError` so injected failures
    exercise exactly the handlers that real backend failures would.
    """


class QueryDeadline:
    """Cooperative deadline + cancellation token for one query.

    ``timeout_seconds=None`` builds a pure cancellation token: it never
    expires on its own but still honours :meth:`cancel` from another thread.
    """

    __slots__ = ("_expires_at", "_cancelled")

    def __init__(self, timeout_seconds: float | None = None) -> None:
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        self._expires_at = (
            None if timeout_seconds is None else time.monotonic() + timeout_seconds
        )
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation (safe to call from any thread)."""
        self._cancelled = True

    def arm(self, timeout_seconds: float) -> None:
        """Start (or tighten) the expiry clock on an existing token.

        Used when a pure cancellation token created up-front by
        ``Cursor.execute`` meets ``ExecutionOptions.timeout_seconds`` at the
        session layer; an already-armed earlier expiry is kept.
        """
        if timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        expires_at = time.monotonic() + timeout_seconds
        if self._expires_at is None or expires_at < self._expires_at:
            self._expires_at = expires_at

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def remaining(self) -> float | None:
        """Seconds until expiry (None when no timeout; never negative)."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def check(self) -> None:
        """Raise the typed error if the query should stop now."""
        if self._cancelled:
            raise QueryCancelledError("query cancelled")
        if self.expired:
            raise QueryTimeoutError("query exceeded its timeout_seconds deadline")


class DeadlineRegistry:
    """Thread-safe registry of in-flight query deadlines, keyed by query id.

    The serving tier needs to reach a *running* query's cancellation token
    from outside the thread executing it: a server connection receives a
    CANCEL frame for ``query_id`` while the QUERY is executing on a worker
    thread, and a draining server must cancel everything still in flight.
    Each query registers its :class:`QueryDeadline` under an opaque key for
    exactly the duration of its execution (the :meth:`tracking` context
    manager guarantees unregistration), and :meth:`cancel` /
    :meth:`cancel_all` flip the tokens from any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._deadlines: dict[object, QueryDeadline] = {}

    def register(self, key: object, deadline: QueryDeadline) -> None:
        with self._lock:
            self._deadlines[key] = deadline

    def unregister(self, key: object) -> None:
        with self._lock:
            self._deadlines.pop(key, None)

    def cancel(self, key: object) -> bool:
        """Cancel the deadline registered under ``key``; False when absent.

        An absent key is not an error: the CANCEL may have raced the query's
        completion, which is indistinguishable from the client's side.
        """
        with self._lock:
            deadline = self._deadlines.get(key)
        if deadline is None:
            return False
        deadline.cancel()
        return True

    def cancel_all(self) -> int:
        """Cancel every registered deadline (drain path); returns the count."""
        with self._lock:
            deadlines = list(self._deadlines.values())
        for deadline in deadlines:
            deadline.cancel()
        return len(deadlines)

    def active_count(self) -> int:
        with self._lock:
            return len(self._deadlines)

    @contextmanager
    def tracking(self, key: object, deadline: QueryDeadline):
        """Register ``deadline`` under ``key`` for the duration of a block."""
        self.register(key, deadline)
        try:
            yield deadline
        finally:
            self.unregister(key)


# ---------------------------------------------------------------------------
# failpoints
# ---------------------------------------------------------------------------

#: Every failpoint compiled into the library; unknown site names in a
#: configuration are almost always typos, so they are rejected up front.
KNOWN_SITES = frozenset(
    {
        "connector.execute",
        "sample.build",
        "executor.checkpoint",
    }
)

#: Spec kinds: raise an error or sleep (simulate slowness).
KINDS = ("error", "sleep")


@dataclass(frozen=True)
class FaultSpec:
    """How one failpoint misbehaves when it activates.

    Attributes:
        kind: ``"error"`` raises :class:`InjectedFault`, ``"sleep"`` blocks
            for ``seconds``.
        times: maximum number of activations (None = unlimited).
        after: skip the first ``after`` passes through the site.
        probability: seeded per-pass activation probability.
        seconds: sleep duration for ``kind="sleep"``.
        message: text carried by the injected error.
    """

    kind: str = "error"
    times: int | None = 1
    after: int = 0
    probability: float = 1.0
    seconds: float = 0.05
    message: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"fault kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("fault probability must be within [0, 1]")


class FaultInjector:
    """Deterministic activation of configured failpoints.

    ``config`` maps site names to :class:`FaultSpec` instances (or plain
    dicts / ``True`` shorthands).  ``hits`` counts every pass through a
    configured site, ``triggered`` counts actual activations — the chaos
    suite asserts on both.
    """

    def __init__(self, config: Mapping[str, object], seed: int = 0) -> None:
        self._specs: dict[str, FaultSpec] = {}
        for site, raw in dict(config).items():
            if site not in KNOWN_SITES:
                raise ConfigurationError(
                    f"unknown failpoint {site!r}; known sites: {sorted(KNOWN_SITES)}"
                )
            if raw is True:
                spec = FaultSpec()
            elif isinstance(raw, FaultSpec):
                spec = raw
            elif isinstance(raw, Mapping):
                spec = FaultSpec(**raw)
            else:
                raise ConfigurationError(f"bad fault spec for {site!r}: {raw!r}")
            self._specs[site] = spec
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self.hits: dict[str, int] = {site: 0 for site in self._specs}
        self.triggered: dict[str, int] = {site: 0 for site in self._specs}

    def spec(self, site: str) -> FaultSpec | None:
        return self._specs.get(site)

    def fire(self, site: str) -> bool:
        """Run the site's configured fault if it activates on this pass.

        Returns True when a sleep fault fired; an error fault raises.
        """
        spec = self._specs.get(site)
        if spec is None:
            return False
        with self._lock:
            passes = self.hits[site]
            self.hits[site] = passes + 1
            if passes < spec.after:
                return False
            if spec.times is not None and self.triggered[site] >= spec.times:
                return False
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                return False
            self.triggered[site] += 1
        if spec.kind == "sleep":
            time.sleep(spec.seconds)
            return True
        raise InjectedFault(spec.message or f"injected fault at {site}")

    def reset(self) -> None:
        with self._lock:
            for site in self.hits:
                self.hits[site] = 0
                self.triggered[site] = 0


def as_injector(value, seed: int = 0) -> FaultInjector | None:
    """Coerce the ``Database(fault_injection=...)`` argument.

    Accepts None, a ready :class:`FaultInjector`, or a site->spec mapping.
    """
    if value is None or isinstance(value, FaultInjector):
        return value
    if isinstance(value, Mapping):
        return FaultInjector(value, seed=seed)
    raise ConfigurationError(f"fault_injection must be a mapping or FaultInjector, got {value!r}")

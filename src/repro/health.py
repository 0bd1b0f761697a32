"""One typed health/stats surface for every layer of the serving stack.

Every health entry point — ``Database.health()``,
``connection.health_check()``, ``ConnectionPool.health()`` and
``VerdictServer.health()`` — returns one frozen :class:`HealthReport` with
typed *sections* (engine, circuit breaker, connection pool, server) plus the
raw ``stats`` counters; :meth:`HealthReport.as_sections` is its wire form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, cast


@dataclass(frozen=True)
class HealthReport:
    """Typed liveness/degradation snapshot of one serving-stack layer.

    Attributes:
        status: ``"ok"``, ``"degraded"`` (answers still correct, some
            capability lost — e.g. the dispatch circuit is open) or
            ``"draining"`` (a server refusing new work while in-flight
            queries finish).
        backend: class name of the reporting backend/connector.
        engine: engine-level gauges (worker counts, pool liveness, published
            shared-memory tables); empty for backends without an engine.
        circuit: dispatch circuit-breaker section (``state``,
            ``consecutive_failures``); empty when the backend has none.
        pool: connection-pool section (sizing, checkouts, recycling) or None
            when no pool is involved.
        server: socket-server section (connections, running/queued queries,
            admission rejections) or None outside server mode.
        stats: the backend's raw observability counters
            (``Database.stats``), unified here instead of being a separate
            divergent surface.
    """

    status: str = "ok"
    backend: str | None = None
    engine: dict[str, Any] = field(default_factory=dict)
    circuit: dict[str, Any] = field(default_factory=dict)
    pool: dict[str, Any] | None = None
    server: dict[str, Any] | None = None
    stats: dict[str, int] = field(default_factory=dict)

    # -- typed accessors ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def circuit_state(self) -> str | None:
        return cast("str | None", self.circuit.get("state"))

    def section(self, name: str) -> dict[str, Any] | None:
        """One named section (``engine`` / ``circuit`` / ``pool`` / ``server``)."""
        if name not in ("engine", "circuit", "pool", "server", "stats"):
            raise KeyError(name)
        return cast("dict[str, Any] | None", getattr(self, name))

    def as_sections(self) -> dict[str, Any]:
        """The typed sections as one plain dict (the wire form).

        Round-trips through ``HealthReport(**report.as_sections())`` — the
        server serializes health this way and the client reconstructs the
        same typed report.
        """
        return {
            "status": self.status,
            "backend": self.backend,
            "engine": dict(self.engine),
            "circuit": dict(self.circuit),
            "pool": None if self.pool is None else dict(self.pool),
            "server": None if self.server is None else dict(self.server),
            "stats": dict(self.stats),
        }

"""One typed health/stats surface for every layer of the serving stack.

Every health entry point — ``Database.health()``,
``connection.health_check()``, ``ConnectionPool.health()`` and
``VerdictServer.health()`` — returns one frozen :class:`HealthReport` with
typed *sections* (connection pool, server) plus the raw ``stats`` counters;
:meth:`HealthReport.as_sections` is its wire form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, cast

_SECTIONS = ("pool", "server", "stats")


@dataclass(frozen=True)
class HealthReport:
    """Typed liveness/degradation snapshot of one serving-stack layer.

    Attributes:
        status: ``"ok"`` or ``"draining"`` (a server refusing new work
            while in-flight queries finish).
        backend: class name of the reporting backend/connector.
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
    pool: dict[str, Any] | None = None
    server: dict[str, Any] | None = None
    stats: dict[str, int] = field(default_factory=dict)

    # -- typed accessors ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def section(self, name: str) -> dict[str, Any] | None:
        """One named section (``pool`` / ``server`` / ``stats``)."""
        if name not in _SECTIONS:
            raise KeyError(name)
        return cast("dict[str, Any] | None", getattr(self, name))

    def as_sections(self) -> dict[str, Any]:
        """The typed sections as one plain dict (the wire form).

        Round-trips through :meth:`from_sections` — the server serializes
        health this way and the client reconstructs the same typed report.
        """
        return {
            "status": self.status,
            "backend": self.backend,
            "pool": None if self.pool is None else dict(self.pool),
            "server": None if self.server is None else dict(self.server),
            "stats": dict(self.stats),
        }

    @classmethod
    def from_sections(cls, payload: dict[str, Any]) -> HealthReport:
        """Rebuild a report from its wire form, ignoring unknown keys.

        Unknown keys are dropped rather than rejected so a newer client can
        read an older server's report (which also sent ``engine`` and
        ``circuit`` sections).
        """
        known = {item.name for item in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

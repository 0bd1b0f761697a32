"""repro — a from-scratch reproduction of VerdictDB (SIGMOD 2018).

VerdictDB is a database-agnostic approximate query processing (AQP)
middleware: it rewrites analytical SQL queries so that any off-the-shelf
relational engine returns enough information to compute an unbiased
approximate answer together with an error estimate, using *variational
subsampling* for error estimation.

Quick start (DB-API-shaped interface)::

    import numpy as np
    import repro
    from repro import SampleSpec

    connection = repro.connect()
    connection.session.load_table("orders", {"price": np.random.rand(100_000), ...})
    connection.session.create_sample("orders", SampleSpec("uniform", (), 0.01))
    cursor = connection.cursor()
    cursor.execute("SELECT count(*) AS c FROM orders WHERE price > ?", (0.5,))
    print(cursor.fetchone(), cursor.last_result.confidence_interval("c"))
"""

from repro.api import (
    AsyncConnection,
    AsyncCursor,
    ConnectionPool,
    ExecutionOptions,
    HealthReport,
    PooledConnection,
    PreparedStatement,
    VerdictConnection,
    VerdictSession,
    apilevel,
    connect,
    connect_async,
    paramstyle,
    threadsafety,
)
from repro import client, server  # noqa: F401  (repro.client.connect / repro.server.serve)
from repro.core.answer import ApproximateResult
from repro.core.hac import AccuracyContract
from repro.core.sample_planner import PlannerConfig
from repro.errors import (
    PoolTimeoutError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ServerBusyError,
)
from repro.faults import FaultInjector, FaultSpec, QueryDeadline
from repro.sampling.params import SampleSpec, SamplingPolicyConfig
from repro.server import VerdictServer, serve
from repro.sqlengine.engine import Database
from repro.sqlengine.resultset import ResultSet

__version__ = "2.0.0"

__all__ = [
    "AccuracyContract",
    "ApproximateResult",
    "AsyncConnection",
    "AsyncCursor",
    "ConnectionPool",
    "Database",
    "ExecutionOptions",
    "FaultInjector",
    "FaultSpec",
    "HealthReport",
    "PlannerConfig",
    "PooledConnection",
    "PoolTimeoutError",
    "PreparedStatement",
    "ProtocolError",
    "QueryCancelledError",
    "QueryDeadline",
    "QueryTimeoutError",
    "ResultSet",
    "SampleSpec",
    "SamplingPolicyConfig",
    "ServerBusyError",
    "VerdictConnection",
    "VerdictServer",
    "VerdictSession",
    "__version__",
    "apilevel",
    "client",
    "connect",
    "connect_async",
    "paramstyle",
    "serve",
    "server",
    "threadsafety",
]

"""Snapshot of the public surface: a new export or knob must edit this file.

Every independently settable option doubles the configurations tests and
benchmarks have to cover, so adding one is a decision a reviewer should see
as a one-line diff here — not discover later in a constructor signature.
Removing a name is equally visible.  Update the lists deliberately; do not
generate them.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro
from repro import Database, ExecutionOptions, VerdictSession


def _parameters(function) -> list[str]:
    return [name for name in inspect.signature(function).parameters if name != "self"]


def test_package_exports():
    assert sorted(repro.__all__) == [
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
        "PoolTimeoutError",
        "PooledConnection",
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
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_database_parameters():
    assert _parameters(Database.__init__) == [
        "seed",
        "optimize",
        "fault_injection",
    ]


def test_connect_parameters():
    # Per-query defaults (confidence, include_errors) live only in
    # ExecutionOptions, the I/O budget only in PlannerConfig.
    assert _parameters(repro.connect) == [
        "connector",
        "database",
        "options",
        "pool_size",
        "database_kwargs",
        "subsample_count",
        "planner_config",
        "pool_kwargs",
    ]


def test_session_parameters():
    assert _parameters(VerdictSession.__init__) == [
        "connector",
        "database",
        "subsample_count",
        "planner_config",
        "default_options",
    ]


def test_connect_async_parameters():
    assert _parameters(repro.connect_async) == [
        "connector",
        "database",
        "options",
        "connect_kwargs",
    ]


def test_serve_parameters():
    assert _parameters(repro.serve) == ["connector", "database", "server_kwargs"]


def test_execution_options_fields():
    # Unchanged fields; confidence and include_errors now default to 0.95 and
    # True instead of None ("use the session's value").
    assert ExecutionOptions().confidence == 0.95
    assert ExecutionOptions().include_errors is True
    assert [field.name for field in dataclasses.fields(ExecutionOptions)] == [
        "accuracy",
        "confidence",
        "include_errors",
        "mode",
        "sample_hint",
        "time_budget_seconds",
        "timeout_seconds",
        "on_contract_violation",
    ]

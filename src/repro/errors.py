"""Exception hierarchy shared by all repro subpackages.

Every error raised by the library derives from :class:`ReproError` so that
applications embedding the middleware can catch a single base class.  Below
it the hierarchy is shaped like PEP 249 (the Python DB-API), because the
public entry point (:mod:`repro.api`) presents the middleware as a database
driver: :class:`InterfaceError` marks misuse of the driver objects
themselves, :class:`DatabaseError` marks everything that went wrong while
processing a statement, and the classic subclasses (:class:`ProgrammingError`,
:class:`OperationalError`, :class:`NotSupportedError`, :class:`DataError`)
partition it the way application frameworks expect.  The pre-existing
layer-specific classes (the SQL substrate, the driver layer, the sampling
subsystem and the middleware) keep their names and are re-parented into the
DB-API branches, so both ``except ParseError`` and ``except ProgrammingError``
keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# DB-API 2.0 (PEP 249) shaped branches
# ---------------------------------------------------------------------------


class InterfaceError(ReproError):
    """Misuse of the driver objects themselves (closed connection, bad cursor
    state, parameter-count mismatches) rather than of the database."""


class DatabaseError(ReproError):
    """Base class for errors raised while processing a statement."""


class ProgrammingError(DatabaseError):
    """The statement itself is wrong: syntax errors, unknown tables or
    columns, unbound or mistyped query parameters."""


class OperationalError(DatabaseError):
    """The statement was fine but the system failed to process it (backend
    driver failures, sample build failures, resource problems)."""


class DataError(DatabaseError):
    """A value could not be processed (bad casts, out-of-range parameters)."""


class NotSupportedError(DatabaseError):
    """The request is valid SQL but outside what this system supports."""


class QueryTimeoutError(OperationalError):
    """The query's hard deadline (``ExecutionOptions.timeout_seconds``)
    expired before it finished.

    Distinct from the *soft* ``time_budget_seconds``: the budget only shapes
    contract-violation handling, while the timeout cooperatively cancels the
    running query at the executor's checkpoints.
    """


class QueryCancelledError(OperationalError):
    """The query was cancelled (``Cursor.cancel()``) while running."""


class PoolTimeoutError(OperationalError):
    """No pooled connection became available within the checkout timeout.

    Raised by :meth:`repro.api.pool.ConnectionPool.checkout` when the pool is
    at ``max_size`` with every connection checked out and none is returned
    before ``checkout_timeout`` elapses.  Retryable by construction: the
    caller can back off and check out again.
    """


class ServerBusyError(OperationalError):
    """The server refused a query at admission control.

    Sent over the wire (and re-raised typed on the client) when the server
    is already running ``max_concurrent_queries`` with a full wait queue, or
    when it is draining for shutdown.  Like :class:`PoolTimeoutError` this is
    a retryable load signal, not an application error.
    """


class ProtocolError(InterfaceError):
    """A malformed or out-of-protocol frame was seen on a server connection.

    Covers undecodable JSON, oversized frames, unknown message types and
    messages violating the expected sequence (e.g. QUERY before HELLO).
    """


class ConfigurationError(ReproError, ValueError):
    """An invalid configuration value was supplied to a library object.

    Subclasses :class:`ValueError` for backward compatibility: these were
    historically raised as bare ``ValueError`` (sample specs, contract
    bounds, sketch precisions), so existing ``except ValueError`` handlers
    keep working while new code can catch the typed hierarchy.
    """


# ---------------------------------------------------------------------------
# SQL substrate
# ---------------------------------------------------------------------------


class SQLError(ProgrammingError):
    """Base class for errors raised by the SQL engine substrate."""


class TokenizeError(SQLError):
    """The SQL text contains characters that cannot be tokenized."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The SQL text is not syntactically valid for the supported subset."""

    def __init__(self, message: str, token: object | None = None) -> None:
        super().__init__(message)
        self.token = token


class ExecutionError(SQLError):
    """A semantically invalid query was executed (unknown column, bad types...)."""


class CatalogError(SQLError):
    """A table or schema referenced by a statement does not exist (or already does)."""


class BindParameterError(ProgrammingError):
    """A query parameter is missing, superfluous or of an unbindable type."""


# ---------------------------------------------------------------------------
# driver layer
# ---------------------------------------------------------------------------


class ConnectorError(OperationalError):
    """A backend driver failed or does not support the requested feature."""


# ---------------------------------------------------------------------------
# sampling subsystem
# ---------------------------------------------------------------------------


class SamplingError(OperationalError):
    """Sample creation or maintenance failed."""


# ---------------------------------------------------------------------------
# middleware
# ---------------------------------------------------------------------------


class RewriteError(ReproError):
    """The AQP rewriter could not produce an approximate form of the query."""


class UnsupportedQueryError(RewriteError, NotSupportedError):
    """The query is outside the class of queries VerdictDB can approximate.

    Such queries are not an application failure: the middleware passes them
    through to the underlying database unchanged.  The exception exists so the
    rewriting pipeline can signal "pass through" explicitly.
    """


class AccuracyContractError(DatabaseError):
    """The estimated error violates the user's high-level accuracy contract.

    Only raised when :class:`repro.api.ExecutionOptions` asks for
    ``on_contract_violation="raise"``; the default behavior re-runs the query
    exactly instead.
    """

    def __init__(self, message: str, estimated_error: float, required_error: float) -> None:
        super().__init__(message)
        self.estimated_error = estimated_error
        self.required_error = required_error


# Historical name of :class:`AccuracyContractError`, kept as an alias.
AccuracyContractViolation = AccuracyContractError

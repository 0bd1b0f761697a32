"""The AQP session: the engine room behind connections, pools and the server.

A :class:`VerdictSession` owns everything one logical client needs — a
connector to the underlying database, the sample builder/maintainer, the
sample planner, the rewriter and its caches (templates by raw text, by
token stream and by analysed shape — the three levels of
:meth:`~VerdictSession.prepare` — facts read from the backend, sample plans,
prepared rewrites).  It mirrors the deployment picture of Figure 1: the
application sends SQL to the session, the session plans samples, rewrites
the query into its parts (one per aggregate kind, Section 2.2), runs them on
the underlying database through the connector under one consistent read,
and hands their rows to the rewrite's
:class:`~repro.core.rewriter.SubsampleFold`, the one place an approximate
answer with error estimates is put together.  A statement the analysis or
the sample planner refuses is passed through unchanged, with their reason;
the rewriter only ever sees statements that approximate.

Per-query settings — confidence, error columns, mode, accuracy contract —
arrive as one :class:`~repro.api.options.ExecutionOptions` per call (the
session's ``default_options`` when omitted); the session keeps no per-query
defaults of its own.  ``session.planner`` is the
:class:`~repro.core.sample_planner.SamplePlanner` built from
``planner_config``, the one place the I/O budget is set.

Two properties shape it:

* **parameter binding below the caches** — :meth:`execute` takes a SQL
  *template* with ``?`` / ``:name`` placeholders plus a parameter set;
  parsing, analysis, sample planning and rewriting all happen on the
  template, so every cache (and the engine's statement/plan caches, which
  see the same placeholder-preserving rewritten text each call) hits across
  parameter values.  A text that inlines its literals instead is turned into
  such a template on first sight (:func:`repro.api.binding.lift_literals`),
  and a later text of the same shape is recognised by its token stream
  without being parsed at all: a query's *shape*, not its text, keys
  everything derived from it;
* **multi-session safety** — several sessions may share one backend engine.
  Sample builds and metadata rebuilds serialize on the connector's
  cross-session lock, and everything the session derives from backend state
  is cached under the backend's version token read at the top of
  :meth:`VerdictSession.execute` (see :mod:`repro.cache`), so a change made
  by *any* session — new samples, DML, schema changes — makes the old
  entries unreachable without anyone having to clear them.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from functools import partial
from collections.abc import Callable, Mapping, Sequence
from typing import Any, NamedTuple

from repro.api.binding import (
    bind_parameters,
    canonicalize_placeholders,
    collect_placeholders,
    lift_literals,
)
from repro.api.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.cache import LRUCache
from repro.connectors.base import Connector
from repro.connectors.builtin import BuiltinConnector
from repro.core.answer import ApproximateResult
from repro.core.flattener import flatten
from repro.core.hac import AccuracyContract
from repro.core.query_info import ColumnOwners, QueryAnalysis, analyze, bind_columns
from repro.core.rewriter import AqpRewriter, PreparedRewrite
from repro.core.sample_planner import PlannerConfig, SamplePlan, SamplePlanner
from repro.errors import (
    AccuracyContractError,
    InterfaceError,
    OperationalError,
    ParseError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.faults import QueryDeadline
from repro.sampling import creators
from repro.sampling.builder import SampleBuilder
from repro.sampling.maintenance import SampleMaintainer
from repro.sampling.metadata import MetadataStore
from repro.sampling.params import SampleInfo, SampleSpec, SamplingPolicyConfig
from repro.sqlengine import parser, sqlast as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.parser import literal_value
from repro.sqlengine.resultset import ResultSet
from repro.sqlengine.tokens import Token, TokenType, tokenize


@dataclass(frozen=True)
class PreparedTemplate:
    """One SQL text, split into its *shape* and this text's constants.

    ``statement`` / ``flattened`` / ``analysis`` are the shape: the text with
    its predicate literals lifted into reserved placeholders
    (:func:`repro.api.binding.lift_literals`), parsed, flattened and analysed
    once and shared by every text that differs only in those literals.
    ``shape_key`` — the lifted statement's rendering — is what everything
    derived from the shape is cached under.  ``constants`` are the lifted
    values of *this* text, merged into the parameters at bind time.

    ``text`` is the caller's text verbatim; ``placeholders``, ``param_style``
    (``"qmark"``, ``"named"`` or None) and ``param_count`` describe only the
    caller's own ``?`` / ``:name`` parameters.  All of it is a pure function
    of the SQL, so instances never go stale.
    """

    text: str
    statement: ast.Statement
    flattened: ast.SelectStatement | None
    analysis: QueryAnalysis | None
    placeholders: tuple = ()
    param_style: str | None = None
    shape_key: str = ""
    constants: Mapping[str, object] = dataclasses.field(default_factory=dict)

    @property
    def param_count(self) -> int:
        return len({node.name for node in self.placeholders})

    @property
    def is_select(self) -> bool:
        return isinstance(self.statement, ast.SelectStatement)

    def bind(self, params: Sequence | Mapping | None) -> Mapping[str, object] | None:
        """Validate ``params`` against this template and return the mapping."""
        bound = bind_parameters(self.placeholders, params, self.param_style)
        if not self.constants:
            return bound
        if bound is None:
            return self.constants
        return {**self.constants, **bound}


class _IndexedShape(NamedTuple):
    """A parameter-free SELECT's shape, filed under its text's token stream.

    ``lifted`` pairs each placeholder name (``__lit0`` …) with the index of
    the literal token whose value it takes; ``kept`` pairs every other
    literal token's index with its value, which a later text of the stream
    must repeat to re-use ``shape``.  Both come from the parser's literal
    token indices and the nodes lifting replaced, never from values: one
    value can stand both lifted and kept.
    """

    lifted: tuple[tuple[str, int], ...]
    kept: tuple[tuple[int, str], ...]
    shape: PreparedTemplate


_LITERAL_TYPES = (TokenType.NUMBER, TokenType.STRING)


def _token_stream(tokens: list[Token]) -> tuple:
    """``tokens`` as ``(type, value)`` pairs with each literal's value masked
    (a NUMBER or STRING token stands as its bare type): equal for texts that
    differ only in literal values, whitespace, comments or keyword case."""
    return tuple(
        [token.type if token.type in _LITERAL_TYPES else token[:2] for token in tokens]
    )


class VerdictSession:
    """Database-agnostic AQP middleware session.

    Args:
        connector: driver to the underlying database.  When omitted, a fresh
            in-process :class:`~repro.sqlengine.engine.Database` is used.
        database: engine to attach a builtin connector to (ignored when
            ``connector`` is given); pass the same engine to several sessions
            to share one database between connections.
        subsample_count: number of subsamples ``b`` carried by newly built
            samples (must be a perfect square so sample joins work).
        planner_config: sample planner configuration (``io_budget``, ...).
        default_options: session-wide default :class:`ExecutionOptions`
            (``confidence``, ``include_errors``, ``mode``, ...).
    """

    def __init__(
        self,
        connector: Connector | None = None,
        database: Database | None = None,
        subsample_count: int = 100,
        planner_config: PlannerConfig | None = None,
        default_options: ExecutionOptions | None = None,
    ) -> None:
        if connector is None:
            connector = BuiltinConnector(database=database)
        self.connector = connector
        self.subsample_count = subsample_count
        self.default_options = default_options or DEFAULT_OPTIONS
        self.metadata = MetadataStore(connector)
        self.sample_builder = SampleBuilder(connector, self.metadata, subsample_count)
        self.sample_maintainer = SampleMaintainer(connector, self.metadata)
        self.planner = SamplePlanner(planner_config)
        # Three levels, all pure functions of the SQL (no version token; the
        # LRU bounds cap memory): raw text -> (shape, this text's constants);
        # the shape index, masked token stream -> the last shape parsed from
        # it (see prepare); shape key -> the parsed / flattened / analysed
        # shape.
        self._template_cache: LRUCache[str, PreparedTemplate] = LRUCache(maxsize=128)
        self._shape_index: LRUCache[tuple, _IndexedShape] = LRUCache(maxsize=128)
        self._shape_cache: LRUCache[str, PreparedTemplate] = LRUCache(maxsize=128)
        # Facts read from the backend — ("rows", table), ("cardinality",
        # table, column) and ("samples",) — sample plans keyed on (shape key,
        # sample hint), a refusal's reason in place of a plan so "no
        # feasible plan" is cached too, and prepared rewrites keyed on (shape key, sample plan,
        # include_errors).  All are filed under the connector.catalog_state()
        # token of the execute() call that computed them, which is their
        # whole staleness story.
        self._fact_cache: LRUCache[tuple, Any] = LRUCache(maxsize=512)
        self._plan_cache: LRUCache[tuple, SamplePlan | str] = LRUCache(maxsize=128)
        self._rewrite_cache: LRUCache[tuple, PreparedRewrite] = LRUCache(maxsize=128)
        self._closed = False
        self.last_rewritten_sql: str | None = None
        self.last_plan: SamplePlan | None = None

    # -- lifecycle -------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, release_backend: bool = True) -> None:
        """Release backend resources (idempotent).

        Closes the connector (for SQLite, its database connection); the
        builtin engine object itself stays usable by other sessions.

        ``release_backend=False`` closes only the session (its caches and
        cursors become unusable) while leaving the backend open — the
        connection pool uses this when recycling one session over an engine
        shared by its siblings.
        """
        if self._closed:
            return
        self._closed = True
        if release_backend:
            self.connector.close()

    def __enter__(self) -> VerdictSession:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("session is closed")

    # -- offline stage: sample preparation ------------------------------------------

    def load_table(self, name: str, columns: Mapping[str, Sequence]) -> None:
        """Load a base table into the underlying database (ETL stand-in)."""
        self._check_open()
        self.connector.load_table(name, columns)

    def create_sample(self, table: str, spec: SampleSpec) -> SampleInfo:
        """Create one sample table for ``table``."""
        self._check_open()
        with self.connector.session_lock:
            info = self.sample_builder.create_sample(table, spec)
        return info

    def create_samples(
        self,
        table: str,
        specs: list[SampleSpec] | None = None,
        ratio: float | None = None,
        policy_config: SamplingPolicyConfig | None = None,
    ) -> list[SampleInfo]:
        """Create samples for ``table`` (defaults to the Appendix F policy)."""
        self._check_open()
        if specs is None and ratio is not None:
            policy_config = policy_config or SamplingPolicyConfig(min_table_rows=0)
            policy_config.default_ratio = ratio
        with self.connector.session_lock:
            infos = self.sample_builder.create_samples(table, specs, policy_config)
        return infos

    def drop_samples(self, table: str) -> None:
        """Drop every sample previously built for ``table``."""
        self._check_open()
        with self.connector.session_lock:
            self.sample_builder.drop_samples_for(table)

    def samples(self, table: str | None = None) -> list[SampleInfo]:
        """List the samples known to the metadata store."""
        self._check_open()
        if table is None:
            return self.metadata.all_samples()
        return self.metadata.samples_for(table)

    def append_data(self, table: str, columns: Mapping[str, Sequence]) -> dict[str, int]:
        """Append a batch of rows and incrementally maintain the samples (App. D).

        ``columns`` maps every column of ``table`` to equally long values.
        The batch is validated as a whole first — a
        :class:`~repro.errors.SamplingError` means nothing changed — and then
        travels as columns (``Connector.append_columns``), so the cost is
        proportional to the batch.  Returns sample table → rows added to it.
        """
        self._check_open()
        with self.connector.session_lock:
            inserted = self.sample_maintainer.append(table, columns)
        return inserted

    # -- online stage: query processing -----------------------------------------------

    def prepare(self, query: str) -> PreparedTemplate:
        """Parse, canonicalize, lift and analyze a SQL text, memoized at three levels.

        1. By raw text: a repeated text costs one dictionary lookup.
        2. By token stream: a text is tokenized (not parsed) and looked up
           in the shape index by its stream, literal values masked.  A hit
           whose kept literals equal the entry's — only the lifted literals
           differ — takes the shape and converts this text's lifted literal
           tokens into its constants.  Nothing is parsed.
        3. By shape key: otherwise the tokens are parsed once and their
           predicate literals are lifted; the lifted statement's rendering
           is the *shape key* under which the flattened / analysed statement
           is filed, and the text's stream enters the index (replacing an
           entry with other kept literals).

        A text that differs from an earlier one only in its lifted literals
        therefore re-uses all of it — and, being executed as the same
        placeholder-carrying statement, every cache below (rewrites, the
        engine's statements and plans) as well.  Texts with their own ``?`` /
        ``:name`` placeholders and non-SELECT statements skip the index.
        """
        self._check_open()
        cached = self._template_cache.get(query)
        if cached is not None:
            self.connector.record_stat("analysis_cache_hits")
            return cached
        tokens = tokenize(query)
        stream = _token_stream(tokens)
        indexed = self._shape_index.get(stream)
        if indexed is not None and all(tokens[i].value == value for i, value in indexed.kept):
            self.connector.record_stat("analysis_cache_hits")
            shape = indexed.shape
            template = PreparedTemplate(
                query, shape.statement, shape.flattened, shape.analysis,
                shape_key=shape.shape_key,
                constants={name: literal_value(tokens[i]) for name, i in indexed.lifted},
            )
            self._template_cache.put(query, template)
            return template
        literal_indices: dict[int, int] = {}
        try:
            statement = canonicalize_placeholders(parser.parse(tokens, literal_indices))
            placeholders = tuple(collect_placeholders(statement))
            style = None
            if placeholders:
                # canonicalize_placeholders rejected mixed styles, so the first
                # placeholder's origin decides: canonical names p<i> come from
                # positional '?' templates (index is set), others were named.
                style = "qmark" if placeholders[0].index is not None else "named"
            if not isinstance(statement, ast.SelectStatement):
                # DDL/DML has no shape worth sharing: filed under its text only.
                self.connector.record_stat("analysis_cache_misses")
                template = PreparedTemplate(query, statement, None, None, placeholders, style)
            else:
                lifted: list[ast.Literal] = []
                statement, constants = lift_literals(statement, lifted)
                shape_key = statement.to_sql()
                shape = self._shape_cache.get(shape_key)
                if shape is None:
                    self.connector.record_stat("analysis_cache_misses")
                    flattened = flatten(statement)
                    shape = PreparedTemplate(
                        shape_key, statement, flattened, analyze(flattened), shape_key=shape_key
                    )
                    self._shape_cache.put(shape_key, shape)
                else:
                    self.connector.record_stat("analysis_cache_hits")
                # The caller's placeholders come from this text's own parse: two
                # texts may share a shape yet spell a parameter ``?`` and ``:p0``.
                template = PreparedTemplate(
                    query, shape.statement, shape.flattened, shape.analysis,
                    placeholders, style, shape_key, constants,
                )
                if not placeholders:
                    lifted_at = [literal_indices[id(literal)] for literal in lifted]
                    kept = tuple(
                        (i, token.value) for i, token in enumerate(tokens)
                        if token.type in _LITERAL_TYPES and i not in lifted_at
                    )
                    self._shape_index.put(
                        stream, _IndexedShape(tuple(zip(constants, lifted_at)), kept, shape)
                    )
        except RecursionError:
            # The parser loops over a long AND/OR chain; the walks here recurse per term.
            raise ParseError("statement nests too deeply") from None
        self._template_cache.put(query, template)
        return template

    def execute(
        self,
        query: str | PreparedTemplate,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
        deadline: QueryDeadline | None = None,
    ) -> ApproximateResult:
        """Run one statement (approximately when possible) with bound parameters.

        Args:
            query: SQL template text, or a :class:`PreparedTemplate` from
                :meth:`prepare`.
            params: values for the template's ``?`` / ``:name`` placeholders
                (sequence / mapping respectively).
            options: per-call execution options; defaults to the session's
                ``default_options``.
            deadline: cooperative deadline/cancellation token; created
                automatically from ``options.timeout_seconds`` when absent.
                Expiry (or a cross-thread cancel) raises
                :class:`~repro.errors.QueryTimeoutError` /
                :class:`~repro.errors.QueryCancelledError`.
        """
        self._check_open()
        options = options or self.default_options
        started = time.perf_counter()
        if options.timeout_seconds is not None:
            if deadline is None:
                deadline = QueryDeadline(options.timeout_seconds)
            else:
                # A cursor-created cancellation token arrives without an
                # expiry; the per-call options supply it here.
                deadline.arm(options.timeout_seconds)
        template = query if isinstance(query, PreparedTemplate) else self.prepare(query)
        bound = template.bind(params)
        # The one staleness rule: every backend-derived value this call reads
        # or caches is looked up and filed under the version observed here,
        # *before* any of it is computed.
        token = self.connector.catalog_state()

        statement = template.statement
        if not isinstance(statement, ast.SelectStatement):
            result = self.connector.execute(statement, bound, deadline=deadline)
            return self._exact_result(result, started)

        if options.mode == "exact":
            return self._execute_exact_select(
                statement, started, "exact mode requested", bound, deadline
            )

        # Refused by the statement (analysis) or by the samples (planner).
        analysis = template.analysis
        plan = analysis.refusal or self._shape_plan(template, token, options.sample_hint)
        if isinstance(plan, str):
            return self._execute_exact_select(statement, started, plan, bound, deadline)

        try:
            result = self._execute_approximate(
                template.flattened, analysis, plan, options, token,
                template.shape_key, bound, deadline,
            )
        except (QueryTimeoutError, QueryCancelledError):
            raise  # a dead deadline must not trigger a second, exact attempt
        except OperationalError as error:
            # Degradation ladder: an *operational* failure in the approximate
            # path (backend I/O error, a sample table lost mid-flight) falls
            # back to exact execution against the base tables, so the caller
            # still gets a correct answer — or the exact path's own typed
            # error, never a silent wrong result.
            self.connector.record_stat("approx_exec_fallbacks")
            return self._execute_exact_select(
                statement,
                started,
                f"approximate execution failed ({error}); degraded to exact",
                bound,
                deadline,
            )
        result.elapsed_seconds = time.perf_counter() - started

        if options.accuracy is not None:
            result = self._enforce_contract(result, statement, options, started, bound, deadline)
        return result

    def sql(
        self,
        query: str,
        accuracy: float | None = None,
        include_errors: bool | None = None,
        params: Sequence | Mapping | None = None,
        options: ExecutionOptions | None = None,
    ) -> ApproximateResult:
        """Run a query approximately (exactly when approximation is not possible).

        The historical entry point: ``accuracy`` / ``include_errors`` are
        keyword shorthands merged over ``options``.

        Args:
            query: the SQL text the user would have sent to the database.
            accuracy: optional HAC minimum accuracy (e.g. 0.99); when the
                estimated error violates it the query is re-run exactly.
            include_errors: override the options' error-column setting.
            params: optional placeholder values (see :meth:`execute`).
            options: base execution options the shorthands are merged onto.
        """
        merged = (options or self.default_options).merged(
            accuracy=accuracy, include_errors=include_errors
        )
        return self.execute(query, params, merged)

    def execute_exact(
        self, query: str, params: Sequence | Mapping | None = None
    ) -> ResultSet:
        """Run a query exactly against the underlying database (no rewriting)."""
        self._check_open()
        template = self.prepare(query)
        return self.connector.execute(template.statement, template.bind(params))

    # -- internals ---------------------------------------------------------------------

    def _enforce_contract(
        self,
        result: ApproximateResult,
        statement: ast.SelectStatement,
        options: ExecutionOptions,
        started: float,
        params: Mapping | None,
        deadline: QueryDeadline | None = None,
    ) -> ApproximateResult:
        """Apply the accuracy contract to an approximate result."""
        contract = AccuracyContract(
            min_accuracy=options.accuracy, confidence=options.confidence
        )
        if contract.is_satisfied_by(result):
            return result
        if options.on_contract_violation == "raise":
            raise AccuracyContractError(
                f"estimated relative error {result.max_relative_error():.4f} exceeds "
                f"the contract's {contract.max_relative_error:.4f}",
                estimated_error=result.max_relative_error(),
                required_error=contract.max_relative_error,
            )
        elapsed = time.perf_counter() - started
        budget_exhausted = (
            options.time_budget_seconds is not None
            and elapsed >= options.time_budget_seconds
        )
        if options.on_contract_violation == "keep" or budget_exhausted:
            if budget_exhausted and options.on_contract_violation != "keep":
                # A "rerun" request degraded to "keep" because the exact
                # re-run would start past the time budget; the flag lets
                # callers distinguish this from an explicit "keep".
                result.budget_degraded = True
            result.plan_description = (
                f"{result.plan_description} "
                "(accuracy contract violated; approximate answer kept)"
            )
            result.elapsed_seconds = elapsed
            return result
        # Exact re-run.  Timing note: ``started`` is the start of the whole
        # call, so the reported elapsed_seconds includes the approximate
        # attempt that failed the contract — the latency the caller actually
        # experienced — not just the fallback execution.
        return self._execute_exact_select(
            statement, started, "accuracy contract violated; re-running exactly",
            params, deadline
        )

    def _fact(self, key: tuple, token: object, read: Callable[[], Any]) -> Any:
        """One backend-derived fact, read at most once per backend version."""
        value = self._fact_cache.get(key, token)
        if value is None:
            value = read()
            self._fact_cache.put(key, value, token)
        return value

    def _exact_result(self, result: ResultSet, started: float) -> ApproximateResult:
        return ApproximateResult(
            result, is_exact=True, elapsed_seconds=time.perf_counter() - started
        )

    def _execute_exact_select(
        self,
        statement: ast.SelectStatement,
        started: float,
        reason: str,
        params: Mapping | None = None,
        deadline: QueryDeadline | None = None,
    ) -> ApproximateResult:
        result = self.connector.execute(statement, params, deadline=deadline)
        answer = self._exact_result(result, started)
        answer.plan_description = f"exact execution ({reason})"
        return answer

    def _shape_plan(
        self, template: PreparedTemplate, token: object, sample_hint: str | None = None
    ) -> SamplePlan | str:
        """The shape's sample plan, chosen at most once per backend version.

        Everything the planner reads — samples, row counts, cardinalities —
        is a fact filed under the same token, so the plan is too; a shape
        with no feasible plan caches that verdict, its reason, as well.
        """
        key = (template.shape_key, sample_hint)
        plan = self._plan_cache.get(key, token)
        if plan is None:
            plan = self._plan(template.analysis, token, sample_hint)
            self._plan_cache.put(key, plan, token)
        self.last_plan = plan if isinstance(plan, SamplePlan) else None
        return plan

    def _plan(
        self, analysis: QueryAnalysis, token: object, sample_hint: str | None = None
    ) -> SamplePlan | str:
        """The sample plan, or why there is none (``no feasible sample plan: ...``)."""
        samples = self._fact(("samples",), token, self.metadata.all_samples)
        samples_by_table: dict[str, list[SampleInfo]] = {}
        table_rows: dict[str, int] = {}
        columns: dict[str, list[str]] = {}
        for table in analysis.base_tables:
            key = table.name.lower()
            if key in samples_by_table:
                continue
            candidates = [
                info for info in samples if info.original_table.lower() == key
            ]
            if sample_hint is not None:
                hinted = sample_hint.lower()
                candidates = [
                    info for info in candidates if info.sample_table.lower() == hinted
                ]
            samples_by_table[key] = [self._with_census(info, token) for info in candidates]
            table_rows[key] = self._fact(
                ("rows", key), token, partial(self.connector.row_count, table.name)
            )
            columns[key] = self._fact(
                ("columns", key), token, partial(self.connector.column_names, table.name)
            )
        owners = bind_columns(analysis.statement, columns)
        expected_groups = self._estimate_groups(analysis, owners, token)
        plan = self.planner.plan(
            analysis, samples_by_table, table_rows, expected_groups, owners=owners
        )
        if plan is None:
            hint = "" if sample_hint is None else f" using sample hint {sample_hint!r}"
            return f"no feasible sample plan{hint}: {self.planner.refusal()}"
        return plan

    def _estimate_groups(
        self, analysis: QueryAnalysis, owners: ColumnOwners, token: object
    ) -> int:
        """Estimate the number of output groups from column cardinalities.

        For nested aggregate queries the *derived table's* grouping columns
        are what determine how many sample rows each estimated group gets, so
        they are included in the estimate (this is what makes queries like
        per-customer / per-order roll-ups fall back to exact execution when
        the sample cannot support that many groups).
        """
        group_exprs = list(analysis.statement.group_by)
        for derived in analysis.derived_tables:
            group_exprs.extend(derived.query.group_by)
        estimate = 1
        for expr in group_exprs:
            owner = owners.get(id(expr)) if isinstance(expr, ast.ColumnRef) else None
            if owner is None:
                continue
            try:
                cardinality = self._fact(
                    ("cardinality", owner, expr.name.lower()),
                    token,
                    partial(self.connector.column_cardinality, owner, expr.name),
                )
                estimate *= max(1, cardinality)
            except (ReproError, KeyError):  # pragma: no cover - defensive: missing column
                # Cardinality is a best-effort planning hint; a backend
                # failure or a dropped column degrades to the neutral
                # estimate instead of failing the plan.
                continue
        return estimate

    def _with_census(self, info: SampleInfo, token: object) -> SampleInfo:
        """A hashed sample's info with its ``census_rows`` read (a fact)."""
        if info.sample_type != "hashed":
            return info

        def read() -> int:
            statement = creators.census_count_statement(info.sample_table)
            return int(float(self.connector.execute(statement).scalar()))

        census_rows = self._fact(("census", info.sample_table.lower()), token, read)
        return dataclasses.replace(info, census_rows=census_rows) if census_rows else info

    # -- approximate execution -----------------------------------------------------------

    def _execute_approximate(
        self,
        statement: ast.SelectStatement,
        analysis: QueryAnalysis,
        plan: SamplePlan,
        options: ExecutionOptions,
        token: object,
        shape_key: str | None = None,
        params: Mapping | None = None,
        deadline: QueryDeadline | None = None,
    ) -> ApproximateResult:
        prepared = self._prepare_rewrite(
            statement, analysis, plan, options.include_errors, shape_key, token
        )
        output = prepared.output
        # Execute the pre-rendered SQL text: on cache hits this skips the
        # per-call AST-to-SQL rendering entirely, and because the text still
        # carries the (named) placeholders it is byte-identical across
        # parameter sets — the engine's statement/plan caches hit too.  The
        # parts run under one consistent-read block so a concurrent session's
        # DML cannot land between them (one answer must not mix two data
        # versions); the fold then makes their rows one answer.
        with self.connector.consistent_read():
            parts = [self.connector.execute(sql, params, deadline=deadline) for sql in prepared.sql]
            answer = output.fold.apply(
                *parts, params=params, subquery=partial(self._scalar_subquery, params, deadline)
            )
        self.last_rewritten_sql = prepared.text
        return ApproximateResult(
            answer,
            group_columns=output.group_columns,
            estimate_columns=output.estimate_columns,
            confidence=options.confidence,
            is_exact=False,
            rewritten_sql=self.last_rewritten_sql,
            plan_description=plan.describe(),
        )

    def _scalar_subquery(
        self,
        params: Mapping | None,
        deadline: QueryDeadline | None,
        statement: ast.SelectStatement,
    ) -> object:
        """A scalar subquery of an approximate statement's tail, run exactly."""
        return self.connector.execute(statement, params, deadline=deadline).scalar()

    def _prepare_rewrite(
        self,
        statement: ast.SelectStatement,
        analysis: QueryAnalysis,
        plan: SamplePlan,
        include_errors: bool,
        shape_key: str | None,
        token: object,
    ) -> PreparedRewrite:
        """Rewrite a query and render its parts, reusing the per-plan rewrite cache."""
        key: tuple | None = None
        if shape_key is not None:
            key = (shape_key, plan.signature, include_errors)
            cached = self._rewrite_cache.get(key, token)
            if cached is not None:
                self.connector.record_stat("rewrite_cache_hits")
                return cached
            self.connector.record_stat("rewrite_cache_misses")
        output = AqpRewriter(include_errors=include_errors).rewrite(statement, analysis, plan)
        prepared = PreparedRewrite(
            output, [self.connector.syntax_changer.to_sql(part) for part in output.parts]
        )
        if key is not None:
            self._rewrite_cache.put(key, prepared, token)
        return prepared

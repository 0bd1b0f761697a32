"""Sample planning (Appendix E): choose which samples answer a query.

A *sample plan* maps every base table of a query either to one of its sample
tables or to the base table itself.  The planner enumerates candidate plans,
discards the infeasible ones (I/O budget, join compatibility, count-distinct
support, rows per group), scores the rest and returns the best one.  When no
plan with sampling is feasible the planner returns ``None`` and the
middleware falls back to exact execution.

The score alone does not pick the plan of a join.  The query's *fact table*
— its largest base table by row count — is read from a sample whenever any
feasible plan samples it: otherwise a slightly higher-scoring sample of a
dimension table (e.g. ``orders``) would be joined with every row of the fact
table (``lineitem``), reading almost all of the data for about the same
number of joined rows.  Only when no feasible plan samples the fact table is
the best-scoring plan kept; ``SamplePlan.notes`` records which case applied.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.query_info import ColumnOwners, QueryAnalysis
from repro.sampling.params import SampleInfo
from repro.sqlengine import sqlast as ast


@dataclass
class PlannerConfig:
    """Tunables of the sample planner.

    Attributes:
        io_budget: target fraction of a large table's rows a sample may hold
            (the paper's default I/O budget is 2%).  Only *uniform* samples
            are held to it: one more than 1.5x over the budget is rejected.
            Stratified and hashed samples and unsampled (base) tables are
            exempt; what keeps a join from reading its largest table in full
            is the planner's fact-table rule (see the module docstring), not
            this budget.
        large_table_rows: tables below this size are exempt from the budget
            (the paper uses 10M rows; scaled down here).
        k_best: number of per-table candidates kept when the exhaustive
            product would be too large (Appendix E.2; default 10).
        stratified_advantage: score multiplier when a stratified sample's
            column set covers the query's grouping attributes.
        hashed_join_advantage: score multiplier when two hashed samples are
            joined on their key (universe join).
        max_candidate_plans: exhaustive enumeration limit before pruning.
        min_rows_per_group: AQP is declined when the chosen samples would
            leave fewer than this many rows per output group on average.
    """

    io_budget: float = 0.02
    large_table_rows: int = 100_000
    k_best: int = 10
    stratified_advantage: float = 2.0
    hashed_join_advantage: float = 1.5
    max_candidate_plans: int = 4096
    min_rows_per_group: int = 20


@dataclass
class SamplePlan:
    """A chosen assignment of samples to the base tables of one query."""

    assignments: dict[str, SampleInfo | None]
    score: float = 0.0
    io_rows: int = 0
    notes: list[str] = field(default_factory=list)

    def sample_for(self, table_name: str) -> SampleInfo | None:
        return self.assignments.get(table_name.lower())

    @property
    def uses_sampling(self) -> bool:
        return any(info is not None for info in self.assignments.values())

    @property
    def sampled_tables(self) -> list[SampleInfo]:
        return [info for info in self.assignments.values() if info is not None]

    @cached_property
    def signature(self) -> tuple:
        """Stable identity of the plan, for rewrite-cache keys.

        Two plans that assign the same sample table (or lack of one) to every
        base table produce the same rewritten SQL, so the assignment map is
        the whole identity.  Sample *metadata* changes (ratios after an
        append) move the backend version token the cached rewrite is filed
        under.  Computed once: a plan is not changed after planning.
        """
        return tuple(
            sorted(
                (table, info.sample_table if info is not None else None)
                for table, info in self.assignments.items()
            )
        )

    def describe(self) -> str:
        """The per-table assignments, then the planner's notes after ``" | "``."""
        return self._description

    @cached_property
    def _description(self) -> str:
        parts = []
        for table, info in self.assignments.items():
            if info is None:
                parts.append(f"{table}: base table")
            else:
                columns = ",".join(info.columns) if info.columns else "-"
                parts.append(
                    f"{table}: {info.sample_type} sample ({columns}, "
                    f"ratio={info.effective_ratio:.4f})"
                )
        return " | ".join(["; ".join(parts), *self.notes])


@dataclass(frozen=True)
class _JoinEdge:
    """An equi-join between two base tables with the per-side key columns."""

    left_table: str
    right_table: str
    left_columns: tuple[str, ...]
    right_columns: tuple[str, ...]


class SamplePlanner:
    """Chooses the best combination of samples for a query (Appendix E)."""

    def __init__(self, config: PlannerConfig | None = None) -> None:
        self.config = config or PlannerConfig()

    def plan(
        self,
        analysis: QueryAnalysis,
        samples_by_table: dict[str, list[SampleInfo]],
        table_rows: dict[str, int],
        expected_groups: int | None = None,
        *,
        owners: ColumnOwners,
    ) -> SamplePlan | None:
        """Return the best feasible plan, or None when AQP should not be used.

        For a join, "best" is the highest-scoring plan among those that
        sample the fact table, and the highest-scoring plan overall only when
        none of them is feasible (see the module docstring).

        Args:
            analysis: output of :func:`repro.core.query_info.analyze`.
            samples_by_table: available samples keyed by lower-cased table name.
            table_rows: base-table row counts keyed by lower-cased table name.
            expected_groups: estimated number of output groups (used to decline
                AQP for very high-cardinality group-bys, as in tq-3/8/15).
            owners: the owning base table of each column of the analysed
                statement (:func:`repro.core.query_info.bind_columns`).
        """
        tables = sorted({table.name.lower() for table in analysis.base_tables})
        join_edges = _join_edges(analysis, owners)
        distinct_columns = _owned(
            owners, [(agg.node.args or [None])[0] for agg in analysis.count_distinct]
        )
        group_keys = _owned(owners, analysis.statement.group_by)

        candidates: dict[str, list[SampleInfo | None]] = {}
        for table in tables:
            options: list[SampleInfo | None] = [None]
            options.extend(samples_by_table.get(table, []))
            candidates[table] = options

        combination_count = math.prod(len(options) for options in candidates.values())
        if combination_count > self.config.max_candidate_plans:
            for table in tables:
                candidates[table] = self._k_best(candidates[table])

        # The fact table: the largest base table of a join (ties go to the
        # first name in sorted order).  A single-table query has none.
        fact_table = (
            max(tables, key=lambda table: table_rows.get(table, 0)) if len(tables) > 1 else None
        )
        best: SamplePlan | None = None
        best_fact: SamplePlan | None = None
        fact_rejections: list[str] = []
        for combination in itertools.product(*(candidates[table] for table in tables)):
            assignment = dict(zip(tables, combination))
            samples_fact = fact_table is not None and assignment[fact_table] is not None
            plan = self._evaluate(
                assignment, table_rows, join_edges, distinct_columns, group_keys, expected_groups
            )
            if isinstance(plan, str):
                if samples_fact and plan not in fact_rejections:
                    fact_rejections.append(plan)
                continue
            if not plan.uses_sampling:
                continue
            if best is None or plan.score > best.score:
                best = plan
            if samples_fact and (best_fact is None or plan.score > best_fact.score):
                best_fact = plan
        if fact_table is None or best is None:
            return best
        if best_fact is not None:
            best_fact.notes.append(f"fact table {fact_table} read from a sample")
            return best_fact
        reason = "; ".join(fact_rejections) or f"no sample of {fact_table}"
        best.notes.append(
            f"fact table {fact_table} read in full: no feasible plan samples it ({reason})"
        )
        return best

    # -- candidate pruning --------------------------------------------------------

    def _k_best(self, options: list[SampleInfo | None]) -> list[SampleInfo | None]:
        """Keep the base table plus the k samples with the largest ratios."""
        samples = [option for option in options if option is not None]
        samples.sort(key=lambda info: info.effective_ratio, reverse=True)
        kept: list[SampleInfo | None] = [None]
        kept.extend(samples[: self.config.k_best])
        return kept

    # -- evaluation ----------------------------------------------------------------

    def _evaluate(
        self,
        assignment: dict[str, SampleInfo | None],
        table_rows: dict[str, int],
        join_edges: list[_JoinEdge],
        distinct_columns: list[tuple[str | None, str]],
        group_keys: list[tuple[str | None, str]],
        expected_groups: int | None,
    ) -> SamplePlan | str:
        """The scored plan of one assignment, or why the assignment is infeasible."""
        plan = SamplePlan(assignments=dict(assignment))

        # Per-table I/O budget for large tables.
        for table, info in assignment.items():
            original_rows = table_rows.get(table, info.original_rows if info else 0)
            used_rows = info.sample_rows if info is not None else original_rows
            plan.io_rows += used_rows
            if info is None:
                continue
            if original_rows >= self.config.large_table_rows:
                budget_rows = max(1, int(self.config.io_budget * original_rows))
                if used_rows > budget_rows * 1.5 and info.sample_type == "uniform":
                    # Uniform samples far above the budget are rejected;
                    # stratified samples are allowed a larger footprint
                    # (the paper grants them up to 80% of the budget pool).
                    return "uniform sample over the I/O budget"

        # Join compatibility (Section 5.1): when both sides of a join are
        # sampled, both must be hashed (universe) samples on the join key.
        join_bonus = 1.0
        for edge in join_edges:
            left = assignment.get(edge.left_table)
            right = assignment.get(edge.right_table)
            if left is None or right is None:
                continue
            left_ok = left.sample_type == "hashed" and left.matches_columns(edge.left_columns)
            right_ok = right.sample_type == "hashed" and right.matches_columns(edge.right_columns)
            if not (left_ok and right_ok):
                return "samples joined without a universe join"
            join_bonus *= self.config.hashed_join_advantage
            plan.notes.append(
                f"universe join on {edge.left_table}.{','.join(edge.left_columns)}"
            )

        # Sampling more than one relation of a join is only sound when every
        # pair of sampled relations is joined through matching hashed
        # (universe) samples; without a certified edge (``_join_edges``
        # certifies qualified column pairs only) the combination is rejected
        # and a single-sample plan wins.
        sampled_names = [table for table, info in assignment.items() if info is not None]
        if len(sampled_names) > 1:
            certified = {
                frozenset((edge.left_table, edge.right_table)) for edge in join_edges
            }
            for left_name, right_name in itertools.combinations(sampled_names, 2):
                if frozenset((left_name, right_name)) not in certified:
                    return "samples joined without a universe join"

        # count(DISTINCT) is scaled by a hashed sample's ratio: a sampled plan
        # reads the column's owner from a sample hashed on that column, and a
        # column without an owner allows no sampled plan.
        for owner, column in distinct_columns:
            info = assignment.get(owner) if owner is not None else None
            if info is None or info.sample_type != "hashed" or not info.matches_columns((column,)):
                return "count(DISTINCT) needs a hashed sample on its column"

        # Score: sqrt of the effective sampling ratio, with advantage factors.
        ratios = []
        advantage = join_bonus
        for table, info in assignment.items():
            if info is None:
                continue
            ratios.append(info.effective_ratio)
            # A stratified sample covers the group-by when every grouping
            # column is bound to its own table and is one of its strata.
            if (
                info.sample_type == "stratified"
                and group_keys
                and all(owner == table for owner, _name in group_keys)
                and info.covers_columns(tuple(name for _owner, name in group_keys))
            ):
                advantage *= self.config.stratified_advantage
                plan.notes.append(f"stratified sample covers group-by on {table}")
        if ratios:
            hashed_join = any("universe join" in note for note in plan.notes)
            effective = min(ratios) if hashed_join else float(sum(ratios) / len(ratios))
            plan.score = math.sqrt(effective) * advantage
        else:
            plan.score = 0.0

        # High-cardinality group-by check: decline AQP when the samples cannot
        # support the number of output groups (tq-3, tq-8, tq-15 behaviour).
        if expected_groups is not None and plan.uses_sampling:
            sampled_rows = min(info.sample_rows for info in plan.sampled_tables)
            if expected_groups * self.config.min_rows_per_group > sampled_rows:
                return (
                    f"fewer than {self.config.min_rows_per_group} sample rows "
                    "per expected group"
                )
        return plan


# ---------------------------------------------------------------------------
# query-shape helpers
# ---------------------------------------------------------------------------


def _join_edges(analysis: QueryAnalysis, owners: ColumnOwners) -> list[_JoinEdge]:
    """Extract equi-join edges between base tables from the FROM tree."""
    edges: list[_JoinEdge] = []

    def visit(relation: ast.Relation | None) -> None:
        if not isinstance(relation, ast.Join):
            return
        visit(relation.left)
        visit(relation.right)
        pairs: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
        for conjunct in ast.flatten_and(relation.condition) if relation.condition else ():
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            left, right = conjunct.left, conjunct.right
            if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
                continue
            # Unqualified pairs stay uncertified: certified, tq-8's intervals widen past their gate.
            if left.table is None or right.table is None:
                continue
            left_table, right_table = owners.get(id(left)), owners.get(id(right))
            if left_table is None or right_table is None or left_table == right_table:
                continue
            columns = pairs.setdefault((left_table, right_table), ([], []))
            columns[0].append(left.name)
            columns[1].append(right.name)
        edges.extend(
            _JoinEdge(left_table, right_table, tuple(left_columns), tuple(right_columns))
            for (left_table, right_table), (left_columns, right_columns) in pairs.items()
        )

    visit(analysis.statement.from_relation)
    return edges


def _owned(
    owners: ColumnOwners, expressions: Sequence[ast.Expression | None]
) -> list[tuple[str | None, str]]:
    """Each expression as (owning base table, column name); anything but a
    column has no owner."""
    return [
        (owners.get(id(expr)), expr.name) if isinstance(expr, ast.ColumnRef) else (None, "")
        for expr in expressions
    ]

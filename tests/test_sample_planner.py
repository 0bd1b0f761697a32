"""The sample planner's fact-table rule (``SamplePlanner.plan``).

A join reads its largest base table from a sample whenever any feasible plan
samples it; only when none does is the best-scoring plan kept.  The unit
tests use synthetic ``SampleInfo`` records with the shapes of the e2e
benchmark's samples (scale factor 5: lineitem 300 k rows, orders 75 k); the
rest run the benchmark's own data and statements, among them the interval
calibration gate of every approximately answered shape.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro import ExecutionOptions
from repro.core.query_info import analyze, bind_columns
from repro.core.sample_planner import PlannerConfig, SamplePlanner
from repro.sampling.params import SampleInfo
from repro.sqlengine.parser import parse_select

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from e2e import build, check, loadgen, queries  # noqa: E402  (the benchmark's data and statements)

ROWS = {"lineitem": 300_000, "orders": 75_000}
COLUMNS = {
    "lineitem": ["l_orderkey", "l_extendedprice", "l_shipmode"],
    "orders": ["o_orderkey", "o_orderpriority"],
}

JOIN = (
    "SELECT o_orderpriority, sum(l_extendedprice) AS revenue "
    "FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey "
    "GROUP BY o_orderpriority"
)


def sample(table: str, sample_type: str, columns: tuple, sample_rows: int) -> SampleInfo:
    return SampleInfo(
        original_table=table,
        sample_table=f"{table}_{sample_type}_{'_'.join(columns) or 'all'}",
        sample_type=sample_type,
        columns=columns,
        ratio=0.02,
        original_rows=ROWS.get(table, 100_000),
        sample_rows=sample_rows,
    )


# The benchmark's two stratified samples: orders' scores higher (0.1685
# against 0.1604) because its strata leave it a larger effective ratio.
LINEITEM_STRATIFIED = sample("lineitem", "stratified", ("l_shipmode",), 7_714)
ORDERS_STRATIFIED = sample("orders", "stratified", ("o_orderpriority",), 2_130)


def planner() -> SamplePlanner:
    return SamplePlanner(PlannerConfig(io_budget=0.1, large_table_rows=5_000))


def plan_join(samples_by_table, expected_groups=5, text=JOIN, rows=ROWS):
    analysis = analyze(parse_select(text))
    owners = bind_columns(analysis.statement, COLUMNS)
    return planner().plan(analysis, samples_by_table, rows, expected_groups, owners=owners)


class TestFactTableRule:
    def test_fact_table_sampled_even_when_a_dimension_sample_scores_higher(self):
        dimension_only = plan_join({"lineitem": [], "orders": [ORDERS_STRATIFIED]})
        plan = plan_join({"lineitem": [LINEITEM_STRATIFIED], "orders": [ORDERS_STRATIFIED]})
        assert plan.sample_for("lineitem") is LINEITEM_STRATIFIED
        assert plan.sample_for("orders") is None
        assert dimension_only.score > plan.score  # the rule, not the score, decided
        assert plan.notes == ["fact table lineitem read from a sample"]
        assert plan.describe().endswith(" | fact table lineitem read from a sample")

    def test_falls_back_when_the_group_support_check_declines_every_fact_plan(self):
        thin = sample("lineitem", "stratified", ("l_shipmode",), 400)
        # 25 groups x 20 rows: the 400-row lineitem sample is declined, the
        # 2 130-row orders sample is not.
        plan = plan_join({"lineitem": [thin], "orders": [ORDERS_STRATIFIED]}, expected_groups=25)
        assert plan.sample_for("orders") is ORDERS_STRATIFIED
        assert plan.sample_for("lineitem") is None
        note = plan.notes[-1]
        assert note.startswith("fact table lineitem read in full: no feasible plan samples it (")
        assert "fewer than 20 sample rows per expected group" in note

    def test_falls_back_when_the_fact_table_has_no_sample(self):
        plan = plan_join({"lineitem": [], "orders": [ORDERS_STRATIFIED]})
        assert plan.sample_for("orders") is ORDERS_STRATIFIED
        assert plan.notes[-1] == (
            "fact table lineitem read in full: no feasible plan samples it "
            "(no sample of lineitem)"
        )

    def test_no_plan_at_all_is_still_none(self):
        assert plan_join({"lineitem": [], "orders": []}) is None

    def test_sample_hint_naming_a_dimension_sample_is_honoured(self):
        dataset = build.generate(1, build.QUICK.scale_factor)
        database, connection = build.build_engine(dataset)
        try:
            session = connection.session
            (hinted,) = [
                info for info in session.samples("orders") if info.sample_type == "stratified"
            ]
            result = session.execute(
                queries.TPCH_QUERIES["tq-8"][1],
                options=ExecutionOptions(sample_hint=hinted.sample_table),
            )
            assert not result.is_exact
            assert session.last_plan.sampled_tables == [hinted]
            assert result.plan_description.endswith(
                "fact table lineitem read in full: no feasible plan samples it "
                "(no sample of lineitem)"
            )
        finally:
            connection.close()
            database.close()

    def test_single_table_queries_are_unchanged(self):
        uniform = sample("lineitem", "uniform", (), 6_000)
        text = "SELECT l_shipmode, count(*) AS c FROM lineitem GROUP BY l_shipmode"
        plan = plan_join(
            {"lineitem": [uniform, LINEITEM_STRATIFIED]}, expected_groups=7, text=text
        )
        # The highest-scoring plan (stratified on the group-by), no fact note.
        assert plan.sample_for("lineitem") is LINEITEM_STRATIFIED
        assert plan.notes == ["stratified sample covers group-by on lineitem"]

    def test_a_tie_on_row_count_is_resolved_deterministically(self):
        rows = {"lineitem": 75_000, "orders": 75_000}
        samples = {"lineitem": [LINEITEM_STRATIFIED], "orders": [ORDERS_STRATIFIED]}
        swapped = (
            "SELECT o_orderpriority, sum(l_extendedprice) AS revenue "
            "FROM orders INNER JOIN lineitem ON o_orderkey = l_orderkey "
            "GROUP BY o_orderpriority"
        )
        plans = [
            plan_join(samples, text=text, rows=dict(ordering))
            for text in (JOIN, swapped)
            for ordering in (rows.items(), reversed(rows.items()))
        ]
        # Equal sizes: the first table name in sorted order is the fact table,
        # whatever the FROM order or the order of the row counts.
        for plan in plans:
            assert plan.sample_for("lineitem") is LINEITEM_STRATIFIED
            assert plan.notes == ["fact table lineitem read from a sample"]


# ---------------------------------------------------------------------------
# the benchmark's statements
# ---------------------------------------------------------------------------

#: ``plan_description`` of the 18 TPC-H and 6 dashboard texts at seed 1, scale
#: factor 5 (``build.FULL``), recorded at the commit before the fact-table rule;
#: tq-16's is exact since its unqualified ``count(DISTINCT ps_suppkey)`` is
#: bound to partsupp, which has no sample hashed on that column.
PARENT_PLANS = {
    "order_volume": "orders: stratified sample (o_orderpriority, ratio=0.0284)",
    "pricing_summary": "lineitem: stratified sample (l_shipmode, ratio=0.0257)",
    "priority_mix": "orders: stratified sample (o_orderpriority, ratio=0.0284)",
    "promo_effect": "lineitem: stratified sample (l_shipmode, ratio=0.0257); part: base table",
    "revenue_forecast": "lineitem: stratified sample (l_shipmode, ratio=0.0257)",
    "shipmode_priority": (
        "lineitem: stratified sample (l_shipmode, ratio=0.0257); orders: base table"
    ),
    "tq-1": "lineitem: stratified sample (l_shipmode, ratio=0.0257)",
    "tq-3": "exact execution (no feasible sample plan within the I/O budget)",
    "tq-5": (
        "customer: base table; lineitem: base table; nation: base table; "
        "orders: stratified sample (o_orderpriority, ratio=0.0284)"
    ),
    "tq-6": "lineitem: stratified sample (l_shipmode, ratio=0.0257)",
    "tq-7": (
        "customer: base table; lineitem: base table; nation: base table; "
        "orders: stratified sample (o_orderpriority, ratio=0.0284)"
    ),
    "tq-8": (
        "lineitem: base table; orders: stratified sample (o_orderpriority, ratio=0.0284); "
        "part: base table"
    ),
    "tq-9": (
        "lineitem: base table; nation: base table; "
        "orders: stratified sample (o_orderpriority, ratio=0.0284); partsupp: base table; "
        "supplier: base table"
    ),
    "tq-10": "exact execution (no feasible sample plan within the I/O budget)",
    "tq-11": (
        "nation: base table; partsupp: hashed sample (ps_partkey, ratio=0.0209); "
        "supplier: base table"
    ),
    "tq-12": "lineitem: stratified sample (l_shipmode, ratio=0.0257); orders: base table",
    "tq-13": "exact execution (no feasible sample plan within the I/O budget)",
    "tq-14": "lineitem: stratified sample (l_shipmode, ratio=0.0257); part: base table",
    "tq-15": "exact execution (no feasible sample plan within the I/O budget)",
    "tq-16": "exact execution (no feasible sample plan within the I/O budget)",
    "tq-17": "lineitem: stratified sample (l_shipmode, ratio=0.0257); part: base table",
    "tq-18": "exact execution (no feasible sample plan within the I/O budget)",
    "tq-19": "lineitem: stratified sample (l_shipmode, ratio=0.0257); part: base table",
    "tq-20": "part: base table; partsupp: hashed sample (ps_partkey, ratio=0.0209)",
}
REPLANNED = {"tq-5", "tq-7", "tq-8", "tq-9"}


def test_only_tq_5_7_8_9_change_plan_and_each_now_samples_lineitem():
    dataset = build.generate(1, build.FULL.scale_factor)
    database, connection = build.build_engine(dataset)
    try:
        ops = queries.tpch_ops() + queries.dash_ops(1)[: len(queries.DASH_TEMPLATES)]
        assert {op.group for op in ops} == set(PARENT_PLANS)
        cursor = connection.cursor()
        changed = set()
        for op in ops:
            cursor.execute(op.text, op.params)
            description = cursor.last_result.plan_description
            assignments, *notes = description.split(" | ")
            if assignments != PARENT_PLANS[op.group]:
                changed.add(op.group)
                assert connection.session.last_plan.sample_for("lineitem") is not None
            joined = "; " in assignments  # more than one table assigned
            if joined and not cursor.last_result.is_exact:
                assert notes[-1].startswith("fact table ") and notes[-1].endswith(
                    " read from a sample"
                ), description
            else:
                assert not any(note.startswith("fact table") for note in notes), description
        assert changed == REPLANNED
    finally:
        connection.close()
        database.close()


def test_tq_16_is_answered_exactly_in_either_spelling():
    """Its count(DISTINCT) column has no hashed sample, however it is spelled.

    Scale factor 5: at scale factor 1 the rows-per-group check alone
    declines every sampled plan of tq-16."""
    text = queries.TPCH_QUERIES["tq-16"][1]
    qualified = text.replace("DISTINCT ps_suppkey", "DISTINCT partsupp.ps_suppkey")
    assert qualified != text
    for seed in range(1, 4):
        database, connection = build.build_engine(build.generate(seed, build.FULL.scale_factor))
        try:
            session = connection.session
            for spelling in (text, qualified):
                exact = session.execute(spelling, options=ExecutionOptions(mode="exact"))
                answer = session.execute(spelling)
                assert answer.is_exact, (seed, answer.plan_description)
                assert answer.fetchall() == exact.fetchall(), seed
        finally:
            connection.close()
            database.close()


#: Share of tq-5/7/8's default-mode intervals (95 %) that cover the exact
#: value, summed over seeds 1-5 at scale factor 1, recorded at the commit
#: before the fact-table rule (covered / intervals).  tq-5 then missed five
#: of its 125 groups.  tq-9 is left out: it still returns ~30 % of its groups.
PARENT_COVERAGE = {"tq-5": (108, 120), "tq-7": (248, 250), "tq-8": (20, 20)}


def test_replanned_queries_keep_every_group_and_their_interval_coverage():
    covered = dict.fromkeys(PARENT_COVERAGE, 0)
    intervals = dict.fromkeys(PARENT_COVERAGE, 0)
    ops = [op for op in queries.tpch_ops() if op.group in PARENT_COVERAGE]
    for seed in range(1, 6):
        database, connection = build.build_engine(build.generate(seed, 1.0))
        try:
            client = loadgen.LocalClient(connection)
            for op in ops:
                exact, _seconds = client.run(op, ExecutionOptions(mode="exact"))
                answer, _seconds = client.run(op)
                assert answer.approximate, (seed, op.group)
                assert connection.session.last_plan.sample_for("lineitem") is not None
                found = check.accuracy(op, answer, check.make_reference(op, exact))
                assert found.groups_returned == found.groups_exact, (seed, op.group)
                covered[op.group] += found.covered
                intervals[op.group] += found.intervals
        finally:
            connection.close()
            database.close()
    for name, (parent_covered, parent_intervals) in PARENT_COVERAGE.items():
        assert intervals[name] > 0, name
        share = covered[name] / intervals[name]
        assert share >= parent_covered / parent_intervals, (name, covered[name], intervals[name])



#: Interval calibration per approximately answered shape, every ``tq-*``
#: statement and every dashboard template, summed over seeds 1-5 at scale
#: factor 1: (covered, intervals, median relative half-width), where a
#: relative half-width is an interval's 95 % margin over its estimate.
CALIBRATION = {
    "tq-1": (202, 210, 0.108),
    "tq-5": (125, 125, 4.03),
    "tq-6": (5, 5, 0.831),
    "tq-7": (248, 250, 4.11),
    "tq-8": (20, 20, 0.516),
    "tq-9": (52, 258, 0.0),
    "tq-12": (50, 50, 0.789),
    "tq-14": (10, 10, 3.27),
    "tq-17": (10, 10, 1.27),
    "tq-19": (5, 5, 0.510),
    "tq-20": (56, 60, 0.350),
    "pricing_summary": (117, 120, 0.173),
    "revenue_forecast": (5, 5, 0.883),
    "shipmode_priority": (50, 50, 0.751),
    "promo_effect": (10, 10, 0.758),
    "priority_mix": (41, 50, 0.345),
    "order_volume": (10, 10, 0.156),
}
#: Shapes whose intervals are known not to be calibrated yet.
MISCALIBRATED = {
    "tq-9": "returns 258 of 859 groups; covers 52/258 = 0.20 at median relative "
    "half-width 0.0 (one-subsample groups report no spread)",
    "priority_mix": "covers 41/50 = 0.82 at median relative half-width 0.345, "
    "below the band's 43",
}


@pytest.fixture(scope="module")
def calibration() -> dict[str, dict]:
    """Each shape's approximate answers against exact mode, seeds 1-5, SF 1."""
    found: dict[str, dict] = {}
    for seed in range(1, 6):
        database, connection = build.build_engine(build.generate(seed, 1.0))
        try:
            client = loadgen.LocalClient(connection)
            dash = queries.dash_ops(seed)[: len(queries.DASH_TEMPLATES)]
            for op in queries.tpch_ops() + dash:
                exact, _seconds = client.run(op, ExecutionOptions(mode="exact"))
                answer, _seconds = client.run(op)
                if not answer.approximate:
                    continue
                shape = found.setdefault(
                    op.group, {"runs": 0, "accuracy": [], "widths": []}
                )
                shape["runs"] += 1
                shape["accuracy"].append(
                    check.accuracy(op, answer, check.make_reference(op, exact))
                )
                for name in answer.names[op.group_cols :]:
                    estimates = np.asarray(answer.result.column(name), dtype=np.float64)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        widths = np.abs(answer.result.margins(name) / estimates)
                    shape["widths"].extend(widths[np.isfinite(widths)].tolist())
        finally:
            connection.close()
            database.close()
    return found


def test_every_approximated_shape_is_calibrated(calibration):
    assert set(calibration) == set(CALIBRATION)
    assert all(shape["runs"] == 5 for shape in calibration.values())


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, reason=MISCALIBRATED[name])
            if name in MISCALIBRATED
            else (),
        )
        for name in CALIBRATION
    ],
)
def test_intervals_cover_within_a_binomial_band(calibration, shape):
    """A shape's 95 % intervals cover at least the 1 % quantile of
    Binomial(intervals, 0.95) — the lower end of a 98 % band, treating the
    intervals as independent — and it returns exactly the exact answer's
    groups.  Its median relative half-width stays within 25 % of the
    recorded one, so coverage cannot be bought with wider intervals."""
    found = calibration[shape]
    accuracies = found["accuracy"]
    covered = sum(a.covered for a in accuracies)
    intervals = sum(a.intervals for a in accuracies)
    width = float(np.median(found["widths"])) if found["widths"] else 0.0
    _covered, _intervals, recorded_width = CALIBRATION[shape]
    assert intervals > 0
    assert all(a.groups_returned == a.groups_exact for a in accuracies), shape
    assert covered >= stats.binom.ppf(0.01, intervals, 0.95), (covered, intervals, width)
    assert width <= 1.25 * recorded_width, (width, recorded_width)

"""The benchmark's query texts, templates and seeded parameter draws.

The 18 TPC-H-shaped texts are *copied* from ``repro.workloads.tpch`` on
purpose: the program under test receives only generated inputs, so a later
edit to the library's query set changes ``inputs_sha`` (``check.py``) instead
of silently changing the load.

An :class:`Op` is one statement the load generator issues.  ``group`` names
the statement's shape (a dashboard template or a ``tq-*`` query); per-shape
statistics (speed-up, relative error) are aggregated over it.  ``group_cols``
is the number of leading result columns that are grouping keys — every text
here lists its grouping columns first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Op:
    key: str
    group: str
    text: str
    params: tuple | None
    group_cols: int
    # Result-heavy statements are fetched incrementally (fetchmany batches).
    heavy: bool = False


# ---------------------------------------------------------------------------
# tpch_mix: the paper's 18 queries (copied, see module docstring)
# ---------------------------------------------------------------------------

#: name -> (number of leading grouping columns, text)
TPCH_QUERIES: dict[str, tuple[int, str]] = {
    "tq-1": (2, """
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity) AS sum_qty,
               sum(l_extendedprice) AS sum_base_price,
               sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               avg(l_quantity) AS avg_qty,
               avg(l_extendedprice) AS avg_price,
               avg(l_discount) AS avg_disc,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= 19980902
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """),
    "tq-3": (1, """
        SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
        WHERE o_orderdate < 19950315 AND l_shipdate > 19950315
        GROUP BY l_orderkey
        ORDER BY revenue DESC
        LIMIT 10
    """),
    "tq-5": (1, """
        SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem
             INNER JOIN orders ON l_orderkey = o_orderkey
             INNER JOIN customer ON o_custkey = c_custkey
             INNER JOIN nation ON c_nationkey = n_nationkey
        WHERE o_orderdate >= 19940101 AND o_orderdate < 19950101
        GROUP BY n_name
        ORDER BY revenue DESC
    """),
    "tq-6": (0, """
        SELECT sum(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101
              AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
    """),
    "tq-7": (2, """
        SELECT n_name, floor(l_shipdate / 10000) AS l_year,
               sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem
             INNER JOIN orders ON l_orderkey = o_orderkey
             INNER JOIN customer ON o_custkey = c_custkey
             INNER JOIN nation ON c_nationkey = n_nationkey
        WHERE l_shipdate BETWEEN 19950101 AND 19961231
        GROUP BY n_name, floor(l_shipdate / 10000)
        ORDER BY n_name, l_year
    """),
    "tq-8": (1, """
        SELECT floor(o_orderdate / 10000) AS o_year,
               sum(l_extendedprice * (1 - l_discount)) AS volume,
               count(*) AS num_items
        FROM lineitem
             INNER JOIN orders ON l_orderkey = o_orderkey
             INNER JOIN part ON l_partkey = p_partkey
        WHERE p_type = 'ECONOMY' AND o_orderdate BETWEEN 19950101 AND 19961231
        GROUP BY floor(o_orderdate / 10000)
        ORDER BY o_year
    """),
    "tq-9": (2, """
        SELECT n_name, floor(o_orderdate / 10000) AS o_year,
               sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS amount
        FROM lineitem
             INNER JOIN orders ON l_orderkey = o_orderkey
             INNER JOIN supplier ON l_suppkey = s_suppkey
             INNER JOIN partsupp ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey
             INNER JOIN nation ON s_nationkey = n_nationkey
        GROUP BY n_name, floor(o_orderdate / 10000)
        ORDER BY n_name, o_year
    """),
    "tq-10": (1, """
        SELECT c_custkey, sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem
             INNER JOIN orders ON l_orderkey = o_orderkey
             INNER JOIN customer ON o_custkey = c_custkey
        WHERE l_returnflag = 'R'
        GROUP BY c_custkey
        ORDER BY revenue DESC
        LIMIT 20
    """),
    "tq-11": (1, """
        SELECT n_name, sum(ps_supplycost * ps_availqty) AS stock_value
        FROM partsupp
             INNER JOIN supplier ON ps_suppkey = s_suppkey
             INNER JOIN nation ON s_nationkey = n_nationkey
        GROUP BY n_name
        ORDER BY stock_value DESC
    """),
    "tq-12": (1, """
        SELECT l_shipmode,
               sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                        THEN 1 ELSE 0 END) AS high_line_count,
               sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
        WHERE l_receiptdate >= 19940101 AND l_receiptdate < 19950101
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """),
    "tq-13": (0, """
        SELECT avg(order_count) AS avg_orders, count(*) AS num_customers
        FROM (SELECT o_custkey, count(*) AS order_count
              FROM orders
              GROUP BY o_custkey) AS per_customer
    """),
    "tq-14": (0, """
        SELECT sum(CASE WHEN p_type = 'PROMO' THEN l_extendedprice * (1 - l_discount)
                        ELSE 0 END) AS promo_revenue,
               sum(l_extendedprice * (1 - l_discount)) AS total_revenue
        FROM lineitem INNER JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= 19950901 AND l_shipdate < 19951001
    """),
    "tq-15": (1, """
        SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount)) AS total_revenue
        FROM lineitem
        WHERE l_shipdate >= 19960101 AND l_shipdate < 19960401
        GROUP BY l_suppkey
        ORDER BY total_revenue DESC
        LIMIT 10
    """),
    "tq-16": (1, """
        SELECT p_brand, count(DISTINCT ps_suppkey) AS supplier_cnt
        FROM partsupp INNER JOIN part ON ps_partkey = p_partkey
        WHERE p_size >= 10
        GROUP BY p_brand
        ORDER BY supplier_cnt DESC
    """),
    "tq-17": (0, """
        SELECT sum(l_extendedprice) AS total_price, avg(l_quantity) AS avg_qty
        FROM lineitem INNER JOIN part ON l_partkey = p_partkey
        WHERE p_brand = 'Brand#3' AND l_quantity < 10
    """),
    "tq-18": (0, """
        SELECT avg(total_qty) AS avg_order_qty, count(*) AS num_orders
        FROM (SELECT l_orderkey, sum(l_quantity) AS total_qty
              FROM lineitem
              GROUP BY l_orderkey) AS per_order
    """),
    "tq-19": (0, """
        SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem INNER JOIN part ON l_partkey = p_partkey
        WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11)
           OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20)
           OR (p_brand = 'Brand#3' AND l_quantity BETWEEN 20 AND 30)
    """),
    "tq-20": (1, """
        SELECT p_type, sum(ps_availqty) AS total_avail, avg(ps_supplycost) AS avg_cost
        FROM partsupp INNER JOIN part ON ps_partkey = p_partkey
        GROUP BY p_type
        ORDER BY p_type
    """),
}


def tpch_ops() -> list[Op]:
    return [
        Op(name, name, text, None, group_cols)
        for name, (group_cols, text) in TPCH_QUERIES.items()
    ]


# ---------------------------------------------------------------------------
# dashboard templates (shapes of tq-1 / tq-6 / tq-12 / tq-14, plus two on orders)
# ---------------------------------------------------------------------------

#: name -> (number of leading grouping columns, parameterised text)
DASH_TEMPLATES: dict[str, tuple[int, str]] = {
    "pricing_summary": (2, """
        SELECT l_returnflag, l_linestatus,
               sum(l_quantity) AS sum_qty,
               sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               avg(l_discount) AS avg_disc,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= ?
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """),
    "revenue_forecast": (0, """
        SELECT sum(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= ? AND l_shipdate < ?
              AND l_discount BETWEEN ? AND ? AND l_quantity < ?
    """),
    "shipmode_priority": (1, """
        SELECT l_shipmode,
               sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                        THEN 1 ELSE 0 END) AS high_line_count,
               sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM lineitem INNER JOIN orders ON l_orderkey = o_orderkey
        WHERE l_receiptdate >= ? AND l_receiptdate < ?
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """),
    "promo_effect": (0, """
        SELECT sum(CASE WHEN p_type = 'PROMO' THEN l_extendedprice * (1 - l_discount)
                        ELSE 0 END) AS promo_revenue,
               sum(l_extendedprice * (1 - l_discount)) AS total_revenue
        FROM lineitem INNER JOIN part ON l_partkey = p_partkey
        WHERE l_shipdate >= ? AND l_shipdate < ?
    """),
    "priority_mix": (1, """
        SELECT o_orderpriority, count(*) AS order_count, avg(o_totalprice) AS avg_price
        FROM orders
        WHERE o_orderdate >= ? AND o_orderdate < ?
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority
    """),
    "order_volume": (0, """
        SELECT count(*) AS num_orders, sum(o_totalprice) AS total_price
        FROM orders
        WHERE o_orderstatus = ? AND o_totalprice > ?
    """),
}

#: Parameter sets per template in the rotating dashboard set.
DASH_PARAM_SETS = 8
#: Distinct inlined texts for ``adhoc_cold``: above every cache in the stack
#: (session template cache 128, engine statement/plan caches 256).
ADHOC_DISTINCT_TEXTS = 3000


def _day(rng: np.random.Generator, year: int, month: int) -> int:
    return year * 10_000 + month * 100 + int(rng.integers(1, 29))


def _draw_params(template: str, index: int, rng: np.random.Generator) -> tuple:
    """Parameter set number ``index`` of a template.

    The property the engine's work depends on — how much of the fact table a
    predicate keeps — follows a fixed grid over ``index`` (eight steps), so
    every seed issues the same spread of selectivities; the seed moves the
    dates and thresholds inside a grid step.
    """
    step = index % DASH_PARAM_SETS
    if template == "pricing_summary":
        # Cut-offs from 1995 to 1998 in half-year steps: 45 % to 100 % of lineitem.
        month = 1 + 6 * (step % 2) + int(rng.integers(0, 6))
        return (_day(rng, 1995 + step // 2, month),)
    # A one-year window keeps ~1/7 of the rows wherever it starts.
    start = _day(rng, 1992 + step % 6, int(rng.integers(1, 13)))
    if template == "revenue_forecast":
        low = (1 + step % 6) / 100
        return (start, start + 10_000, low, round(low + 0.03, 2), 20 + 2 * step)
    if template in ("shipmode_priority", "priority_mix"):
        return (start, start + 10_000)
    if template == "promo_effect":
        # A quarter; a start month <= 9 keeps start + 300 inside the year.
        start = _day(rng, 1992 + step % 7, int(rng.integers(1, 10)))
        return (start, start + 300)
    if template == "order_volume":
        return ("FOP"[step % 3], float(50_000 + 45_000 * step + int(rng.integers(0, 45_000))))
    raise KeyError(template)


def dash_ops(seed: int) -> list[Op]:
    """The rotating dashboard set: 6 templates x 8 parameter sets, interleaved."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for index in range(DASH_PARAM_SETS):
        for name, (group_cols, text) in DASH_TEMPLATES.items():
            params = _draw_params(name, index, rng)
            ops.append(Op(f"{name}#{index}", name, text, params, group_cols))
    return ops


def _inline(text: str, params: tuple) -> str:
    parts = text.split("?")
    if len(parts) != len(params) + 1:
        raise ValueError("placeholder count does not match the parameter set")
    rendered = [parts[0]]
    for value, tail in zip(params, parts[1:]):
        rendered.append(f"'{value}'" if isinstance(value, str) else repr(value))
        rendered.append(tail)
    return "".join(rendered)


def adhoc_ops(seed: int, count: int = ADHOC_DISTINCT_TEXTS) -> list[Op]:
    """The dashboard shapes with literals inlined: every text is distinct."""
    rng = np.random.default_rng([seed, 2])
    ops: list[Op] = []
    seen: set[str] = set()
    names = list(DASH_TEMPLATES)
    while len(ops) < count:
        name = names[len(ops) % len(names)]
        group_cols, text = DASH_TEMPLATES[name]
        inlined = _inline(text, _draw_params(name, len(ops) // len(names), rng))
        if inlined in seen:
            continue
        seen.add(inlined)
        ops.append(Op(f"{name}@{len(ops)}", name, inlined, None, group_cols))
    return ops


#: The result-heavy statement of ``serve_socket``: an exact pass-through range
#: select returning HEAVY_ROWS rows, fetched in FETCH_BATCH-row batches.
HEAVY_ROWS = 1500
FETCH_BATCH = 256
HEAVY_TEXT = """
        SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate
        FROM orders
        WHERE o_orderkey >= ? AND o_orderkey < ?
        ORDER BY o_orderkey
"""


def heavy_ops(seed: int, num_orders: int, count: int = 4) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    rows = min(HEAVY_ROWS, num_orders)
    ops = []
    for index in range(count):
        start = int(rng.integers(0, num_orders - rows + 1))
        ops.append(
            Op(f"order_export#{index}", "order_export", HEAVY_TEXT, (start, start + rows),
               0, heavy=True)
        )
    return ops


def serve_ops(seed: int, num_orders: int) -> list[Op]:
    """The dashboard set with one result-heavy statement after every six queries."""
    dash = dash_ops(seed)
    heavy = heavy_ops(seed, num_orders)
    ops: list[Op] = []
    per_round = len(DASH_TEMPLATES)
    for index in range(0, len(dash), per_round):
        ops.extend(dash[index : index + per_round])
        ops.append(heavy[(index // per_round) % len(heavy)])
    return ops

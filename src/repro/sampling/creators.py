"""SQL generation for sample creation (Section 3).

Every sample is created through ``CREATE TABLE ... AS SELECT`` statements
issued to the underlying database; no data flows through the middleware.
Each sample table carries two bookkeeping columns:

* ``vdb_sampling_prob`` — the tuple's inclusion probability, used by the
  Horvitz–Thompson estimators in the rewritten queries;
* ``vdb_sid`` — the tuple's subsample id in ``1..b``, used by variational
  subsampling.
"""

from __future__ import annotations

from repro.sampling import bernoulli
from repro.sampling.params import PROBABILITY_COLUMN, SID_COLUMN
from repro.sqlengine import sqlast as ast


def sid_expression(subsample_count: int) -> ast.Expression:
    """``1 + floor(rand() * b)`` — a uniformly random subsample id."""
    return ast.BinaryOp(
        "+",
        ast.Literal(1),
        ast.func("floor", ast.BinaryOp("*", ast.func("rand"), ast.Literal(subsample_count))),
    )


def uniform_sample_statement(
    source_table: str, sample_table: str, ratio: float, subsample_count: int
) -> ast.CreateTableStatement:
    """CTAS statement building a uniform (Bernoulli) sample."""
    select = ast.SelectStatement(
        select_items=[
            ast.SelectItem(ast.Star()),
            ast.SelectItem(ast.Literal(float(ratio)), alias=PROBABILITY_COLUMN),
            ast.SelectItem(sid_expression(subsample_count), alias=SID_COLUMN),
        ],
        from_relation=ast.TableRef(source_table),
        where=ast.BinaryOp("<", ast.func("rand"), ast.Literal(float(ratio))),
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)


def hashed_sample_statement(
    source_table: str,
    sample_table: str,
    columns: tuple[str, ...],
    ratio: float,
    subsample_count: int,
) -> ast.CreateTableStatement:
    """CTAS statement building a hashed (universe) sample on a column set.

    A tuple is kept when the uniform hash of its key columns falls below the
    sampling ratio; two hashed samples built with the same ratio on the same
    join key therefore keep *matching* tuples, which is what makes
    sample-sample joins possible (Section 5.1).
    """
    key: ast.Expression
    if len(columns) == 1:
        key = ast.ColumnRef(columns[0])
    else:
        key = ast.func("concat", *[ast.ColumnRef(column) for column in columns])
    select = ast.SelectStatement(
        select_items=[
            ast.SelectItem(ast.Star()),
            ast.SelectItem(ast.Literal(float(ratio)), alias=PROBABILITY_COLUMN),
            ast.SelectItem(sid_expression(subsample_count), alias=SID_COLUMN),
        ],
        from_relation=ast.TableRef(source_table),
        where=ast.BinaryOp("<", ast.func("vdb_hash", key), ast.Literal(float(ratio))),
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)


def strata_size_statement(
    source_table: str, temp_table: str, columns: tuple[str, ...]
) -> ast.CreateTableStatement:
    """First pass of stratified sampling: per-stratum group sizes."""
    select = ast.SelectStatement(
        select_items=[
            *[ast.SelectItem(ast.ColumnRef(column), alias=column) for column in columns],
            ast.SelectItem(ast.func("count", ast.Star()), alias="vdb_strata_size"),
        ],
        from_relation=ast.TableRef(source_table),
        group_by=[ast.ColumnRef(column) for column in columns],
    )
    return ast.CreateTableStatement(table_name=temp_table, as_select=select)


RANDOM_DRAW_COLUMN = "vdb_rand_draw"


def randomized_copy_statement(source_table: str, target_table: str) -> ast.CreateTableStatement:
    """CTAS that copies a table and attaches a uniform random draw per row.

    The draw has to be *materialised* before it is compared against the
    per-stratum staircase probability: calling ``rand()`` directly in the
    predicate of the second pass is unreliable across engines — Impala
    forbids it outright, and SQLite hoists predicates that do not reference
    the fact-table columns out of the per-row loop (keeping or dropping whole
    strata at once).
    """
    select = ast.SelectStatement(
        select_items=[
            ast.SelectItem(ast.Star()),
            ast.SelectItem(ast.func("rand"), alias=RANDOM_DRAW_COLUMN),
        ],
        from_relation=ast.TableRef(source_table),
    )
    return ast.CreateTableStatement(table_name=target_table, as_select=select)


def stratified_sample_statement(
    randomized_table: str,
    sample_table: str,
    temp_table: str,
    columns: tuple[str, ...],
    source_columns: list[str],
    min_rows_per_stratum: int,
    max_strata_size: int,
    subsample_count: int,
    delta: float = bernoulli.DEFAULT_DELTA,
) -> ast.CreateTableStatement:
    """Second pass of stratified sampling: probabilistic per-stratum Bernoulli.

    ``randomized_table`` is the output of :func:`randomized_copy_statement`.
    The per-tuple sampling probability is the Lemma 1 staircase evaluated on
    the stratum size computed in the first pass; the same CASE expression is
    stored as the tuple's ``vdb_sampling_prob`` so the estimators can invert it.

    The join matches NULL strata keys to each other: ``GROUP BY`` in the first
    pass keeps a NULL stratum, and its rows must stay in the sample (as they
    do under incremental maintenance) on every backend.
    """
    source_alias = "vdb_src"
    temp_alias = "vdb_sizes"
    staircase = bernoulli.staircase_case_expression(
        ast.ColumnRef("vdb_strata_size", table=temp_alias),
        min_rows=min_rows_per_stratum,
        max_strata_size=max_strata_size,
        delta=delta,
    )
    join_condition = ast.conjunction(
        [
            ast.null_safe_equal(
                ast.ColumnRef(column, table=source_alias),
                ast.ColumnRef(column, table=temp_alias),
            )
            for column in columns
        ]
    )
    select = ast.SelectStatement(
        select_items=[
            *[
                ast.SelectItem(ast.ColumnRef(column, table=source_alias), alias=column)
                for column in source_columns
            ],
            ast.SelectItem(staircase, alias=PROBABILITY_COLUMN),
            ast.SelectItem(sid_expression(subsample_count), alias=SID_COLUMN),
        ],
        from_relation=ast.Join(
            left=ast.TableRef(randomized_table, alias=source_alias),
            right=ast.TableRef(temp_table, alias=temp_alias),
            condition=join_condition,
            join_type="INNER",
        ),
        where=ast.BinaryOp(
            "<", ast.ColumnRef(RANDOM_DRAW_COLUMN, table=source_alias), staircase
        ),
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)

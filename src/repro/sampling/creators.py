"""SQL generation for sample creation (Section 3).

Every sample is created through ``CREATE TABLE ... AS SELECT`` statements
issued to the underlying database; no data flows through the middleware.
Each sample table carries two bookkeeping columns:

* ``vdb_sampling_prob`` — the tuple's inclusion probability, used by the
  Horvitz–Thompson estimators in the rewritten queries;
* ``vdb_sid`` — the tuple's subsample id in ``1..b``, used by variational
  subsampling.

A uniform or hashed sample is one statement.  A stratified sample is four,
each O(1) in the number of strata: the strata sizes
(:func:`strata_size_statement`), a copy of the table with one random draw per
row (:func:`randomized_copy_statement`), one row per stratum with its Lemma 1
probability (:func:`strata_probability_statement`), and the sample
(:func:`stratified_sample_statement`), which bounds the draw by the largest
probability before it joins each row to its stratum's.
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
    sample-sample joins possible (Section 5.1).  A key of NULLs only hashes
    as the empty string, below every ratio, so those tuples are all kept:
    they are a census, with probability 1.
    """
    key: ast.Expression
    if len(columns) == 1:
        key = ast.ColumnRef(columns[0])
    else:
        key = ast.func("concat", *[ast.ColumnRef(column) for column in columns])
    probability = ast.CaseWhen([(_null_key(columns), ast.Literal(1.0))], ast.Literal(float(ratio)))
    select = ast.SelectStatement(
        select_items=[
            ast.SelectItem(ast.Star()),
            ast.SelectItem(probability, alias=PROBABILITY_COLUMN),
            ast.SelectItem(sid_expression(subsample_count), alias=SID_COLUMN),
        ],
        from_relation=ast.TableRef(source_table),
        where=ast.BinaryOp("<", ast.func("vdb_hash", key), ast.Literal(float(ratio))),
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)


def null_key_count_statement(sample_table: str, columns: tuple[str, ...]) -> ast.SelectStatement:
    """``count(*)`` of a hashed sample's rows whose key columns are all NULL.

    Those rows are the census :func:`hashed_sample_statement` keeps with
    probability 1, so the count is also the base table's.
    """
    return ast.SelectStatement(
        select_items=[ast.SelectItem(ast.func("count", ast.Star()), alias="n")],
        from_relation=ast.TableRef(sample_table),
        where=_null_key(columns),
    )


def _null_key(columns: tuple[str, ...]) -> ast.Expression:
    """``c1 IS NULL AND c2 IS NULL ...``: a key of NULLs only."""
    condition = ast.conjunction([ast.IsNull(ast.ColumnRef(column)) for column in columns])
    assert condition is not None, "a hashed sample has a key column"
    return condition


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


def strata_probability_statement(
    sizes_table: str,
    target_table: str,
    columns: tuple[str, ...],
    min_rows_per_stratum: int,
    max_strata_size: int,
    delta: float = bernoulli.DEFAULT_DELTA,
) -> ast.CreateTableStatement:
    """CTAS of one row per stratum: its key and its sampling probability.

    The probability is the Lemma 1 staircase evaluated on the stratum size
    of the first pass (:func:`strata_size_statement`), once per stratum, so
    the per-row pass only reads it.
    """
    staircase = bernoulli.staircase_case_expression(
        ast.ColumnRef("vdb_strata_size"),
        min_rows=min_rows_per_stratum,
        max_strata_size=max_strata_size,
        delta=delta,
    )
    select = ast.SelectStatement(
        select_items=[
            *[ast.SelectItem(ast.ColumnRef(column), alias=column) for column in columns],
            ast.SelectItem(staircase, alias=PROBABILITY_COLUMN),
        ],
        from_relation=ast.TableRef(sizes_table),
    )
    return ast.CreateTableStatement(table_name=target_table, as_select=select)


def stratified_sample_statement(
    randomized_table: str,
    sample_table: str,
    probability_table: str,
    columns: tuple[str, ...],
    source_columns: list[str],
    max_probability: float,
    subsample_count: int,
) -> ast.CreateTableStatement:
    """Second pass of stratified sampling: probabilistic per-stratum Bernoulli.

    ``randomized_table`` is the output of :func:`randomized_copy_statement`
    and ``probability_table`` that of :func:`strata_probability_statement`.
    A tuple is kept when its draw falls below its stratum's probability,
    which is stored as the tuple's ``vdb_sampling_prob`` so the estimators
    can invert it.

    No stratum's probability exceeds ``max_probability``, the largest one in
    ``probability_table``, so the single-table conjunct ``draw <
    max_probability`` keeps every tuple the per-stratum comparison keeps.  A
    backend applies it to the scan of the randomized copy: only about a
    ``max_probability`` share of the rows reaches the join.

    The join matches NULL strata keys to each other: ``GROUP BY`` in the first
    pass keeps a NULL stratum, and its rows must stay in the sample (as they
    do under incremental maintenance) on every backend.
    """
    source_alias = "vdb_src"
    temp_alias = "vdb_sizes"
    draw = ast.ColumnRef(RANDOM_DRAW_COLUMN, table=source_alias)
    probability = ast.ColumnRef(PROBABILITY_COLUMN, table=temp_alias)
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
            ast.SelectItem(probability, alias=PROBABILITY_COLUMN),
            ast.SelectItem(sid_expression(subsample_count), alias=SID_COLUMN),
        ],
        from_relation=ast.Join(
            left=ast.TableRef(randomized_table, alias=source_alias),
            right=ast.TableRef(probability_table, alias=temp_alias),
            condition=join_condition,
            join_type="INNER",
        ),
        where=ast.conjunction(
            [
                ast.BinaryOp("<", draw, ast.Literal(float(max_probability))),
                ast.BinaryOp("<", draw, probability),
            ]
        ),
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)

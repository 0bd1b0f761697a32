"""SQL generation for sample creation (Section 3), and the membership rule.

Every sample is created through ``CREATE TABLE ... AS SELECT`` statements
issued to the underlying database; no data flows through the middleware.
Each sample table carries two bookkeeping columns:

* ``vdb_sampling_prob`` — the tuple's inclusion probability, used by the
  Horvitz–Thompson estimators in the rewritten queries;
* ``vdb_sid`` — the tuple's subsample id in ``1..b``, used by variational
  subsampling.

Which rows a sample keeps, with what probability and in which subsample is
decided once per sample type, by :func:`membership`: three expressions over
a source row.  The build selects them in its CTAS; maintenance evaluates the
same three over an appended batch (:mod:`repro.sampling.maintenance`).

A uniform or hashed sample is one statement (:func:`sample_statement`).  A
stratified sample is four, each O(1) in the number of strata: the strata
sizes (:func:`strata_size_statement`), a copy of the table with one random
draw per row (:func:`randomized_copy_statement`), one row per stratum with
its Lemma 1 probability (:func:`strata_probability_statement`), and the
sample (:func:`stratified_sample_statement`), which bounds the draw by the
largest probability before it joins each row to its stratum's.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import SamplingError
from repro.sampling import bernoulli
from repro.sampling.params import PROBABILITY_COLUMN, SID_COLUMN, SampleInfo, SampleSpec
from repro.sqlengine import sqlast as ast


class Membership(NamedTuple):
    """A sample type's rule over a source row: the predicate that keeps it,
    its inclusion probability (``vdb_sampling_prob``) and its subsample id
    in ``1..b`` (``vdb_sid``)."""

    keep: ast.Expression
    probability: ast.Expression
    sid: ast.Expression


def membership(
    sample: SampleSpec | SampleInfo,
    subsample_count: int,
    draw: ast.Expression | None = None,
    stratum_probability: ast.Expression | None = None,
) -> Membership:
    """The rule deciding which rows a sample keeps, by its type and ratio τ.

    * uniform: a row whose ``draw`` (``rand()`` by default) falls below τ,
      with probability τ;
    * hashed: a row whose key hashes below τ, so hashed samples of
      one ratio on one join key keep *matching* tuples (Section 5.1).  The
      hash reads a key by value (``functions.hash_text``): ``87.0`` as
      ``87``, so an int key column that gains a NULL, and is stored as
      floats, keeps its keys in or out.  A key hashing to 0 (all NULL or
      empty-string parts hash as ``""``) is kept at every ratio: those rows
      are a census, with probability 1;
    * stratified: a row whose draw falls below ``stratum_probability`` (the
      column ``vdb_sampling_prob`` by default), with that probability.

    Each row's subsample id is uniform on ``1..b``.  A type with no rule
    raises :class:`SamplingError`: it can come from the metadata table.
    """
    draw = ast.func("rand") if draw is None else draw
    sid = sid_expression(subsample_count)
    tau = ast.Literal(float(sample.ratio))
    if sample.sample_type == "uniform":
        return Membership(ast.BinaryOp("<", draw, tau), tau, sid)
    if sample.sample_type == "hashed":
        census = ast.BinaryOp("=", _key_hash(sample.columns), ast.Literal(0.0))
        return Membership(
            ast.BinaryOp("<", _key_hash(sample.columns), tau),
            ast.CaseWhen([(census, ast.Literal(1.0))], tau),
            sid,
        )
    if sample.sample_type == "stratified":
        probability = stratum_probability or ast.ColumnRef(PROBABILITY_COLUMN)
        return Membership(ast.BinaryOp("<", draw, probability), probability, sid)
    raise SamplingError(f"no membership rule for sample type {sample.sample_type!r}")


def _key_hash(columns: tuple[str, ...]) -> ast.Expression:
    """``vdb_hash(c)``, or ``vdb_hash(concat(c1, c2, ...))`` for a compound key."""
    if len(columns) == 1:
        return ast.func("vdb_hash", ast.ColumnRef(columns[0]))
    return ast.func("vdb_hash", ast.func("concat", *[ast.ColumnRef(column) for column in columns]))


def sid_expression(subsample_count: int) -> ast.Expression:
    """``1 + floor(rand() * b)`` — a uniformly random subsample id."""
    scaled = ast.BinaryOp("*", ast.func("rand"), ast.Literal(subsample_count))
    return ast.BinaryOp("+", ast.Literal(1), ast.func("floor", scaled))


def sample_statement(
    source_table: str, sample_table: str, rule: Membership
) -> ast.CreateTableStatement:
    """CTAS building a sample in one pass: the source rows ``rule`` keeps."""
    select = ast.SelectStatement(
        select_items=[
            ast.SelectItem(ast.Star()),
            ast.SelectItem(rule.probability, alias=PROBABILITY_COLUMN),
            ast.SelectItem(rule.sid, alias=SID_COLUMN),
        ],
        from_relation=ast.TableRef(source_table),
        where=rule.keep,
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)


def census_count_statement(sample_table: str) -> ast.SelectStatement:
    """``count(*)`` of a hashed sample's census, the rows stored with probability 1.

    :func:`membership` stores 1 for exactly the rows whose key hashes to 0
    (every row at ratio 1), and keeps them all: the count is the base table's.
    """
    return ast.SelectStatement(
        select_items=[ast.SelectItem(ast.func("count", ast.Star()), alias="n")],
        from_relation=ast.TableRef(sample_table),
        where=ast.BinaryOp("=", ast.ColumnRef(PROBABILITY_COLUMN), ast.Literal(1.0)),
    )


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
    spec: SampleSpec,
    source_columns: list[str],
    max_probability: float,
    subsample_count: int,
) -> ast.CreateTableStatement:
    """Second pass of stratified sampling: probabilistic per-stratum Bernoulli.

    ``randomized_table`` is the output of :func:`randomized_copy_statement`
    and ``probability_table`` that of :func:`strata_probability_statement`.
    A tuple is kept, with its stratum's probability and a subsample id, by
    the stratified :func:`membership` rule over the materialised draw and
    the joined per-stratum probability.

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
    rule = membership(spec, subsample_count, draw, probability)
    join_condition = ast.conjunction(
        [
            ast.null_safe_equal(
                ast.ColumnRef(column, table=source_alias),
                ast.ColumnRef(column, table=temp_alias),
            )
            for column in spec.columns
        ]
    )
    select = ast.SelectStatement(
        select_items=[
            *[
                ast.SelectItem(ast.ColumnRef(column, table=source_alias), alias=column)
                for column in source_columns
            ],
            ast.SelectItem(rule.probability, alias=PROBABILITY_COLUMN),
            ast.SelectItem(rule.sid, alias=SID_COLUMN),
        ],
        from_relation=ast.Join(
            left=ast.TableRef(randomized_table, alias=source_alias),
            right=ast.TableRef(probability_table, alias=temp_alias),
            condition=join_condition,
            join_type="INNER",
        ),
        where=ast.conjunction(
            [ast.BinaryOp("<", draw, ast.Literal(float(max_probability))), rule.keep]
        ),
    )
    return ast.CreateTableStatement(table_name=sample_table, as_select=select)

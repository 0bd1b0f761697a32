"""Each part of a rewrite renders the SQL recorded in ``data/rewritten_parts.json``.

The file holds the rendered SQL of every part — mean-like, count-distinct,
extreme — of each approximately answered statement of three sets:

* the 18 TPC-H texts and the 6 dashboard templates of the end-to-end
  benchmark, on the built-in engine (seed 1, scale factor 5);
* the fold corpus (:data:`tests.test_subsample_fold.CORPUS`) and
  :data:`DISTINCT`, on the built-in engine and on SQLite.

For :data:`DISTINCT` it also holds each answer, value for value: the fold
scales a distinct count in float64 exactly as the SQL once did.

Print a fresh file with ``PYTHONPATH=src:. python tests/test_rewritten_parts.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ExecutionOptions
from repro.core.rewriter import AqpRewriter

BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if BENCHMARKS not in sys.path:
    sys.path.insert(0, BENCHMARKS)

from e2e import build, queries  # noqa: E402  (the benchmark's data and statements)
from tests.test_subsample_fold import CORPUS, fold_session  # noqa: E402

RECORDED_PATH = Path(__file__).parent / "data" / "rewritten_parts.json"

#: key -> (statement, ExecutionOptions fields), over the fold corpus's tables.
DISTINCT: dict[str, tuple[str, dict]] = {
    "distinct_grouped": (
        "SELECT region, count(DISTINCT sale_id) AS d FROM sales GROUP BY region", {}
    ),
    "distinct_ungrouped": (
        "SELECT count(DISTINCT sale_id) AS d FROM sales WHERE price > 3", {}
    ),
    "distinct_mixed": (
        "SELECT region, avg(price) AS a, count(DISTINCT sale_id) AS d, max(price) AS m "
        "FROM sales GROUP BY region",
        {},
    ),
    "distinct_arithmetic": (
        "SELECT region, count(DISTINCT sale_id) / count(*) AS share FROM sales GROUP BY region",
        {},
    ),
    "distinct_in_tail": (
        "SELECT region, avg(price) AS a FROM sales GROUP BY region "
        "HAVING count(DISTINCT sale_id) > 1000 ORDER BY count(DISTINCT sale_id) DESC",
        {},
    ),
    "distinct_without_errors": (
        "SELECT qty, count(DISTINCT sale_id) AS d FROM sales GROUP BY qty ORDER BY qty",
        {"include_errors": False},
    ),
}


def _parts(session, text, params, options: dict) -> tuple[dict[str, str], object]:
    """Each part's SQL by kind (empty when answered exactly), and the answer."""
    answer = session.execute(text, params, ExecutionOptions(**options))
    if answer.is_exact:
        return {}, answer
    template = session.prepare(text)
    output = AqpRewriter(include_errors=options.get("include_errors", True)).rewrite(
        template.flattened, template.analysis, session.last_plan
    )
    render = session.connector.syntax_changer.to_sql
    return {kind: render(part) for kind, part in zip(output.fold.parts, output.parts)}, answer


def _rows(answer) -> list[list]:
    """The answer's rows as python values (numpy scalars unwrapped)."""
    return [
        [value.item() if isinstance(value, np.generic) else value for value in row]
        for row in answer.raw.fetchall()
    ]


def _benchmark_statements():
    ops = queries.tpch_ops() + queries.dash_ops(1)[: len(queries.DASH_TEMPLATES)]
    return [(op.group, op.text, op.params, {}) for op in ops]


def _fold_statements():
    statements = [(key, *entry) for key, entry in CORPUS.items()]
    statements += [(key, text, None, options) for key, (text, options) in DISTINCT.items()]
    return statements


def record() -> dict:
    """The parts (and the count-distinct answers) of every statement."""
    recorded: dict = {"benchmark": {}, "fold": {}, "answers": {}}
    database, connection = build.build_engine(build.generate(1, build.FULL.scale_factor))
    try:
        for key, text, params, options in _benchmark_statements():
            parts, _answer = _parts(connection.session, text, params, options)
            if parts:
                recorded["benchmark"][key] = parts
    finally:
        connection.close()
        database.close()
    for backend in ("builtin", "sqlite"):
        session = fold_session(backend)
        recorded["fold"][backend], recorded["answers"][backend] = {}, {}
        try:
            for key, text, params, options in _fold_statements():
                parts, answer = _parts(session, text, params, options)
                recorded["fold"][backend][key] = parts
                if key in DISTINCT:
                    recorded["answers"][backend][key] = {
                        "columns": answer.raw.column_names,
                        "rows": _rows(answer),
                    }
        finally:
            session.close()
    return recorded


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED_PATH.read_text())


@pytest.fixture(scope="module")
def fresh() -> dict:
    return record()


def test_every_part_renders_its_recorded_sql(fresh, recorded):
    assert fresh["benchmark"] == recorded["benchmark"]
    assert fresh["fold"] == recorded["fold"]


def test_a_count_distinct_part_returns_bare_counts(fresh):
    for backend, statements in fresh["fold"].items():
        for key in DISTINCT:
            sql = statements[key]["count_distinct"]
            assert "/" not in sql and "_err" not in sql, (backend, key, sql)


def _same(ours, theirs) -> bool:
    if isinstance(ours, float) and isinstance(theirs, float):
        return ours == theirs or (math.isnan(ours) and math.isnan(theirs))
    return type(ours) is type(theirs) and ours == theirs


def test_count_distinct_answers_are_the_recorded_values(fresh, recorded):
    for backend, answers in recorded["answers"].items():
        for key, expected in answers.items():
            answer = fresh["answers"][backend][key]
            assert answer["columns"] == expected["columns"], (backend, key)
            assert len(answer["rows"]) == len(expected["rows"]), (backend, key)
            for ours, theirs in zip(answer["rows"], expected["rows"]):
                assert all(_same(a, b) for a, b in zip(ours, theirs)), (backend, key, ours)


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))

"""Correctness checks, accuracy metrics and input pinning.

An operation *fails* when it raised, returned a schema other than the exact
answer's, returned a group the exact answer does not have, or — when it was
answered exactly — differs from the reference bit for bit (the rule of
``ResultSet.equals``: NaN equals NaN).  Accuracy is never a failure: an
approximate answer far from the truth shows in ``rel_err`` / ``ci_coverage``
and is reported per statement shape.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from e2e.queries import Op


@dataclass
class Answer:
    """What a client saw for one operation."""

    names: list[str]
    rows: list[tuple]
    approximate: bool
    # The in-process ``ApproximateResult`` (error bars); None over the wire.
    result: object | None = None


@dataclass
class Reference:
    names: list[str]
    rows: list[tuple]
    by_group: dict[tuple, tuple] = field(default_factory=dict)


def make_reference(op: Op, exact: Answer) -> Reference:
    by_group = {row[: op.group_cols]: row for row in exact.rows}
    return Reference(exact.names, exact.rows, by_group)


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def rows_identical(left: list[tuple], right: list[tuple]) -> bool:
    if len(left) != len(right):
        return False
    if left == right:
        return True
    return all(
        len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


def is_correct(op: Op, answer: Answer, reference: Reference, data_stable: bool = True) -> bool:
    """The ``failed_frac`` rules.  ``data_stable=False`` (the table grew since
    the reference was taken) keeps the schema and group rules only."""
    if answer.names != reference.names:
        return False
    if op.group_cols and any(row[: op.group_cols] not in reference.by_group for row in answer.rows):
        return False
    if data_stable and not answer.approximate:
        return rows_identical(answer.rows, reference.rows)
    return True


def _number(value) -> float | None:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return None if math.isnan(number) else number


@dataclass
class Accuracy:
    """Actual error of one approximate answer against the exact one."""

    shape: str
    relative_errors: list[float] = field(default_factory=list)
    covered: int = 0
    intervals: int = 0
    groups_returned: int = 0
    groups_exact: int = 0

    @property
    def mean_relative_error(self) -> float | None:
        return statistics.fmean(self.relative_errors) if self.relative_errors else None


def accuracy(op: Op, answer: Answer, reference: Reference) -> Accuracy:
    """Relative error per (group, estimate) and 95 % interval coverage."""
    found = Accuracy(op.group, groups_returned=len(answer.rows), groups_exact=len(reference.rows))
    margins = None
    if answer.result is not None:
        margins = [answer.result.margins(name) for name in answer.names[op.group_cols :]]
    for row_index, row in enumerate(answer.rows):
        exact_row = reference.by_group.get(row[: op.group_cols])
        if exact_row is None:
            continue
        for column in range(op.group_cols, len(row)):
            estimate, truth = _number(row[column]), _number(exact_row[column])
            if estimate is None or truth is None:
                continue
            if truth != 0:
                found.relative_errors.append(abs(estimate - truth) / abs(truth))
            if margins is not None:
                found.intervals += 1
                margin = float(margins[column - op.group_cols][row_index])
                found.covered += abs(estimate - truth) <= margin
    return found


def median_relative_error(per_op: list[Accuracy]) -> float | None:
    """Median over approximately answered statements of their mean relative error."""
    means = [a.mean_relative_error for a in per_op if a.mean_relative_error is not None]
    return statistics.median(means) if means else None


def coverage(per_op: list[Accuracy]) -> float | None:
    intervals = sum(a.intervals for a in per_op)
    return sum(a.covered for a in per_op) / intervals if intervals else None


# ---------------------------------------------------------------------------
# input pinning and answer checksums
# ---------------------------------------------------------------------------


def _feed_columns(digest, name: str, columns: dict[str, np.ndarray]) -> None:
    digest.update(name.encode())
    for column, values in columns.items():
        digest.update(f"{column}:{values.dtype}:{len(values)}".encode())
        if values.dtype == object:
            digest.update("\x00".join(map(str, values)).encode())
        else:
            digest.update(np.ascontiguousarray(values).tobytes())


def inputs_sha(dataset, ops: list[Op]) -> str:
    """SHA-256 over everything the program receives: tables, appended rows and
    the statements with their parameters."""
    digest = hashlib.sha256()
    for name, columns in dataset.tables.items():
        _feed_columns(digest, name, columns)
    _feed_columns(digest, "append_source", dataset.append_source)
    for op in ops:
        digest.update(repr((op.key, op.text, op.params)).encode())
    return digest.hexdigest()


def answers_sha(answers: dict[str, Answer | Reference]) -> str:
    """Checksum of (schema, rows) per operation key, for run-to-run parity."""
    digest = hashlib.sha256()
    for key in sorted(answers):
        digest.update(repr((key, answers[key].names, answers[key].rows)).encode())
    return digest.hexdigest()

"""Abstract syntax tree for the supported SQL subset.

The same AST is shared by the built-in engine (which executes it) and by the
VerdictDB middleware (which rewrites it and renders it back to SQL text for
whichever backend is in use).  Every node therefore knows how to render
itself with :meth:`SqlNode.to_sql`, optionally through a dialect object that
controls identifier quoting and function spelling (see
``repro.connectors.dialects``).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence


_SAFE_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class _DefaultDialect:
    """Minimal dialect used when rendering without an explicit backend."""

    identifier_quote = '"'

    def quote_identifier(self, name: str) -> str:
        if _SAFE_IDENTIFIER.match(name):
            return name
        return f'{self.identifier_quote}{name}{self.identifier_quote}'

    def rename_function(self, name: str) -> str:
        return name


DEFAULT_DIALECT = _DefaultDialect()


def quote_string(value: str) -> str:
    """Render a string literal with single quotes, escaping embedded quotes."""
    return "'" + value.replace("'", "''") + "'"


class SqlNode:
    """Base class for every AST node."""

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_sql()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(SqlNode):
    """Base class for scalar expressions."""

    def children(self) -> tuple[Expression, ...]:
        """The direct sub-expressions (used by analysis passes)."""
        return ()

    def walk(self) -> Iterable[Expression]:
        """Yield this expression and every nested sub-expression, depth
        first with each node before its children, from an explicit stack (a
        chain of a thousand ORs is a thousand levels deep)."""
        pending: list[Expression] = [self]
        while pending:
            node = pending.pop()
            yield node
            children = node.children()
            if children:
                pending += reversed(children)


@dataclass
class Literal(Expression):
    """A numeric, string, boolean or NULL literal."""

    value: object

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return quote_string(self.value)
        return repr(self.value) if isinstance(self.value, float) else str(self.value)


#: The comparison operators of :class:`BinaryOp` — the ones whose constant
#: operands literal lifting may parameterise.
COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})


def positional_parameter_name(index: int) -> str:
    """Canonical name of the ``index``-th positional placeholder (``p<i>``).

    The single definition of the qmark naming convention: the parser names
    ``?`` placeholders with it and the binding layer builds the parameter
    mapping with it — they must agree or every positional query would fail
    to bind.
    """
    return f"p{index}"


@dataclass(frozen=True)
class Placeholder(Expression):
    """A query parameter: positional ``?`` (qmark) or named ``:name``.

    The parser canonicalizes positional placeholders immediately: a ``?``
    becomes ``Placeholder(index=i, name="p<i>")`` where ``i`` is its 0-based
    position in the template text.  ``index`` is therefore the marker of a
    positional origin (None for user-named parameters) and drives binding
    from a parameter *sequence*; ``name`` is always set and drives binding
    from a mapping.  Rendering always emits the named form, so every
    placeholder renders distinctly — the association with its value survives
    rewriting layers that drop, duplicate or reorder fragments, and
    rendered-SQL keys (e.g. the grouped executor's aggregate substitution)
    can never conflate two different parameters.
    """

    index: int | None = None
    name: str | None = None

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        if self.name is not None:
            return f":{self.name}"
        return "?"  # pragma: no cover - parser always names placeholders


@dataclass
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        column = dialect.quote_identifier(self.name)
        if self.table:
            return f"{dialect.quote_identifier(self.table)}.{column}"
        return column


@dataclass
class Star(Expression):
    """``*`` or ``table.*`` in a select list or inside count(*)."""

    table: str | None = None

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        if self.table:
            return f"{dialect.quote_identifier(self.table)}.*"
        return "*"


@dataclass
class UnaryOp(Expression):
    """Unary operators: ``-expr``, ``NOT expr``."""

    op: str
    operand: Expression

    def children(self):
        return (self.operand,)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.to_sql(dialect)})"
        return f"{self.op}({self.operand.to_sql(dialect)})"


@dataclass
class BinaryOp(Expression):
    """Binary arithmetic, comparison and logical operators."""

    op: str
    left: Expression
    right: Expression

    def children(self):
        return (self.left, self.right)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        op = self.op.upper()
        if op not in ("AND", "OR"):
            return f"({self.left.to_sql(dialect)} {self.op} {self.right.to_sql(dialect)})"
        # A left-nested chain of one AND / OR renders flat, ``(a OR b OR c)``:
        # the parser reads that back as the same tree, and a long chain
        # neither recurses here nor nests one parenthesis per term.
        terms, left = [self.right], self.left
        while isinstance(left, BinaryOp) and left.op.upper() == op:
            terms.append(left.right)
            left = left.left
        terms.append(left)
        return "(" + f" {self.op} ".join([term.to_sql(dialect) for term in reversed(terms)]) + ")"


@dataclass
class FunctionCall(Expression):
    """A scalar or aggregate function call, optionally with DISTINCT."""

    name: str
    args: list[Expression] = field(default_factory=list)
    distinct: bool = False

    def children(self):
        return tuple(self.args)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        rendered_name = dialect.rename_function(self.name.lower())
        args = ", ".join(arg.to_sql(dialect) for arg in self.args)
        if self.distinct:
            return f"{rendered_name}(DISTINCT {args})"
        return f"{rendered_name}({args})"


@dataclass
class WindowFunction(Expression):
    """An aggregate evaluated ``OVER (PARTITION BY ...)``."""

    function: FunctionCall
    partition_by: list[Expression] = field(default_factory=list)

    def children(self):
        return (self.function, *self.partition_by)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        over = ""
        if self.partition_by:
            keys = ", ".join(expr.to_sql(dialect) for expr in self.partition_by)
            over = f"PARTITION BY {keys}"
        return f"{self.function.to_sql(dialect)} OVER ({over})"


@dataclass
class CaseWhen(Expression):
    """A searched CASE expression."""

    whens: list[tuple[Expression, Expression]]
    else_result: Expression | None = None

    def children(self):
        pairs = tuple(node for pair in self.whens for node in pair)
        return pairs if self.else_result is None else (*pairs, self.else_result)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        parts = ["CASE"]
        for condition, result in self.whens:
            parts.append(f"WHEN {condition.to_sql(dialect)} THEN {result.to_sql(dialect)}")
        if self.else_result is not None:
            parts.append(f"ELSE {self.else_result.to_sql(dialect)}")
        parts.append("END")
        return " ".join(parts)


@dataclass
class InList(Expression):
    """``expr [NOT] IN (value, ...)``."""

    operand: Expression
    values: list[Expression]
    negated: bool = False

    def children(self):
        return (self.operand, *self.values)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        values = ", ".join(value.to_sql(dialect) for value in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql(dialect)} {keyword} ({values}))"


@dataclass
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self):
        return (self.operand, self.low, self.high)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql(dialect)} {keyword} "
            f"{self.low.to_sql(dialect)} AND {self.high.to_sql(dialect)})"
        )


@dataclass
class LikePredicate(Expression):
    """``expr [NOT] LIKE pattern``."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self):
        return (self.operand, self.pattern)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql(dialect)} {keyword} {self.pattern.to_sql(dialect)})"


@dataclass
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self):
        return (self.operand,)

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql(dialect)} {keyword})"


@dataclass
class ScalarSubquery(Expression):
    """A subquery used as a scalar value, e.g. ``price > (SELECT avg(price) ...)``."""

    query: SelectStatement

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        return f"({self.query.to_sql(dialect)})"


# ---------------------------------------------------------------------------
# Relations (FROM clause)
# ---------------------------------------------------------------------------


class Relation(SqlNode):
    """Base class for table expressions appearing in a FROM clause."""


@dataclass
class TableRef(Relation):
    """A base table reference, optionally aliased."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        """Name under which the table's columns are visible to expressions."""
        return self.alias or self.name

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        sql = dialect.quote_identifier(self.name)
        if self.alias:
            sql += f" AS {dialect.quote_identifier(self.alias)}"
        return sql


@dataclass
class DerivedTable(Relation):
    """A subquery in the FROM clause; always aliased."""

    query: SelectStatement
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        return f"({self.query.to_sql(dialect)}) AS {dialect.quote_identifier(self.alias)}"


@dataclass
class Join(Relation):
    """A binary join.  Only inner (and cross) joins are supported."""

    left: Relation
    right: Relation
    condition: Expression | None = None
    join_type: str = "INNER"

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        sql = f"{self.left.to_sql(dialect)} {self.join_type} JOIN {self.right.to_sql(dialect)}"
        if self.condition is not None:
            sql += f" ON {self.condition.to_sql(dialect)}"
        return sql


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(SqlNode):
    """One item in the select list: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None

    def output_name(self, position: int) -> str:
        """Column name this item produces in the result set."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        if isinstance(self.expression, Star):
            return "*"
        return f"col_{position}"

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        sql = self.expression.to_sql(dialect)
        if self.alias:
            sql += f" AS {dialect.quote_identifier(self.alias)}"
        return sql


@dataclass
class OrderItem(SqlNode):
    """One ORDER BY key with its direction."""

    expression: Expression
    ascending: bool = True

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        return f"{self.expression.to_sql(dialect)} {'ASC' if self.ascending else 'DESC'}"


class Statement(SqlNode):
    """Base class for executable statements."""


@dataclass
class SelectStatement(Statement):
    """A SELECT query over the supported subset (see DESIGN.md)."""

    select_items: list[SelectItem]
    from_relation: Relation | None = None
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql(dialect) for item in self.select_items))
        if self.from_relation is not None:
            parts.append("FROM " + self.from_relation.to_sql(dialect))
        if self.where is not None:
            parts.append("WHERE " + self.where.to_sql(dialect))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(expr.to_sql(dialect) for expr in self.group_by))
        if self.having is not None:
            parts.append("HAVING " + self.having.to_sql(dialect))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(item.to_sql(dialect) for item in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return " ".join(parts)


@dataclass
class ColumnDefinition(SqlNode):
    """A column name/type pair in CREATE TABLE."""

    name: str
    type_name: str

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        return f"{dialect.quote_identifier(self.name)} {self.type_name}"


@dataclass
class CreateTableStatement(Statement):
    """``CREATE TABLE [IF NOT EXISTS] name (cols)`` or ``... AS SELECT``."""

    table_name: str
    columns: list[ColumnDefinition] = field(default_factory=list)
    as_select: SelectStatement | None = None
    if_not_exists: bool = False

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        clause = "IF NOT EXISTS " if self.if_not_exists else ""
        name = dialect.quote_identifier(self.table_name)
        if self.as_select is not None:
            return f"CREATE TABLE {clause}{name} AS {self.as_select.to_sql(dialect)}"
        columns = ", ".join(column.to_sql(dialect) for column in self.columns)
        return f"CREATE TABLE {clause}{name} ({columns})"


@dataclass
class DropTableStatement(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    table_name: str
    if_exists: bool = False

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        clause = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {clause}{dialect.quote_identifier(self.table_name)}"


@dataclass
class InsertStatement(Statement):
    """``INSERT INTO name [(cols)] VALUES (...), (...)`` or ``... SELECT``."""

    table_name: str
    columns: list[str] = field(default_factory=list)
    rows: list[list[Expression]] = field(default_factory=list)
    from_select: SelectStatement | None = None

    def to_sql(self, dialect=DEFAULT_DIALECT) -> str:
        name = dialect.quote_identifier(self.table_name)
        columns = ""
        if self.columns:
            columns = " (" + ", ".join(dialect.quote_identifier(c) for c in self.columns) + ")"
        if self.from_select is not None:
            return f"INSERT INTO {name}{columns} {self.from_select.to_sql(dialect)}"
        rendered_rows = ", ".join(
            "(" + ", ".join(value.to_sql(dialect) for value in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {name}{columns} VALUES {rendered_rows}"


# ---------------------------------------------------------------------------
# AST helpers used throughout the middleware
# ---------------------------------------------------------------------------


def column(name: str, table: str | None = None) -> ColumnRef:
    """Shorthand constructor used heavily by the rewriter and tests."""
    return ColumnRef(name=name, table=table)


def literal(value: object) -> Literal:
    """Shorthand literal constructor."""
    return Literal(value=value)


def func(name: str, *args: Expression, distinct: bool = False) -> FunctionCall:
    """Shorthand function-call constructor."""
    return FunctionCall(name=name, args=list(args), distinct=distinct)


def conjunction(predicates: Sequence[Expression]) -> Expression | None:
    """AND together a sequence of predicates (None for an empty sequence)."""
    result: Expression | None = None
    for predicate in predicates:
        result = predicate if result is None else BinaryOp("AND", result, predicate)
    return result


def flatten_and(expression: Expression) -> list[Expression]:
    """Split nested ``AND``s into a flat list of conjuncts (conjunction's inverse)."""
    conjuncts: list[Expression] = []
    pending = [expression]
    while pending:
        node = pending.pop()
        if isinstance(node, BinaryOp) and node.op.upper() == "AND":
            pending += (node.right, node.left)
        else:
            conjuncts.append(node)
    return conjuncts


def null_safe_equal(left: Expression, right: Expression) -> Expression:
    """``left = right OR (left IS NULL AND right IS NULL)``: NULL equals NULL.

    Spelled in plain SQL so every backend runs it unchanged; the built-in
    engine recognises the shape (:func:`null_safe_operands`) and joins on it
    as on ``=``.
    """
    both_null = BinaryOp("AND", IsNull(left), IsNull(right))
    return BinaryOp("OR", BinaryOp("=", left, right), both_null)


def null_safe_operands(expression: Expression) -> tuple[Expression, Expression] | None:
    """``(left, right)`` of a :func:`null_safe_equal` expression, else None."""
    if not (isinstance(expression, BinaryOp) and expression.op.upper() == "OR"):
        return None
    equal, both_null = expression.left, expression.right
    if not (
        isinstance(equal, BinaryOp)
        and equal.op == "="
        and isinstance(both_null, BinaryOp)
        and both_null.op.upper() == "AND"
    ):
        return None
    tested = [
        test.operand
        for test in (both_null.left, both_null.right)
        if isinstance(test, IsNull) and not test.negated
    ]
    if tested in ([equal.left, equal.right], [equal.right, equal.left]):
        return equal.left, equal.right
    return None


def transform_expression(
    expression: Expression, visit: Callable[[Expression], Expression | None]
) -> Expression:
    """Rebuild an expression tree top-down.

    ``visit(node)`` may return a replacement expression — which is used as-is,
    without recursing into it — or None to keep the node and transform its
    children.  Scalar subqueries are treated as leaves: their inner statements
    are never descended into.  Used by the executor's post-aggregation
    substitution and by literal lifting (``repro.api.binding``).
    """
    replaced = visit(expression)
    if replaced is not None:
        return replaced
    if isinstance(expression, UnaryOp):
        return dataclasses.replace(
            expression, operand=transform_expression(expression.operand, visit)
        )
    if isinstance(expression, BinaryOp):
        return dataclasses.replace(
            expression,
            left=transform_expression(expression.left, visit),
            right=transform_expression(expression.right, visit),
        )
    if isinstance(expression, FunctionCall):
        return dataclasses.replace(
            expression,
            args=[transform_expression(argument, visit) for argument in expression.args],
        )
    if isinstance(expression, WindowFunction):
        return dataclasses.replace(
            expression,
            function=transform_expression(expression.function, visit),
            partition_by=[
                transform_expression(key, visit) for key in expression.partition_by
            ],
        )
    if isinstance(expression, CaseWhen):
        return dataclasses.replace(
            expression,
            whens=[
                (transform_expression(condition, visit), transform_expression(result, visit))
                for condition, result in expression.whens
            ],
            else_result=(
                None
                if expression.else_result is None
                else transform_expression(expression.else_result, visit)
            ),
        )
    if isinstance(expression, InList):
        return dataclasses.replace(
            expression,
            operand=transform_expression(expression.operand, visit),
            values=[transform_expression(value, visit) for value in expression.values],
        )
    if isinstance(expression, Between):
        return dataclasses.replace(
            expression,
            operand=transform_expression(expression.operand, visit),
            low=transform_expression(expression.low, visit),
            high=transform_expression(expression.high, visit),
        )
    if isinstance(expression, LikePredicate):
        return dataclasses.replace(
            expression,
            operand=transform_expression(expression.operand, visit),
            pattern=transform_expression(expression.pattern, visit),
        )
    if isinstance(expression, IsNull):
        return dataclasses.replace(
            expression, operand=transform_expression(expression.operand, visit)
        )
    return expression


def base_tables(relation: Relation | None) -> list[TableRef]:
    """Collect every base-table reference in a FROM tree (depth-first)."""
    tables: list[TableRef] = []

    def visit(node: Relation | None) -> None:
        if node is None:
            return
        if isinstance(node, TableRef):
            tables.append(node)
        elif isinstance(node, Join):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, DerivedTable):
            tables.extend(base_tables(node.query.from_relation))

    visit(relation)
    return tables

"""Recursive-descent SQL parser producing the AST in :mod:`repro.sqlengine.sqlast`.

The grammar covers the query class from Table 1 of the VerdictDB paper plus
the statements the middleware itself emits: SELECT with joins, derived
tables, window functions, CASE expressions, GROUP BY / HAVING / ORDER BY /
LIMIT, CREATE TABLE (AS SELECT), DROP TABLE and INSERT.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sqlengine import sqlast as ast
from repro.sqlengine.tokens import Token, TokenType, tokenize


def parse(
    sql: str | list[Token], literal_indices: dict[int, int] | None = None
) -> ast.Statement:
    """Parse one SQL statement, given as text or as its :func:`tokenize` list.

    ``literal_indices``, when given, receives ``id(literal) -> index`` of the
    NUMBER / STRING token each such :class:`~ast.Literal` of the AST was
    parsed from.
    """
    try:
        return Parser(sql, literal_indices).parse_statement()
    except RecursionError:
        raise ParseError("statement nests too deeply") from None


def parse_select(sql: str) -> ast.SelectStatement:
    """Parse ``sql`` and require it to be a SELECT statement."""
    statement = parse(sql)
    if not isinstance(statement, ast.SelectStatement):
        raise ParseError("expected a SELECT statement")
    return statement


def literal_value(token: Token) -> object:
    """The value of a NUMBER (int, or float when written with ``.`` / an
    exponent) or STRING token: the one literal conversion there is."""
    text = token.value
    if token.type is TokenType.STRING:
        return text
    return float(text) if ("." in text or "e" in text or "E" in text) else int(text)


class Parser:
    """Single-statement recursive-descent parser."""

    def __init__(
        self, sql: str | list[Token], literal_indices: dict[int, int] | None = None
    ) -> None:
        self._tokens = tokenize(sql) if isinstance(sql, str) else sql
        self._literal_indices = {} if literal_indices is None else literal_indices
        self._index = 0
        # Number of positional ('?') placeholders seen so far; gives each its
        # 0-based position in order of appearance.
        self._positional_parameters = 0

    # -- token utilities ---------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _check(self, token_type: TokenType, value: str | None = None) -> bool:
        return self._current.matches(token_type, value)

    def _check_keyword(self, *keywords: str) -> bool:
        return self._current.type is TokenType.KEYWORD and self._current.value in keywords

    def _accept(self, token_type: TokenType, value: str | None = None) -> Token | None:
        if self._check(token_type, value):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, value: str | None = None) -> Token:
        if self._check(token_type, value):
            return self._advance()
        raise ParseError(
            f"expected {value or token_type.name} but found {self._current.value!r}",
            token=self._current,
        )

    def _expect_keyword(self, keyword: str) -> Token:
        return self._expect(TokenType.KEYWORD, keyword)

    # -- statements --------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        """Parse exactly one statement followed by an optional ';' and EOF."""
        if self._check_keyword("SELECT"):
            statement: ast.Statement = self._parse_select()
        elif self._check_keyword("CREATE"):
            statement = self._parse_create_table()
        elif self._check_keyword("DROP"):
            statement = self._parse_drop_table()
        elif self._check_keyword("INSERT"):
            statement = self._parse_insert()
        else:
            raise ParseError(
                f"unsupported statement starting with {self._current.value!r}",
                token=self._current,
            )
        self._accept(TokenType.PUNCTUATION, ";")
        if not self._check(TokenType.EOF):
            raise ParseError(
                f"unexpected trailing input near {self._current.value!r}", token=self._current
            )
        return statement

    def _parse_create_table(self) -> ast.CreateTableStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        if_not_exists = False
        if self._accept(TokenType.KEYWORD, "IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        table_name = self._parse_identifier("table name")
        if self._accept(TokenType.KEYWORD, "AS"):
            select = self._parse_select()
            return ast.CreateTableStatement(
                table_name=table_name, as_select=select, if_not_exists=if_not_exists
            )
        self._expect(TokenType.PUNCTUATION, "(")
        columns: list[ast.ColumnDefinition] = []
        while True:
            name = self._parse_identifier("column name")
            type_name = self._parse_type_name()
            columns.append(ast.ColumnDefinition(name=name, type_name=type_name))
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.CreateTableStatement(
            table_name=table_name, columns=columns, if_not_exists=if_not_exists
        )

    def _parse_type_name(self) -> str:
        token = self._advance()
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise ParseError("expected a type name", token=token)
        type_name = token.value
        # Consume an optional precision such as DECIMAL(10, 2).
        if self._accept(TokenType.PUNCTUATION, "("):
            while not self._accept(TokenType.PUNCTUATION, ")"):
                self._advance()
        return type_name

    def _parse_drop_table(self) -> ast.DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept(TokenType.KEYWORD, "IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        table_name = self._parse_identifier("table name")
        return ast.DropTableStatement(table_name=table_name, if_exists=if_exists)

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table_name = self._parse_identifier("table name")
        columns: list[str] = []
        if self._accept(TokenType.PUNCTUATION, "("):
            while True:
                columns.append(self._parse_identifier("column name"))
                if not self._accept(TokenType.PUNCTUATION, ","):
                    break
            self._expect(TokenType.PUNCTUATION, ")")
        if self._check_keyword("SELECT"):
            return ast.InsertStatement(
                table_name=table_name, columns=columns, from_select=self._parse_select()
            )
        self._expect_keyword("VALUES")
        rows: list[list[ast.Expression]] = []
        while True:
            self._expect(TokenType.PUNCTUATION, "(")
            row: list[ast.Expression] = []
            while True:
                row.append(self._parse_expression())
                if not self._accept(TokenType.PUNCTUATION, ","):
                    break
            self._expect(TokenType.PUNCTUATION, ")")
            rows.append(row)
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        return ast.InsertStatement(table_name=table_name, columns=columns, rows=rows)

    # -- SELECT ------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        distinct = False
        if self._accept(TokenType.KEYWORD, "DISTINCT"):
            distinct = True
        else:
            self._accept(TokenType.KEYWORD, "ALL")
        select_items = [self._parse_select_item()]
        while self._accept(TokenType.PUNCTUATION, ","):
            select_items.append(self._parse_select_item())

        from_relation = None
        if self._accept(TokenType.KEYWORD, "FROM"):
            from_relation = self._parse_from()

        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()

        group_by: list[ast.Expression] = []
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_expression())
            while self._accept(TokenType.PUNCTUATION, ","):
                group_by.append(self._parse_expression())

        having = None
        if self._accept(TokenType.KEYWORD, "HAVING"):
            having = self._parse_expression()

        order_by: list[ast.OrderItem] = []
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept(TokenType.PUNCTUATION, ","):
                order_by.append(self._parse_order_item())

        limit = None
        offset = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            limit = self._parse_count()
            if self._accept(TokenType.KEYWORD, "OFFSET"):
                offset = self._parse_count()

        return ast.SelectStatement(
            select_items=select_items,
            from_relation=from_relation,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_count(self) -> int:
        token = self._expect(TokenType.NUMBER)
        value = literal_value(token)
        if not isinstance(value, int):
            raise ParseError(f"expected an integer but found {token.value!r}", token=token)
        return value

    def _parse_select_item(self) -> ast.SelectItem:
        expression = self._parse_expression()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._parse_identifier("alias")
        elif self._check(TokenType.IDENTIFIER):
            alias = self._advance().value
        return ast.SelectItem(expression=expression, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self._parse_expression()
        ascending = True
        if self._accept(TokenType.KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(TokenType.KEYWORD, "ASC")
        return ast.OrderItem(expression=expression, ascending=ascending)

    # -- FROM --------------------------------------------------------------

    def _parse_from(self) -> ast.Relation:
        relation = self._parse_table_factor()
        while True:
            join_type = None
            if self._check_keyword("JOIN", "INNER", "LEFT", "CROSS"):
                if self._accept(TokenType.KEYWORD, "INNER"):
                    join_type = "INNER"
                elif self._accept(TokenType.KEYWORD, "LEFT"):
                    self._accept(TokenType.KEYWORD, "OUTER")
                    join_type = "LEFT"
                elif self._accept(TokenType.KEYWORD, "CROSS"):
                    join_type = "CROSS"
                else:
                    join_type = "INNER"
                self._expect_keyword("JOIN")
            elif self._accept(TokenType.PUNCTUATION, ","):
                join_type = "CROSS"
            else:
                break
            right = self._parse_table_factor()
            condition = None
            if self._accept(TokenType.KEYWORD, "ON"):
                condition = self._parse_expression()
            relation = ast.Join(
                left=relation, right=right, condition=condition, join_type=join_type
            )
        return relation

    def _parse_table_factor(self) -> ast.Relation:
        if self._accept(TokenType.PUNCTUATION, "("):
            if self._check_keyword("SELECT"):
                query = self._parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                alias = self._parse_relation_alias(required=True)
                return ast.DerivedTable(query=query, alias=alias)
            relation = self._parse_from()
            self._expect(TokenType.PUNCTUATION, ")")
            return relation
        name = self._parse_identifier("table name")
        alias = self._parse_relation_alias(required=False)
        return ast.TableRef(name=name, alias=alias)

    def _parse_relation_alias(self, required: bool) -> str | None:
        if self._accept(TokenType.KEYWORD, "AS"):
            return self._parse_identifier("alias")
        if self._check(TokenType.IDENTIFIER):
            return self._advance().value
        if required:
            raise ParseError("derived tables require an alias", token=self._current)
        return None

    def _parse_identifier(self, what: str) -> str:
        if self._check(TokenType.IDENTIFIER):
            return self._advance().value
        raise ParseError(f"expected {what} but found {self._current.value!r}", token=self._current)

    # -- expressions (precedence climbing) -----------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept(TokenType.KEYWORD, "OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept(TokenType.KEYWORD, "AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept(TokenType.KEYWORD, "NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()
        negated = bool(self._accept(TokenType.KEYWORD, "NOT"))
        if self._accept(TokenType.KEYWORD, "IN"):
            self._expect(TokenType.PUNCTUATION, "(")
            values = [self._parse_expression()]
            while self._accept(TokenType.PUNCTUATION, ","):
                values.append(self._parse_expression())
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.InList(operand=left, values=values, negated=negated)
        if self._accept(TokenType.KEYWORD, "LIKE"):
            return ast.LikePredicate(
                operand=left, pattern=self._parse_additive(), negated=negated
            )
        if self._accept(TokenType.KEYWORD, "BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(operand=left, low=low, high=high, negated=negated)
        if negated:
            raise ParseError("expected IN, LIKE or BETWEEN after NOT", token=self._current)
        if self._accept(TokenType.KEYWORD, "IS"):
            is_negated = bool(self._accept(TokenType.KEYWORD, "NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(operand=left, negated=is_negated)
        if self._current.type is TokenType.OPERATOR and self._current.value in (
            "=", "<", ">", "<=", ">=", "<>", "!=",
        ):
            op = self._advance().value
            if op == "!=":
                op = "<>"
            right = self._parse_additive()
            return ast.BinaryOp(op, left, right)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._current.type is TokenType.OPERATOR and self._current.value in ("+", "-", "||"):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self._current.type is TokenType.OPERATOR and self._current.value in ("*", "/", "%"):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._check(TokenType.OPERATOR, "-"):
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        if self._check(TokenType.OPERATOR, "+"):
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._current

        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            literal = ast.Literal(literal_value(token))
            self._literal_indices[id(literal)] = self._index
            self._advance()
            return literal
        if token.type is TokenType.KEYWORD and token.value in ("TRUE", "FALSE"):
            self._advance()
            return ast.Literal(token.value == "TRUE")
        if token.type is TokenType.KEYWORD and token.value == "NULL":
            self._advance()
            return ast.Literal(None)
        if token.type is TokenType.KEYWORD and token.value == "CASE":
            return self._parse_case()
        if token.type is TokenType.KEYWORD and token.value == "CAST":
            return self._parse_cast()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.Star()
        if token.type is TokenType.PARAMETER:
            self._advance()
            if token.value:
                return ast.Placeholder(name=token.value)
            # Positional placeholders are canonicalized at birth: every '?'
            # becomes the named parameter :p<i> carrying its 0-based position.
            # Names — not positions in rendered text — are what survive the
            # rewriting layers (which may drop, duplicate or reorder
            # fragments) and what keeps rendered-SQL keying unambiguous
            # (two distinct '?' must never render identically: the grouped
            # executor keys aggregates by their rendered SQL).
            position = self._positional_parameters
            self._positional_parameters += 1
            return ast.Placeholder(
                index=position, name=ast.positional_parameter_name(position)
            )
        if self._accept(TokenType.PUNCTUATION, "("):
            if self._check_keyword("SELECT"):
                query = self._parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.ScalarSubquery(query=query)
            expression = self._parse_expression()
            self._expect(TokenType.PUNCTUATION, ")")
            return expression
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expression()
        raise ParseError(f"unexpected token {token.value!r}", token=token)

    def _parse_cast(self) -> ast.Expression:
        self._expect_keyword("CAST")
        self._expect(TokenType.PUNCTUATION, "(")
        operand = self._parse_expression()
        self._expect_keyword("AS")
        type_name = self._parse_type_name()
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.FunctionCall(name="cast_" + type_name.lower(), args=[operand])

    def _parse_case(self) -> ast.CaseWhen:
        self._expect_keyword("CASE")
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept(TokenType.KEYWORD, "WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            whens.append((condition, result))
        else_result = None
        if self._accept(TokenType.KEYWORD, "ELSE"):
            else_result = self._parse_expression()
        self._expect_keyword("END")
        if not whens:
            raise ParseError("CASE requires at least one WHEN branch", token=self._current)
        return ast.CaseWhen(whens=whens, else_result=else_result)

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self._advance().value

        # Function call: identifier immediately followed by '('.
        if self._check(TokenType.PUNCTUATION, "("):
            return self._parse_function_call(name)

        # Qualified reference: table.column or table.*
        if self._accept(TokenType.PUNCTUATION, "."):
            if self._check(TokenType.OPERATOR, "*"):
                self._advance()
                return ast.Star(table=name)
            column_name = self._parse_identifier("column name")
            if self._check(TokenType.PUNCTUATION, "("):
                # Schema-qualified function names are not supported; treat the
                # trailing part as the function name for robustness.
                return self._parse_function_call(column_name)
            return ast.ColumnRef(name=column_name, table=name)
        return ast.ColumnRef(name=name)

    def _parse_function_call(self, name: str) -> ast.Expression:
        self._expect(TokenType.PUNCTUATION, "(")
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        args: list[ast.Expression] = []
        if not self._check(TokenType.PUNCTUATION, ")"):
            args.append(self._parse_expression())
            while self._accept(TokenType.PUNCTUATION, ","):
                args.append(self._parse_expression())
        if distinct and len(args) != 1:
            raise ParseError(
                "DISTINCT aggregates must have exactly one argument", self._current
            )
        self._expect(TokenType.PUNCTUATION, ")")
        call = ast.FunctionCall(name=name.lower(), args=args, distinct=distinct)

        if self._accept(TokenType.KEYWORD, "OVER"):
            self._expect(TokenType.PUNCTUATION, "(")
            partition_by: list[ast.Expression] = []
            if self._accept(TokenType.KEYWORD, "PARTITION"):
                self._expect_keyword("BY")
                partition_by.append(self._parse_expression())
                while self._accept(TokenType.PUNCTUATION, ","):
                    partition_by.append(self._parse_expression())
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.WindowFunction(function=call, partition_by=partition_by)
        return call

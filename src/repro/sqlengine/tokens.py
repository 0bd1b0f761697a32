"""SQL tokenizer for the built-in relational engine.

One compiled master regular expression, a named group per lexical category,
drives :func:`tokenize`, which returns the flat list of :class:`Token`
objects the parser reads, terminated by an EOF token.

It understands the lexical subset needed by the middleware and by the
benchmark workloads: identifiers (optionally quoted with backticks or double
quotes), numeric literals (ASCII digits only) and string literals,
operators, punctuation, keywords, ``?`` / ``:name`` parameters and
``--`` / ``/* */`` comments.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.errors import TokenizeError


class TokenType(Enum):
    """Lexical category of a token."""

    KEYWORD = auto()
    IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    PARAMETER = auto()
    EOF = auto()

    # Members are singletons, so identity is their hash.  Enum's own
    # ``__hash__`` is a Python call, which would dominate hashing a token
    # stream (the session's shape index is keyed on one).
    __hash__ = object.__hash__


# Keywords are upper-cased during tokenization, so membership checks are
# case-insensitive for the parser.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "OFFSET", "AS", "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "IS",
        "NULL", "TRUE", "FALSE", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER",
        "CROSS", "ON", "USING", "DISTINCT", "ALL", "CASE", "WHEN", "THEN",
        "ELSE", "END", "ASC", "DESC", "UNION", "CREATE", "TABLE", "DROP",
        "INSERT", "INTO", "VALUES", "IF", "EXISTS", "OVER", "PARTITION",
        "CAST", "INTERVAL",
    }
)

# One match per token, whitespace before it included.  Alternatives are
# tried in order: comments before the ``-`` / ``/`` operators, numbers
# before the ``.`` punctuation.  A word or ``:name`` must start with a
# letter or ``_`` (checked in :func:`tokenize`: ``\w`` also matches digits
# beyond ASCII).  A string ends at a quote not followed by another, so an
# unterminated one (``'a''b``) cannot backtrack to a shorter string and fails
# at its opening quote.  Whatever no category takes is an error, reported at
# its position; since ``error`` takes any character, the leading ``\s*``
# never backtracks either.  (No possessive quantifiers: they need Python
# 3.11.)
_MASTER = re.compile(
    r"""
    \s*
    (?:
      (?P<skip>--[^\n]*|/\*.*?\*/|\Z)
    | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<quoted>"[^"]*"|`[^`]*`)
    | (?P<unterminated>/\*|['"`])
    | (?P<word>\w+)
    | (?P<named>:\w+)
    | (?P<qmark>\?)
    | (?P<operator><=|>=|<>|!=|\|\||[-+*/%<>=!])
    | (?P<punctuation>[(),.;])
    | (?P<error>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {
    "/*": "block comment",
    "'": "string literal",
    '"': "quoted identifier",
    "`": "quoted identifier",
}


class Token(NamedTuple):
    """A single lexical token.

    Attributes:
        type: lexical category.
        value: normalised text (keywords upper-cased, strings unquoted).
        position: character offset of the token in the original SQL text.
    """

    type: TokenType
    value: str
    position: int

    def matches(self, token_type: TokenType, value: str | None = None) -> bool:
        """Return True when the token has the given type (and value, if given)."""
        if self.type is not token_type:
            return False
        return value is None or self.value == value

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list of tokens terminated by an EOF token.

    Raises:
        TokenizeError: when an unexpected character or unterminated literal is
            encountered.
    """
    tokens: list[Token] = []
    for match in _MASTER.finditer(sql):
        group = match.lastgroup
        if group == "skip":
            continue
        value = match[group]
        position = match.start(group)
        if group == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise TokenizeError(f"unexpected character {value[0]!r}", position=position)
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, position))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, value, position))
        elif group == "punctuation":
            tokens.append(Token(TokenType.PUNCTUATION, value, position))
        elif group == "operator":
            tokens.append(Token(TokenType.OPERATOR, value, position))
        elif group == "number":
            tokens.append(Token(TokenType.NUMBER, value, position))
        elif group == "string":
            tokens.append(Token(TokenType.STRING, value[1:-1].replace("''", "'"), position))
        elif group == "quoted":
            tokens.append(Token(TokenType.IDENTIFIER, value[1:-1], position))
        elif group == "qmark":
            # Positional query parameter (DB-API "qmark" style).  The token
            # value is empty; the parser assigns the 0-based position.
            tokens.append(Token(TokenType.PARAMETER, "", position))
        elif group == "named":
            # Named query parameter (":name" style); value is the bare name.
            if not (value[1].isalpha() or value[1] == "_"):
                raise TokenizeError("unexpected character ':'", position=position)
            tokens.append(Token(TokenType.PARAMETER, value[1:], position))
        elif group == "unterminated":
            raise TokenizeError(f"unterminated {_UNTERMINATED[value]}", position=position)
        else:
            raise TokenizeError(f"unexpected character {value!r}", position=position)
    tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens

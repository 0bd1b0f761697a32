"""Tests for the SQL tokenizer.

The lexer is one master regular expression.  The character loop it replaced
is kept below as the oracle: a hypothesis property over a SQL-ish alphabet
checks that both give the same tokens, or the same error at the same
position.  The one intended difference is the digit rule: a number is
ASCII ``[0-9]`` only, where the loop accepted every ``str.isdigit``
character (``²``, ``١``).  The property therefore runs the loop with the
ASCII rule swapped in, and the difference from today's rule is asserted on
its own cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TokenizeError
from repro.sqlengine import tokens
from repro.sqlengine.tokens import KEYWORDS, TokenType, tokenize

try:  # the pattern parser behind re.compile
    from re import _parser as _regex_parser
except ImportError:  # Python 3.10
    import sre_parse as _regex_parser


def kinds(sql):
    return [token.type for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_upper_cased(self):
        assert values("select from where") == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_their_case(self):
        tokens = tokenize("myTable")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "myTable"

    def test_integer_and_float_literals(self):
        tokens = tokenize("42 3.14 .5 1e6 2.5e-3")
        assert [t.value for t in tokens[:-1]] == ["42", "3.14", ".5", "1e6", "2.5e-3"]
        assert all(t.type is TokenType.NUMBER for t in tokens[:-1])

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("'o''brien'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "o'brien"

    def test_quoted_identifiers_with_backticks_and_double_quotes(self):
        assert tokenize("`weird name`")[0].value == "weird name"
        assert tokenize('"another name"')[0].value == "another name"

    def test_operators_two_char_before_one_char(self):
        assert values("a <= b >= c <> d != e") == ["a", "<=", "b", ">=", "c", "<>", "d", "!=", "e"]

    def test_punctuation(self):
        assert values("f(a, b.c);") == ["f", "(", "a", ",", "b", ".", "c", ")", ";"]

    def test_ends_with_eof(self):
        assert tokenize("select 1")[-1].type is TokenType.EOF


class TestCommentsAndWhitespace:
    def test_line_comment_is_skipped(self):
        assert values("select 1 -- comment\n + 2") == ["SELECT", "1", "+", "2"]

    def test_block_comment_is_skipped(self):
        assert values("select /* hi */ 1") == ["SELECT", "1"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("select /* oops")

    def test_whitespace_variants(self):
        assert values("select\n\t1") == ["SELECT", "1"]


class TestErrors:
    def test_unterminated_string_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("select 'unterminated")

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(TokenizeError):
            tokenize("select `broken")

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(TokenizeError) as excinfo:
            tokenize("select @")
        assert excinfo.value.position == 7

    def test_token_matches_helper(self):
        token = tokenize("select")[0]
        assert token.matches(TokenType.KEYWORD, "SELECT")
        assert not token.matches(TokenType.IDENTIFIER)
        assert not token.matches(TokenType.KEYWORD, "FROM")


# ---------------------------------------------------------------------------
# The character-loop tokenizer the regex lexer replaced, kept as the oracle.
# ---------------------------------------------------------------------------

_TWO_CHAR_OPERATORS = ("<=", ">=", "<>", "!=", "||")
_ONE_CHAR_OPERATORS = "+-*/%<>=!"
_PUNCTUATION = "(),.;"


def ascii_digit(text):
    return len(text) == 1 and "0" <= text <= "9"


def loop_tokenize(sql, isdigit=str.isdigit):
    """The old lexer, verbatim but for returning ``(type, value, position)``.

    ``isdigit`` is its digit rule: ``str.isdigit`` as it was, or
    :func:`ascii_digit`, the regex lexer's rule.
    """
    tokens = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise TokenizeError("unterminated block comment", position=i)
            i = end + 2
            continue
        if isdigit(ch) or (ch == "." and i + 1 < n and isdigit(sql[i + 1])):
            tokens.append(_loop_number(sql, i, isdigit))
            i += len(tokens[-1][1])
            continue
        if ch == "'":
            token, i = _loop_string(sql, i)
            tokens.append(token)
            continue
        if ch in ('"', "`"):
            end = sql.find(ch, i + 1)
            if end == -1:
                raise TokenizeError("unterminated quoted identifier", position=i)
            tokens.append((TokenType.IDENTIFIER, sql[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            token = _loop_word(sql, i)
            tokens.append(token)
            i += len(token[1])
            continue
        if ch == "?":
            tokens.append((TokenType.PARAMETER, "", i))
            i += 1
            continue
        if ch == ":" and i + 1 < n and (sql[i + 1].isalpha() or sql[i + 1] == "_"):
            word = _loop_word(sql, i + 1)
            tokens.append((TokenType.PARAMETER, sql[i + 1 : i + 1 + len(word[1])], i))
            i += 1 + len(word[1])
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR_OPERATORS:
            tokens.append((TokenType.OPERATOR, two, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPERATORS:
            tokens.append((TokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append((TokenType.PUNCTUATION, ch, i))
            i += 1
            continue
        raise TokenizeError(f"unexpected character {ch!r}", position=i)
    tokens.append((TokenType.EOF, "", n))
    return tokens


def _loop_number(sql, start, isdigit):
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if isdigit(ch):
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            nxt = sql[i + 1 : i + 3]
            if isdigit(nxt[:1]) or (nxt[:1] in "+-" and isdigit(nxt[1:2])):
                seen_exp = True
                i += 2 if nxt[:1] in "+-" else 1
            else:
                break
        else:
            break
    return (TokenType.NUMBER, sql[start:i], start)


def _loop_string(sql, start):
    i = start + 1
    n = len(sql)
    parts = []
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return (TokenType.STRING, "".join(parts), start), i + 1
        parts.append(ch)
        i += 1
    raise TokenizeError("unterminated string literal", position=start)


def _loop_word(sql, start):
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    word = sql[start:i]
    upper = word.upper()
    if upper in KEYWORDS:
        return (TokenType.KEYWORD, upper, start)
    return (TokenType.IDENTIFIER, word, start)


def _outcome(lexer, sql, *args):
    try:
        return [tuple(token) for token in lexer(sql, *args)]
    except TokenizeError as error:
        return ("error", str(error), error.position)


# Pieces chosen to meet every branch of both lexers, and their boundaries.
_PIECES = [
    " ", "\n", "\t", "\u00a0", "'", "''", '"', "`", "--", "/*", "*/", "*", "/",
    "-", "+", "1", "0", "42", ".", "1.e5", ".5e-3", "1e", "e", "E", "3.", "e+",
    ":", ":name", ":1", "?", "_", "a", "Z", "select", "From", "é", "ß", "ſelect",
    "名", "Ω", "²", "١", "½", "<", ">", "=", "!", "|", "||", "<>", "<=", "!=",
    "(", ")", ",", ";", "%", "@", "#", "\\",
]
_texts = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)


@settings(max_examples=1500, deadline=None)
@given(_texts)
def test_regex_lexer_matches_the_character_loop(sql):
    got = _outcome(tokenize, sql)
    assert got == _outcome(loop_tokenize, sql, ascii_digit)
    if not any(ch.isdigit() and not ascii_digit(ch) for ch in sql):
        assert got == _outcome(loop_tokenize, sql)


@pytest.mark.parametrize(
    "sql, position, old_number",
    [
        ("SELECT ١٢", 7, "١٢"),
        ("SELECT a FROM t WHERE a = ²", 26, "²"),
        ("SELECT 1²", 8, "1²"),
        ("SELECT .²", 8, ".²"),
    ],
)
def test_a_number_is_ascii_digits_only(sql, position, old_number):
    # The character loop read these as numbers ('١٢' even as 12); the regex
    # lexer reports the first character no token takes.
    assert (TokenType.NUMBER, old_number, sql.index(old_number)) in _outcome(loop_tokenize, sql)
    with pytest.raises(TokenizeError) as excinfo:
        tokenize(sql)
    assert excinfo.value.position == position
    assert str(excinfo.value) == f"unexpected character {sql[position]!r}"


def test_an_exponent_is_ascii_digits_only():
    # '1e²' was one (unconvertible) number; now it is 1 followed by the word
    # 'e²', as '1ex' always was.
    assert _outcome(loop_tokenize, "1e²")[0] == (TokenType.NUMBER, "1e²", 0)
    assert _outcome(tokenize, "1e²")[:2] == [
        (TokenType.NUMBER, "1", 0), (TokenType.IDENTIFIER, "e²", 1)
    ]


def test_identifiers_may_still_hold_digits_beyond_ascii():
    assert _outcome(tokenize, "SELECT a² FROM t") == _outcome(loop_tokenize, "SELECT a² FROM t")


@pytest.mark.parametrize(
    "sql", ["'a''b", "'a'''", "'a''''", "'''", "''''", "x = 'a''' || 'b'", "'it''s' 'x"]
)
def test_a_string_ends_at_a_quote_not_followed_by_another(sql):
    assert _outcome(tokenize, sql) == _outcome(loop_tokenize, sql)


def _opcodes(node):
    if isinstance(node, _regex_parser.SubPattern):
        for opcode, argument in node:
            yield str(opcode)
            yield from _opcodes(argument)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item)


def test_the_master_pattern_needs_nothing_newer_than_python_3_10():
    # Possessive quantifiers and atomic groups compile only from Python 3.11
    # on; on 3.10 the module (and with it every parser user) fails to import.
    pattern = _regex_parser.parse(tokens._MASTER.pattern, tokens._MASTER.flags)
    assert not {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} & set(_opcodes(pattern))

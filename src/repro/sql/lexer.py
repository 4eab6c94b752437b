"""Regex-driven SQL lexer.

One compiled master pattern, one alternative per token kind, produces the
flat token stream the parser consumes; the cost per token is a single
regex match plus one tuple.  Keywords are recognized case-insensitively:
``Token.text`` keeps the user's spelling (error messages quote it) and
``Token.upper`` carries the upper-cased word, computed once here instead
of on every parser check.  Comments (``--`` and ``/* */``) are skipped.
Identifiers may be double-quoted; strings use single quotes with ``''``
escaping, as in standard SQL.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import ParserError


class TokenType(enum.Enum):
    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    COMMA = "COMMA"
    DOT = "DOT"
    SEMICOLON = "SEMICOLON"
    PARAMETER = "PARAMETER"
    EOF = "EOF"


# Every word the parser treats specially.  Words not in this set lex as
# identifiers, which keeps the grammar permissive about column names.
KEYWORDS = frozenset(
    """
    ALL AND AS ASC ATTACH BEGIN BETWEEN BY CASCADE CASE CAST COMMIT CREATE
    CROSS DEFAULT DELETE DESC DISTINCT DROP ELSE END ESCAPE EXCEPT EXISTS EXPLAIN
    FALSE FOR FROM FULL GROUP HAVING IF IN INDEX INNER INSERT INTERSECT INTO
    IS JOIN KEY LEFT LIKE LIMIT MATERIALIZED NOT NULL OFFSET ON OR ORDER
    OUTER PRAGMA PRIMARY REFRESH REPLACE RIGHT ROLLBACK SELECT SET TABLE
    THEN TRIGGER TRUE TRUNCATE UNION UNIQUE UPDATE USING VALUES VIEW WHEN
    WHERE WITH
    """.split()
)


class Token(NamedTuple):
    """One lexical token with its source position (for error reporting).

    ``upper`` is the upper-cased text of a word (keyword or bare
    identifier) and the text itself for every other kind.
    """

    type: TokenType
    text: str
    position: int
    line: int
    upper: str

    def matches(self, keyword: str) -> bool:
        return self.type is TokenType.KEYWORD and self.upper == keyword


# Alternatives are tried in order, commonest first where order is free:
# a number must come before the lone dot (``.5``) and comments before the
# ``-`` and ``/`` operators.  ERROR comes last and swallows one
# character, so the matches tile the input with no gaps.
_MASTER = re.compile(
    r"""
      (?P<PUNCTUATION>[(),;?])
    | (?P<WORD>[^\W\d]\w*)
    | (?P<SKIP>\s+|--[^\n]*|/\*.*?\*/)
    | (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<STRING>'[^']*(?:''[^']*)*')
    | (?P<OPERATOR><>|!=|<=|>=|\|\||::|[-+*%<>=!]|/(?!\*))
    | (?P<QUOTED>"[^"]*(?:""[^"]*)*")
    | (?P<DOT>\.)
    | (?P<ERROR>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_PUNCTUATION = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
    "?": TokenType.PARAMETER,
}
# Groups whose token is the matched text as-is.
_VERBATIM = {
    "NUMBER": TokenType.NUMBER,
    "OPERATOR": TokenType.OPERATOR,
    "DOT": TokenType.DOT,
}
_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "/": "unterminated block comment",  # only ``/*``: OPERATOR takes other ``/``
}
_new = tuple.__new__  # Token(...) without the generated __new__ frame


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _MASTER.finditer(sql):
        group = match.lastgroup
        start, end = match.span()
        text = sql[start:end]
        if group == "PUNCTUATION":
            append(_new(Token, (_PUNCTUATION[text], text, start, line, text)))
        elif group == "WORD":
            upper = text.upper()
            kind = TokenType.KEYWORD if upper in KEYWORDS else TokenType.IDENT
            append(_new(Token, (kind, text, start, line, upper)))
        elif group == "SKIP":
            line += text.count("\n")
        elif group in _VERBATIM:
            append(_new(Token, (_VERBATIM[group], text, start, line, text)))
        elif group == "ERROR":
            message = _UNTERMINATED.get(text, f"unexpected character {text!r}")
            if text in ("'", '"'):  # the literal ran to the end of the input
                start, line = len(sql), line + sql.count("\n", start)
            raise ParserError(message, position=start, line=line)
        else:  # STRING or QUOTED: strip the quotes, fold the doubled escape
            quote = text[0]
            body = text[1:-1]
            if quote in body:
                body = body.replace(quote + quote, quote)
            kind = TokenType.STRING if quote == "'" else TokenType.IDENT
            append(_new(Token, (kind, body, start, line, body)))
            if "\n" in text:
                line += text.count("\n")
    append(Token(TokenType.EOF, "", len(sql), line, ""))
    return tokens

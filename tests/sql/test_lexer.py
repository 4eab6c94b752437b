"""Lexer unit tests."""

import pytest

from repro.errors import ParserError
from repro.sql.lexer import TokenType, tokenize


def kinds(sql):
    return [t.type for t in tokenize(sql)]


def texts(sql):
    return [t.text for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])
        assert [t.upper for t in tokens[:-1]] == ["SELECT"] * 3

    def test_identifiers(self):
        tokens = tokenize("foo _bar baz_2")
        assert all(t.type is TokenType.IDENT for t in tokens[:-1])

    def test_punctuation(self):
        assert kinds("( ) , . ;") == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.DOT,
            TokenType.SEMICOLON,
            TokenType.EOF,
        ]

    def test_parameter(self):
        assert kinds("?")[0] is TokenType.PARAMETER

    def test_eof_always_last(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("select 1")[-1].type is TokenType.EOF


class TestNumbers:
    def test_integer(self):
        assert texts("42") == ["42"]

    def test_decimal(self):
        assert texts("3.25") == ["3.25"]

    def test_leading_dot(self):
        assert texts(".5") == [".5"]

    def test_scientific(self):
        assert texts("1e5 2.5E-3 7e+2") == ["1e5", "2.5E-3", "7e+2"]

    def test_trailing_dot_is_number_then_member(self):
        # "1.x" lexes as number 1. ... we expect "1" "." "x" (member access
        # is never valid on numbers, but tokenization must not crash).
        tokens = tokenize("t1.col")
        assert tokens[0].text == "t1"
        assert tokens[1].type is TokenType.DOT
        assert tokens[2].text == "col"


class TestStrings:
    def test_simple(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.text == "hello"

    def test_quote_escape(self):
        assert tokenize("'o''brien'")[0].text == "o'brien"

    def test_empty(self):
        assert tokenize("''")[0].text == ""

    def test_unterminated_raises(self):
        with pytest.raises(ParserError):
            tokenize("'oops")

    def test_multiline_string_tracks_lines(self):
        tokens = tokenize("'a\nb' x")
        assert tokens[0].text == "a\nb"
        assert tokens[1].line == 2


class TestQuotedIdentifiers:
    def test_quoted(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.IDENT
        assert token.text == "Weird Name"

    def test_doubled_quote_escape(self):
        assert tokenize('"a""b"')[0].text == 'a"b'

    def test_unterminated_raises(self):
        with pytest.raises(ParserError):
            tokenize('"oops')


class TestOperators:
    def test_two_char_first(self):
        assert texts("<> != <= >= || ::") == ["<>", "!=", "<=", ">=", "||", "::"]

    def test_single_char(self):
        assert texts("+ - * / % < > =") == list("+-*/%<>=")


class TestComments:
    def test_line_comment(self):
        assert texts("1 -- comment\n2") == ["1", "2"]

    def test_line_comment_at_eof(self):
        assert texts("1 -- trailing") == ["1"]

    def test_block_comment(self):
        assert texts("1 /* multi\nline */ 2") == ["1", "2"]

    def test_unterminated_block_raises(self):
        with pytest.raises(ParserError):
            tokenize("1 /* oops")


class TestKeywordCase:
    def test_upper_is_computed_once_and_text_keeps_the_spelling(self):
        token = tokenize("sElEcT")[0]
        assert (token.text, token.upper) == ("sElEcT", "SELECT")
        assert token.matches("SELECT")

    def test_quoted_keyword_is_an_identifier(self):
        token = tokenize('"select"')[0]
        assert token.type is TokenType.IDENT and not token.matches("SELECT")

    def test_unicode_identifier(self):
        assert texts("ñandú_1 + straße") == ["ñandú_1", "+", "straße"]


class TestPositions:
    def test_line_numbers(self):
        tokens = tokenize("select\n1")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_unterminated_error_positions(self):
        # A string runs to the end of the input; a comment is reported
        # where it opens.
        with pytest.raises(ParserError) as info:
            tokenize("select\n 'a\nb")
        assert (info.value.position, info.value.line) == (12, 3)
        with pytest.raises(ParserError) as info:
            tokenize("1\n/* oops")
        assert (info.value.position, info.value.line) == (2, 2)

    def test_error_carries_position(self):
        with pytest.raises(ParserError) as info:
            tokenize("select @")
        assert info.value.position == 7

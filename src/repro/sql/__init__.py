"""SQL frontend: regex lexer, AST, Pratt/recursive-descent parser, dialect rules."""

from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import Parser, parse_one, parse_script

__all__ = [
    "Parser",
    "Token",
    "TokenType",
    "parse_one",
    "parse_script",
    "tokenize",
]

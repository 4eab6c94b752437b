"""SQL parser: recursive descent for statements, Pratt for expressions.

Covers the SQL surface that the OpenIVM compiler consumes (view
definitions) and emits (propagation scripts): SELECT with CTEs, joins of
every flavour, GROUP BY/HAVING, set operations, ORDER BY/LIMIT; the DDL and
DML statements in :mod:`repro.sql.ast`; and the utility statements the
extension and HTAP layers need (PRAGMA, ATTACH, REFRESH).

``CREATE MATERIALIZED VIEW`` is deliberately *not* accepted here when
``allow_materialized`` is False — the engine's core parser raises, and the
extension registry re-parses with fall-back parsers, reproducing DuckDB's
extension-parser mechanism described in the paper.
"""

from __future__ import annotations

from repro.errors import ParserError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OPERATOR = TokenType.OPERATOR
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT

# Binding powers, loosest first: one number per level of the expression
# grammar.  NOT is a prefix operator, the PREDICATE level holds the
# postfix/mixfix forms (IS [NOT] NULL, [NOT] IN / BETWEEN / LIKE), UNARY
# is the prefix sign and POSTFIX the ``::`` cast.
OR, AND, NOT, PREDICATE, COMPARISON, ADDITIVE, MULTIPLICATIVE, UNARY, POSTFIX = range(
    1, 10
)
# Binary operators by AST spelling; the renderer parenthesizes from the
# same table.  All are left-associative except the comparisons, which do
# not chain (``a = b = c`` is a syntax error).
BINARY_POWER = {
    "OR": OR, "AND": AND,
    "=": COMPARISON, "<>": COMPARISON, "<": COMPARISON,
    "<=": COMPARISON, ">": COMPARISON, ">=": COMPARISON,
    "+": ADDITIVE, "-": ADDITIVE, "||": ADDITIVE,
    "*": MULTIPLICATIVE, "/": MULTIPLICATIVE, "%": MULTIPLICATIVE,
}
# Every token that can continue an expression, keyed by ``Token.upper``.
_INFIX = {
    **BINARY_POWER,
    "!=": COMPARISON,
    "IS": PREDICATE, "NOT": PREDICATE, "IN": PREDICATE,
    "BETWEEN": PREDICATE, "LIKE": PREDICATE,
    "::": POSTFIX,
}
_NEGATABLE = ("IN", "BETWEEN", "LIKE")
_KEYWORD_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}
# Keywords that may still name a column, and those that may also name a
# function or column inside an expression.
_IDENTIFIER_KEYWORDS = ("KEY", "INDEX", "VIEW")
_EXPRESSION_KEYWORDS = _IDENTIFIER_KEYWORDS + ("LEFT", "RIGHT", "REPLACE", "VALUES")
_SET_OPS = ("UNION", "EXCEPT", "INTERSECT")


class Parser:
    """Parses one token stream; one instance per statement batch."""

    def __init__(self, sql: str, allow_materialized: bool = False) -> None:
        self._tokens = tokenize(sql)
        # EOF sentinels: the deepest lookahead is two tokens, and
        # ``_advance`` never steps past the first EOF.
        self._tokens += self._tokens[-1:] * 2
        self._index = 0
        self._parameter_count = 0
        self._allow_materialized = allow_materialized

    # -- token helpers ------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._index + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._tokens[self._index]
        return token.type is _KEYWORD and token.upper in keywords

    def _match_keyword(self, *keywords: str) -> bool:
        token = self._tokens[self._index]
        if token.type is _KEYWORD and token.upper in keywords:
            self._index += 1
            return True
        return False

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._tokens[self._index]
        if token.type is not _KEYWORD or token.upper != keyword:
            raise self._error(f"expected {keyword}, found {token.text!r}")
        self._index += 1
        return token

    def _match(self, token_type: TokenType, text: str | None = None) -> bool:
        token = self._tokens[self._index]
        if token.type is not token_type:
            return False
        if text is not None and token.text != text:
            return False
        self._index += 1
        return True

    def _expect(self, token_type: TokenType, description: str) -> Token:
        token = self._tokens[self._index]
        if token.type is not token_type:
            raise self._error(f"expected {description}, found {token.text!r}")
        self._index += 1
        return token

    def _error(self, message: str) -> ParserError:
        token = self._tokens[self._index]
        return ParserError(
            f"parse error at line {token.line}: {message}",
            position=token.position,
            line=token.line,
        )

    def _identifier(self, description: str = "identifier") -> str:
        token = self._tokens[self._index]
        # A few non-reserved keywords are allowed as identifiers (a column
        # named "key" or "index" would be unkind to reject).
        if token.type is _IDENT or (
            token.type is _KEYWORD and token.upper in _IDENTIFIER_KEYWORDS
        ):
            self._index += 1
            return token.text
        raise self._error(f"expected {description}, found {token.text!r}")

    def _integer(self, description: str) -> int:
        token = self._tokens[self._index]
        if token.type is not _NUMBER or not token.text.isdecimal():
            raise self._error(f"expected integer {description}, found {token.text!r}")
        self._index += 1
        return int(token.text)

    def _list_of(self, parse_item) -> list:
        """``item (, item)*``."""
        items = [parse_item()]
        tokens = self._tokens
        while tokens[self._index].type is _COMMA:
            self._index += 1
            items.append(parse_item())
        return items

    def _identifier_list(self, description: str = "column name") -> list[str]:
        """``( name (, name)* )``."""
        self._expect(_LPAREN, "(")
        names = self._list_of(lambda: self._identifier(description))
        self._expect(_RPAREN, ")")
        return names

    def _parenthesized_select(self) -> ast.Select:
        self._expect(_LPAREN, "(")
        query = self._parse_select()
        self._expect(_RPAREN, ")")
        return query

    # -- entry points ---------------------------------------------------

    def parse_statements(self) -> list[ast.Statement]:
        statements: list[ast.Statement] = []
        while True:
            while self._match(TokenType.SEMICOLON):
                pass
            if self._peek().type is TokenType.EOF:
                return statements
            statements.append(self._parse_statement())
            token = self._peek()
            if token.type not in (TokenType.SEMICOLON, TokenType.EOF):
                raise self._error(f"unexpected token {token.text!r} after statement")

    def _parse_statement(self) -> ast.Statement:
        token = self._peek()
        parse = _STATEMENTS.get(token.upper) if token.type is _KEYWORD else None
        if parse is None:
            raise self._error(f"unexpected token {token.text!r}")
        return parse(self)

    # -- SELECT -----------------------------------------------------------

    def _parse_select(self) -> ast.Select:
        ctes: list[ast.CommonTableExpr] = []
        if self._match_keyword("WITH"):
            ctes = self._list_of(self._parse_cte)
        select = self._parse_select_body()
        select.ctes = ctes
        while self._check_keyword(*_SET_OPS):
            op = self._advance().upper
            if op == "UNION" and self._match_keyword("ALL"):
                op = "UNION ALL"
            right = self._parse_select_body()
            select.set_ops.append((op, right))
        self._parse_order_limit(select)
        return select

    def _parse_cte(self) -> ast.CommonTableExpr:
        name = self._identifier("CTE name")
        columns: list[str] = []
        if self._peek().type is _LPAREN:
            columns = self._identifier_list()
        self._expect_keyword("AS")
        return ast.CommonTableExpr(
            name=name, query=self._parenthesized_select(), columns=columns
        )

    def _parse_select_body(self) -> ast.Select:
        if self._peek().type is _LPAREN:
            return self._parenthesized_select()
        self._expect_keyword("SELECT")
        distinct = False
        if self._match_keyword("DISTINCT"):
            distinct = True
        elif self._match_keyword("ALL"):
            pass
        items = self._list_of(self._parse_select_item)
        from_clause = None
        if self._match_keyword("FROM"):
            from_clause = self._parse_from()
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        group_by: list[ast.Expression] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._list_of(self._parse_expression)
        having = self._parse_expression() if self._match_keyword("HAVING") else None
        return ast.Select(
            items=items,
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_order_limit(self, select: ast.Select) -> None:
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            select.order_by.extend(self._list_of(self._parse_order_item))
        if self._match_keyword("LIMIT"):
            select.limit = self._parse_expression()
        if self._match_keyword("OFFSET"):
            select.offset = self._parse_expression()

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expression()
        ascending = True
        if self._match_keyword("ASC"):
            ascending = True
        elif self._match_keyword("DESC"):
            ascending = False
        return ast.OrderItem(expr=expr, ascending=ascending)

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is _OPERATOR and token.text == "*":
            self._advance()
            return ast.SelectItem(expr=ast.Star())
        if (
            token.type is _IDENT
            and self._peek(1).type is _DOT
            and self._peek(2).type is _OPERATOR
            and self._peek(2).text == "*"
        ):
            self._index += 3
            return ast.SelectItem(expr=ast.Star(table=token.text))
        return ast.SelectItem(expr=self._parse_expression(), alias=self._parse_alias())

    def _parse_alias(self) -> str | None:
        if self._match_keyword("AS"):
            return self._identifier("alias")
        if self._peek().type is _IDENT:
            return self._advance().text
        return None

    # -- FROM / joins ------------------------------------------------------

    def _parse_from(self) -> ast.TableRef:
        left = self._parse_table_ref()
        while True:
            if self._match_keyword("CROSS"):
                self._expect_keyword("JOIN")
                right = self._parse_table_ref()
                left = ast.JoinRef(left=left, right=right, join_type="CROSS")
                continue
            if self._check_keyword("INNER", "LEFT", "RIGHT", "FULL", "JOIN"):
                join_type = "INNER"
                if not self._check_keyword("JOIN"):
                    join_type = self._advance().upper
                    self._match_keyword("OUTER")
                self._expect_keyword("JOIN")
                right = self._parse_table_ref()
                condition = None
                using: list[str] = []
                if self._match_keyword("ON"):
                    condition = self._parse_expression()
                elif self._match_keyword("USING"):
                    using = self._identifier_list()
                left = ast.JoinRef(
                    left=left,
                    right=right,
                    join_type=join_type,
                    condition=condition,
                    using=using,
                )
                continue
            if self._match(_COMMA):
                right = self._parse_table_ref()
                left = ast.JoinRef(left=left, right=right, join_type="CROSS")
                continue
            return left

    def _parse_table_ref(self) -> ast.TableRef:
        if self._peek().type is _LPAREN:
            query = self._parenthesized_select()
            self._match_keyword("AS")
            alias = self._identifier("subquery alias")
            return ast.SubqueryRef(query=query, alias=alias)
        name = self._identifier("table name")
        schema = None
        if self._match(_DOT):
            schema = name
            name = self._identifier("table name")
        return ast.BaseTableRef(name=name, alias=self._parse_alias(), schema=schema)

    # -- expressions -------------------------------------------------------

    def _parse_expression(self, min_power: int = 0) -> ast.Expression:
        """Pratt loop: parse an operand, then fold in every operator whose
        binding power lies in ``[min_power, ceiling]``.

        ``ceiling`` starts open and drops to the level of each operator
        consumed, so that an operand is never re-entered by a tighter
        operator after a looser one closed it: ``a IS NULL = b`` and
        ``a = b = c`` stay syntax errors.
        """
        tokens = self._tokens
        token = tokens[self._index]
        kind = token.type
        ceiling = POSTFIX
        # The two commonest operands are read here, not in _parse_operand:
        # a literal VALUES cell costs one call.
        if kind is _NUMBER:
            self._index += 1
            text = token.text
            if "." in text or "e" in text or "E" in text:
                left: ast.Expression = ast.Literal(float(text))
            else:
                left = ast.Literal(int(text))
        elif kind is _STRING:
            self._index += 1
            left = ast.Literal(token.text)
        elif kind is _KEYWORD and token.upper == "NOT" and min_power <= NOT:
            self._index += 1
            left = ast.UnaryOp("NOT", self._parse_expression(NOT))
            ceiling = AND
        else:
            left = self._parse_operand()
        while True:
            token = tokens[self._index]
            if token.type is not _OPERATOR and token.type is not _KEYWORD:
                return left
            op = token.upper
            power = _INFIX.get(op, -1)
            if not min_power <= power <= ceiling:
                return left
            negated = op == "NOT"
            if negated:
                # Infix NOT only as part of NOT IN / BETWEEN / LIKE.
                token = tokens[self._index + 1]
                op = token.upper
                if token.type is not _KEYWORD or op not in _NEGATABLE:
                    return left
                self._index += 1
            self._index += 1
            if power == PREDICATE:
                left = self._parse_predicate(left, op, negated)
                ceiling = PREDICATE
            elif power == POSTFIX:
                left = ast.Cast(left, *self._parse_type())
            else:
                right = self._parse_expression(power + 1)
                left = ast.BinaryOp("<>" if op == "!=" else op, left, right)
                ceiling = power - 1 if power == COMPARISON else power

    def _parse_predicate(
        self, left: ast.Expression, op: str, negated: bool
    ) -> ast.Expression:
        """The tail of ``left IS [NOT] NULL`` / ``[NOT] IN`` / ``BETWEEN``
        / ``LIKE``; right-hand operands bind at the comparison level."""
        if op == "IS":
            negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        if op == "IN":
            self._expect(_LPAREN, "(")
            if self._check_keyword("SELECT", "WITH"):
                items = [ast.ScalarSubquery(query=self._parse_select())]
            else:
                items = self._list_of(self._parse_expression)
            self._expect(_RPAREN, ")")
            return ast.InList(left, items, negated)
        if op == "BETWEEN":
            low = self._parse_expression(COMPARISON)
            self._expect_keyword("AND")
            high = self._parse_expression(COMPARISON)
            return ast.Between(left, low, high, negated)
        return ast.Like(left, self._parse_expression(COMPARISON), negated)

    def _parse_type(self) -> tuple[str, int | None]:
        """``name [(width [, scale])]``; a DECIMAL scale is parsed and
        dropped (the type maps to DOUBLE anyway)."""
        name = self._identifier("type name")
        width = None
        if self._match(_LPAREN):
            width = self._integer("width")
            if self._match(_COMMA):
                self._integer("scale")
            self._expect(_RPAREN, ")")
        return name, width

    def _parse_operand(self) -> ast.Expression:
        """Every operand but a number or a string (see _parse_expression)."""
        token = self._tokens[self._index]
        kind = token.type
        if kind is _OPERATOR and token.text in ("-", "+"):
            self._index += 1
            return ast.UnaryOp(token.text, self._parse_expression(UNARY))
        if kind is TokenType.PARAMETER:
            self._index += 1
            self._parameter_count += 1
            return ast.Parameter(index=self._parameter_count - 1)
        if kind is _LPAREN:
            if self._peek(1).matches("SELECT") or self._peek(1).matches("WITH"):
                return ast.ScalarSubquery(query=self._parenthesized_select())
            self._index += 1
            expr = self._parse_expression()
            self._expect(_RPAREN, ")")
            return expr
        if kind is _IDENT:
            return self._parse_identifier_expression()
        if kind is not _KEYWORD:
            raise self._error(f"unexpected token {token.text!r} in expression")
        keyword = token.upper
        if keyword in _KEYWORD_LITERALS:
            self._index += 1
            return ast.Literal(_KEYWORD_LITERALS[keyword])
        if keyword == "CASE":
            return self._parse_case()
        if keyword == "CAST":
            return self._parse_cast()
        if keyword == "EXISTS" or (keyword == "NOT" and self._peek(1).matches("EXISTS")):
            self._index += 1 if keyword == "EXISTS" else 2
            return ast.Exists(
                query=self._parenthesized_select(), negated=keyword == "NOT"
            )
        if keyword in _EXPRESSION_KEYWORDS:
            return self._parse_identifier_expression()
        raise self._error(f"unexpected keyword {token.text!r} in expression")

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self._advance().text
        if self._match(_LPAREN):
            distinct = self._match_keyword("DISTINCT")
            args: list[ast.Expression] = []
            if self._match(_OPERATOR, "*"):
                args.append(ast.Star())
            elif self._peek().type is not _RPAREN:
                args = self._list_of(self._parse_expression)
            self._expect(_RPAREN, ")")
            return ast.FunctionCall(name=name, args=args, distinct=distinct)
        if self._match(_DOT):
            return ast.ColumnRef(name=self._identifier("column name"), table=name)
        return ast.ColumnRef(name=name)

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("CASE")
        operand = None
        if not self._check_keyword("WHEN"):
            operand = self._parse_expression()
        branches: list[tuple[ast.Expression, ast.Expression]] = []
        while self._match_keyword("WHEN"):
            when = self._parse_expression()
            self._expect_keyword("THEN")
            then = self._parse_expression()
            branches.append((when, then))
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        else_result = None
        if self._match_keyword("ELSE"):
            else_result = self._parse_expression()
        self._expect_keyword("END")
        return ast.Case(operand=operand, branches=branches, else_result=else_result)

    def _parse_cast(self) -> ast.Expression:
        self._expect_keyword("CAST")
        self._expect(_LPAREN, "(")
        operand = self._parse_expression()
        self._expect_keyword("AS")
        type_name, width = self._parse_type()
        self._expect(_RPAREN, ")")
        return ast.Cast(operand=operand, type_name=type_name, width=width)

    # -- CREATE / DROP -----------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        unique = self._match_keyword("UNIQUE")
        if self._match_keyword("TABLE"):
            return self._parse_create_table()
        if self._match_keyword("INDEX"):
            return self._parse_create_index(unique)
        if self._match_keyword("VIEW"):
            return self._parse_create_view(materialized=False)
        if self._check_keyword("MATERIALIZED"):
            if not self._allow_materialized:
                raise self._error(
                    "MATERIALIZED views are not supported by the core parser"
                )
            self._advance()
            self._expect_keyword("VIEW")
            return self._parse_create_view(materialized=True)
        raise self._error("expected TABLE, INDEX or VIEW after CREATE")

    def _parse_if_exists(self, negated: bool = False) -> bool:
        """``IF EXISTS``, or ``IF NOT EXISTS`` when ``negated``."""
        if not self._match_keyword("IF"):
            return False
        if negated:
            self._expect_keyword("NOT")
        self._expect_keyword("EXISTS")
        return True

    def _parse_create_table(self) -> ast.CreateTable:
        if_not_exists = self._parse_if_exists(negated=True)
        name = self._identifier("table name")
        if self._match_keyword("AS"):
            query = self._parse_select()
            return ast.CreateTable(
                name=name, columns=[], if_not_exists=if_not_exists, as_query=query
            )
        self._expect(_LPAREN, "(")
        columns: list[ast.ColumnDef] = []
        primary_key: list[str] = []
        while True:
            if self._match_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key.extend(self._identifier_list())
            else:
                columns.append(self._parse_column_def())
            if not self._match(_COMMA):
                break
        self._expect(_RPAREN, ")")
        for col in columns:
            if col.primary_key:
                primary_key.append(col.name)
        return ast.CreateTable(
            name=name,
            columns=columns,
            primary_key=primary_key,
            if_not_exists=if_not_exists,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._identifier("column name")
        type_name, width = self._parse_type()
        column = ast.ColumnDef(name=name, type_name=type_name, width=width)
        while True:
            if self._match_keyword("NOT"):
                self._expect_keyword("NULL")
                column.not_null = True
            elif self._match_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                column.primary_key = True
                column.not_null = True
            elif self._match_keyword("DEFAULT"):
                column.default = self._parse_expression()
            elif self._match_keyword("UNIQUE"):
                pass
            else:
                return column

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        if_not_exists = self._parse_if_exists(negated=True)
        name = self._identifier("index name")
        self._expect_keyword("ON")
        table = self._identifier("table name")
        return ast.CreateIndex(
            name=name,
            table=table,
            columns=self._identifier_list(),
            unique=unique,
            if_not_exists=if_not_exists,
        )

    def _parse_create_view(self, materialized: bool) -> ast.CreateView:
        if_not_exists = self._parse_if_exists(negated=True)
        name = self._identifier("view name")
        self._expect_keyword("AS")
        query = self._parse_select()
        return ast.CreateView(
            name=name,
            query=query,
            materialized=materialized,
            if_not_exists=if_not_exists,
        )

    def _parse_drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._match_keyword("TABLE"):
            if_exists = self._parse_if_exists()
            return ast.DropTable(name=self._identifier("table name"), if_exists=if_exists)
        if self._match_keyword("INDEX"):
            if_exists = self._parse_if_exists()
            return ast.DropIndex(name=self._identifier("index name"), if_exists=if_exists)
        if self._match_keyword("VIEW") or (
            self._match_keyword("MATERIALIZED") and self._match_keyword("VIEW")
        ):
            if_exists = self._parse_if_exists()
            return ast.DropView(name=self._identifier("view name"), if_exists=if_exists)
        raise self._error("expected TABLE, INDEX or VIEW after DROP")

    # -- DML ----------------------------------------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        or_replace = False
        if self._match_keyword("OR"):
            self._expect_keyword("REPLACE")
            or_replace = True
        self._expect_keyword("INTO")
        table = self._identifier("table name")
        columns: list[str] = []
        if self._peek().type is _LPAREN and not self._peek(1).matches("SELECT"):
            columns = self._identifier_list()
        if self._match_keyword("VALUES"):
            values = self._list_of(self._parse_values_row)
            return ast.Insert(table=table, columns=columns, values=values, or_replace=or_replace)
        query = self._parse_select()
        return ast.Insert(table=table, columns=columns, query=query, or_replace=or_replace)

    def _parse_values_row(self) -> list[ast.Expression]:
        self._expect(_LPAREN, "(")
        row = self._list_of(self._parse_expression)
        self._expect(_RPAREN, ")")
        return row

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._identifier("table name")
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        return ast.Delete(table=table, where=where)

    def _parse_truncate(self) -> ast.Delete:
        self._expect_keyword("TRUNCATE")
        self._match_keyword("TABLE")
        return ast.Delete(table=self._identifier("table name"), where=None)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._identifier("table name")
        self._expect_keyword("SET")
        assignments = self._list_of(self._parse_set_clause)
        where = self._parse_expression() if self._match_keyword("WHERE") else None
        return ast.Update(table=table, assignments=assignments, where=where)

    def _parse_set_clause(self) -> ast.SetClause:
        column = self._identifier("column name")
        if not self._match(_OPERATOR, "="):
            raise self._error("expected = in SET clause")
        return ast.SetClause(column=column, value=self._parse_expression())

    # -- misc ----------------------------------------------------------------

    def _parse_explain(self) -> ast.Explain:
        self._expect_keyword("EXPLAIN")
        return ast.Explain(query=self._parse_select())

    def _parse_transaction(self) -> ast.Transaction:
        return ast.Transaction(self._advance().upper)

    def _parse_pragma(self) -> ast.Pragma:
        self._expect_keyword("PRAGMA")
        name = self._identifier("pragma name")
        value = None
        if self._match(_OPERATOR, "="):
            token = self._peek()
            if token.type is _NUMBER:
                if token.text.isdecimal():
                    value = int(token.text)
                elif "." in token.text:
                    value = float(token.text)
                else:
                    raise self._error(
                        f"expected integer or decimal pragma value, found {token.text!r}"
                    )
                self._advance()
            elif token.type is _STRING:
                value = self._advance().text
            elif token.matches("TRUE") or token.matches("FALSE"):
                value = self._advance().upper == "TRUE"
            else:
                value = self._identifier("pragma value")
        return ast.Pragma(name=name, value=value)

    def _parse_attach(self) -> ast.Attach:
        self._expect_keyword("ATTACH")
        target = self._expect(_STRING, "attach target").text
        self._expect_keyword("AS")
        name = self._identifier("database alias")
        return ast.Attach(target=target, name=name)

    def _parse_refresh(self) -> ast.RefreshView:
        self._expect_keyword("REFRESH")
        self._expect_keyword("MATERIALIZED")
        self._expect_keyword("VIEW")
        return ast.RefreshView(name=self._identifier("view name"))


_STATEMENTS = {
    "SELECT": Parser._parse_select,
    "WITH": Parser._parse_select,
    "CREATE": Parser._parse_create,
    "DROP": Parser._parse_drop,
    "INSERT": Parser._parse_insert,
    "DELETE": Parser._parse_delete,
    "UPDATE": Parser._parse_update,
    "PRAGMA": Parser._parse_pragma,
    "ATTACH": Parser._parse_attach,
    "REFRESH": Parser._parse_refresh,
    "TRUNCATE": Parser._parse_truncate,
    "EXPLAIN": Parser._parse_explain,
    "BEGIN": Parser._parse_transaction,
    "COMMIT": Parser._parse_transaction,
    "ROLLBACK": Parser._parse_transaction,
}


def parse_script(sql: str, allow_materialized: bool = False) -> list[ast.Statement]:
    """Parse a semicolon-separated batch of statements."""
    return Parser(sql, allow_materialized=allow_materialized).parse_statements()


def parse_one(sql: str, allow_materialized: bool = False) -> ast.Statement:
    """Parse exactly one statement; raises if the batch is empty or longer."""
    statements = parse_script(sql, allow_materialized=allow_materialized)
    if len(statements) != 1:
        raise ParserError(f"expected exactly one statement, got {len(statements)}")
    return statements[0]

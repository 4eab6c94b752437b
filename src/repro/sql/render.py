"""Render expression and statement ASTs back to SQL text.

Used by the DuckAST emitters (:mod:`repro.core.emit`) and by tooling that
round-trips SQL.  Rendering is dialect-aware only where dialects actually
differ; expression syntax is shared.
"""

from __future__ import annotations

from repro.datatypes.values import sql_format_literal
from repro.errors import UnsupportedError
from repro.sql import ast
from repro.sql.dialect import DUCKDB, Dialect
from repro.sql.parser import (
    ADDITIVE,
    BINARY_POWER,
    COMPARISON,
    NOT,
    POSTFIX,
    PREDICATE,
    UNARY,
)


def render_expression(expr: ast.Expression, dialect: Dialect = DUCKDB) -> str:
    """Render ``expr`` to SQL text in ``dialect``."""
    return _Renderer(dialect).expression(expr)


def render_select(select: ast.Select, dialect: Dialect = DUCKDB) -> str:
    """Render a SELECT statement (with CTEs and set ops) to SQL text."""
    return _Renderer(dialect).select(select)


class _Renderer:
    def __init__(self, dialect: Dialect) -> None:
        self._dialect = dialect

    # -- expressions ----------------------------------------------------

    def expression(self, expr: ast.Expression, parent_power: int = 0) -> str:
        """Render ``expr``; parenthesized when its operator binds looser
        than ``parent_power``, the level the parser would read the operand
        at, so that parsing the text gives ``expr`` back."""
        text, power = self._operator(expr)
        return f"({text})" if power < parent_power else text

    def _operator(self, expr: ast.Expression) -> tuple[str, int]:
        """The text of ``expr`` and the binding power of its top operator."""
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "NOT":
                return f"NOT {self.expression(expr.operand, NOT)}", NOT
            inner = self.expression(expr.operand, UNARY)
            # ``--`` would open a comment.
            space = " " if inner.startswith(expr.op) else ""
            return f"{expr.op}{space}{inner}", UNARY
        if isinstance(expr, ast.BinaryOp):
            level = BINARY_POWER.get(expr.op, COMPARISON)
            chains = level != COMPARISON
            left = self.expression(expr.left, level if chains else level + 1)
            right = self.expression(expr.right, level + 1)
            return f"{left} {expr.op} {right}", level
        if isinstance(expr, ast.IsNull):
            inner = self.expression(expr.operand, PREDICATE)
            negation = " NOT" if expr.negated else ""
            return f"{inner} IS{negation} NULL", PREDICATE
        if isinstance(expr, ast.InList):
            inner = self.expression(expr.operand, PREDICATE)
            items = ", ".join(self.expression(item) for item in expr.items)
            negation = "NOT " if expr.negated else ""
            return f"{inner} {negation}IN ({items})", PREDICATE
        if isinstance(expr, ast.Between):
            inner = self.expression(expr.operand, PREDICATE)
            low = self.expression(expr.low, ADDITIVE)
            high = self.expression(expr.high, ADDITIVE)
            negation = "NOT " if expr.negated else ""
            return f"{inner} {negation}BETWEEN {low} AND {high}", PREDICATE
        if isinstance(expr, ast.Like):
            inner = self.expression(expr.operand, PREDICATE)
            pattern = self.expression(expr.pattern, ADDITIVE)
            negation = "NOT " if expr.negated else ""
            return f"{inner} {negation}LIKE {pattern}", PREDICATE
        return self._atom(expr), POSTFIX

    def _atom(self, expr: ast.Expression) -> str:
        """Expressions that never need parentheses around them."""
        if isinstance(expr, ast.Literal):
            return sql_format_literal(expr.value)
        if isinstance(expr, ast.ColumnRef):
            quoted = self._dialect.quote_identifier(expr.name)
            if expr.table:
                return f"{self._dialect.quote_identifier(expr.table)}.{quoted}"
            return quoted
        if isinstance(expr, ast.Star):
            if expr.table:
                return f"{self._dialect.quote_identifier(expr.table)}.*"
            return "*"
        if isinstance(expr, ast.Parameter):
            return "?"
        if isinstance(expr, ast.Case):
            pieces = ["CASE"]
            if expr.operand is not None:
                pieces.append(self.expression(expr.operand))
            for when, then in expr.branches:
                pieces.append(f"WHEN {self.expression(when)} THEN {self.expression(then)}")
            if expr.else_result is not None:
                pieces.append(f"ELSE {self.expression(expr.else_result)}")
            pieces.append("END")
            return " ".join(pieces)
        if isinstance(expr, ast.Cast):
            inner = self.expression(expr.operand)
            type_text = expr.type_name.upper()
            if expr.width is not None:
                type_text = f"{type_text}({expr.width})"
            return f"CAST({inner} AS {type_text})"
        if isinstance(expr, ast.FunctionCall):
            distinct = "DISTINCT " if expr.distinct else ""
            args = ", ".join(self.expression(arg) for arg in expr.args)
            return f"{expr.name.upper()}({distinct}{args})"
        if isinstance(expr, ast.Exists):
            negation = "NOT " if expr.negated else ""
            return f"{negation}EXISTS ({self.select(expr.query)})"
        if isinstance(expr, ast.ScalarSubquery):
            return f"({self.select(expr.query)})"
        raise UnsupportedError(f"cannot render expression {type(expr).__name__}")

    # -- SELECT ---------------------------------------------------------

    def select(self, select: ast.Select) -> str:
        pieces: list[str] = []
        if select.ctes:
            ctes = ", ".join(
                f"{self._dialect.quote_identifier(cte.name)} AS ({self.select(cte.query)})"
                for cte in select.ctes
            )
            pieces.append(f"WITH {ctes}")
        pieces.append(self._select_core(select))
        for op, right in select.set_ops:
            pieces.append(op)
            pieces.append(self._select_core(right))
        if select.order_by:
            keys = ", ".join(
                self.expression(item.expr) + ("" if item.ascending else " DESC")
                for item in select.order_by
            )
            pieces.append(f"ORDER BY {keys}")
        if select.limit is not None:
            pieces.append(f"LIMIT {self.expression(select.limit)}")
        if select.offset is not None:
            pieces.append(f"OFFSET {self.expression(select.offset)}")
        return " ".join(pieces)

    def _select_core(self, select: ast.Select) -> str:
        items = ", ".join(self._select_item(item) for item in select.items)
        distinct = "DISTINCT " if select.distinct else ""
        pieces = [f"SELECT {distinct}{items}"]
        if select.from_clause is not None:
            pieces.append(f"FROM {self._table_ref(select.from_clause)}")
        if select.where is not None:
            pieces.append(f"WHERE {self.expression(select.where)}")
        if select.group_by:
            keys = ", ".join(self.expression(key) for key in select.group_by)
            pieces.append(f"GROUP BY {keys}")
        if select.having is not None:
            pieces.append(f"HAVING {self.expression(select.having)}")
        return " ".join(pieces)

    def _select_item(self, item: ast.SelectItem) -> str:
        text = self.expression(item.expr)
        if item.alias:
            return f"{text} AS {self._dialect.quote_identifier(item.alias)}"
        return text

    def _table_ref(self, ref: ast.TableRef) -> str:
        if isinstance(ref, ast.BaseTableRef):
            name = self._dialect.quote_identifier(ref.name)
            if ref.schema:
                name = f"{self._dialect.quote_identifier(ref.schema)}.{name}"
            if ref.alias:
                return f"{name} AS {self._dialect.quote_identifier(ref.alias)}"
            return name
        if isinstance(ref, ast.SubqueryRef):
            return f"({self.select(ref.query)}) AS {self._dialect.quote_identifier(ref.alias)}"
        if isinstance(ref, ast.JoinRef):
            left = self._table_ref(ref.left)
            right = self._table_ref(ref.right)
            if ref.join_type == "CROSS":
                return f"{left} CROSS JOIN {right}"
            keyword = {"INNER": "JOIN", "LEFT": "LEFT JOIN",
                       "RIGHT": "RIGHT JOIN", "FULL": "FULL OUTER JOIN"}[ref.join_type]
            if ref.using:
                cols = ", ".join(self._dialect.quote_identifier(c) for c in ref.using)
                return f"{left} {keyword} {right} USING ({cols})"
            condition = self.expression(ref.condition) if ref.condition else "TRUE"
            return f"{left} {keyword} {right} ON {condition}"
        raise UnsupportedError(f"cannot render table ref {type(ref).__name__}")

"""Parser unit tests covering the full supported statement surface."""

import pytest

from repro.errors import ParserError
from repro.sql import ast
from repro.sql.parser import parse_one, parse_script


class TestSelectBasics:
    def test_simple(self):
        stmt = parse_one("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert isinstance(stmt.from_clause, ast.BaseTableRef)

    def test_star(self):
        stmt = parse_one("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_qualified_star(self):
        stmt = parse_one("SELECT t.* FROM t")
        assert stmt.items[0].expr.table == "t"

    def test_alias_with_and_without_as(self):
        stmt = parse_one("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_distinct(self):
        assert parse_one("SELECT DISTINCT a FROM t").distinct

    def test_where_group_having(self):
        stmt = parse_one(
            "SELECT g, SUM(v) FROM t WHERE v > 0 GROUP BY g HAVING SUM(v) > 10"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None

    def test_order_limit_offset(self):
        stmt = parse_one("SELECT a FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2")
        assert [o.ascending for o in stmt.order_by] == [False, True]
        assert isinstance(stmt.limit, ast.Literal) and stmt.limit.value == 5
        assert stmt.offset.value == 2

    def test_select_without_from(self):
        stmt = parse_one("SELECT 1 + 2")
        assert stmt.from_clause is None


class TestExpressions:
    def assert_expr(self, sql, node_type):
        stmt = parse_one(f"SELECT {sql}")
        assert isinstance(stmt.items[0].expr, node_type)

    def test_literals(self):
        stmt = parse_one("SELECT 1, 2.5, 'x', TRUE, FALSE, NULL")
        values = [item.expr.value for item in stmt.items]
        assert values == [1, 2.5, "x", True, False, None]

    def test_precedence_multiplication_binds_tighter(self):
        expr = parse_one("SELECT 1 + 2 * 3").items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parenthesized(self):
        expr = parse_one("SELECT (1 + 2) * 3").items[0].expr
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_logical_precedence(self):
        expr = parse_one("SELECT a OR b AND c").items[0].expr
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        self.assert_expr("NOT a", ast.UnaryOp)

    def test_unary_minus(self):
        expr = parse_one("SELECT -x").items[0].expr
        assert expr.op == "-"

    def test_comparison_normalizes_bang_equals(self):
        expr = parse_one("SELECT a != b").items[0].expr
        assert expr.op == "<>"

    def test_is_null_and_is_not_null(self):
        expr = parse_one("SELECT a IS NULL, b IS NOT NULL")
        assert not expr.items[0].expr.negated
        assert expr.items[1].expr.negated

    def test_in_list(self):
        expr = parse_one("SELECT a IN (1, 2, 3)").items[0].expr
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_not_in(self):
        assert parse_one("SELECT a NOT IN (1)").items[0].expr.negated

    def test_between(self):
        expr = parse_one("SELECT a BETWEEN 1 AND 5").items[0].expr
        assert isinstance(expr, ast.Between)

    def test_not_between(self):
        assert parse_one("SELECT a NOT BETWEEN 1 AND 5").items[0].expr.negated

    def test_like(self):
        self.assert_expr("a LIKE 'x%'", ast.Like)

    def test_case_searched(self):
        expr = parse_one(
            "SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END"
        ).items[0].expr
        assert expr.operand is None
        assert len(expr.branches) == 2
        assert expr.else_result is not None

    def test_case_simple(self):
        expr = parse_one("SELECT CASE a WHEN 1 THEN 'one' END").items[0].expr
        assert expr.operand is not None

    def test_case_requires_when(self):
        with pytest.raises(ParserError):
            parse_one("SELECT CASE ELSE 1 END")

    def test_cast_function_form(self):
        expr = parse_one("SELECT CAST(a AS INTEGER)").items[0].expr
        assert isinstance(expr, ast.Cast)
        assert expr.type_name == "INTEGER"

    def test_cast_postfix_form(self):
        expr = parse_one("SELECT a::VARCHAR(10)").items[0].expr
        assert isinstance(expr, ast.Cast)
        assert expr.width == 10

    def test_function_call(self):
        expr = parse_one("SELECT COALESCE(a, 0)").items[0].expr
        assert expr.upper_name == "COALESCE"
        assert len(expr.args) == 2

    def test_count_star(self):
        expr = parse_one("SELECT COUNT(*)").items[0].expr
        assert isinstance(expr.args[0], ast.Star)

    def test_count_distinct(self):
        assert parse_one("SELECT COUNT(DISTINCT a)").items[0].expr.distinct

    def test_concat_operator(self):
        assert parse_one("SELECT a || b").items[0].expr.op == "||"

    def test_scalar_subquery(self):
        expr = parse_one("SELECT (SELECT MAX(x) FROM t)").items[0].expr
        assert isinstance(expr, ast.ScalarSubquery)

    def test_exists(self):
        expr = parse_one("SELECT EXISTS (SELECT 1)").items[0].expr
        assert isinstance(expr, ast.Exists)

    def test_in_subquery(self):
        expr = parse_one("SELECT a IN (SELECT b FROM t)").items[0].expr
        assert isinstance(expr.items[0], ast.ScalarSubquery)

    def test_parameter(self):
        stmt = parse_one("SELECT ?, ?")
        assert [i.expr.index for i in stmt.items] == [0, 1]

    def test_comparisons_do_not_chain(self):
        with pytest.raises(ParserError):
            parse_one("SELECT a = b = c")
        with pytest.raises(ParserError):
            parse_one("SELECT a IS NULL = b")

    def test_prefix_not_only_at_boolean_level(self):
        with pytest.raises(ParserError):
            parse_one("SELECT a + NOT b")
        expr = parse_one("SELECT a = NOT EXISTS (SELECT 1)").items[0].expr
        assert isinstance(expr.right, ast.Exists) and expr.right.negated


class TestJoins:
    def test_inner_join(self):
        stmt = parse_one("SELECT 1 FROM a JOIN b ON a.k = b.k")
        assert stmt.from_clause.join_type == "INNER"

    def test_left_right_full(self):
        for keyword, expected in [
            ("LEFT JOIN", "LEFT"),
            ("LEFT OUTER JOIN", "LEFT"),
            ("RIGHT JOIN", "RIGHT"),
            ("FULL OUTER JOIN", "FULL"),
        ]:
            stmt = parse_one(f"SELECT 1 FROM a {keyword} b ON a.k = b.k")
            assert stmt.from_clause.join_type == expected

    def test_cross_join(self):
        stmt = parse_one("SELECT 1 FROM a CROSS JOIN b")
        assert stmt.from_clause.join_type == "CROSS"
        assert stmt.from_clause.condition is None

    def test_comma_join_is_cross(self):
        stmt = parse_one("SELECT 1 FROM a, b")
        assert stmt.from_clause.join_type == "CROSS"

    def test_using(self):
        stmt = parse_one("SELECT 1 FROM a JOIN b USING (k, j)")
        assert stmt.from_clause.using == ["k", "j"]

    def test_chained_joins(self):
        stmt = parse_one(
            "SELECT 1 FROM a JOIN b ON a.k = b.k LEFT JOIN c ON b.j = c.j"
        )
        outer = stmt.from_clause
        assert outer.join_type == "LEFT"
        assert outer.left.join_type == "INNER"

    def test_derived_table(self):
        stmt = parse_one("SELECT 1 FROM (SELECT a FROM t) AS sub")
        assert isinstance(stmt.from_clause, ast.SubqueryRef)
        assert stmt.from_clause.alias == "sub"

    def test_table_alias(self):
        stmt = parse_one("SELECT 1 FROM orders o")
        assert stmt.from_clause.alias == "o"

    def test_schema_qualified(self):
        stmt = parse_one("SELECT 1 FROM oltp.orders")
        assert stmt.from_clause.schema == "oltp"


class TestCtesAndSetOps:
    def test_single_cte(self):
        stmt = parse_one("WITH c AS (SELECT 1) SELECT * FROM c")
        assert len(stmt.ctes) == 1
        assert stmt.ctes[0].name == "c"

    def test_multiple_ctes(self):
        stmt = parse_one("WITH a AS (SELECT 1), b AS (SELECT 2) SELECT * FROM a")
        assert [c.name for c in stmt.ctes] == ["a", "b"]

    def test_cte_column_list(self):
        stmt = parse_one("WITH c (x, y) AS (SELECT 1, 2) SELECT * FROM c")
        assert stmt.ctes[0].columns == ["x", "y"]

    def test_union_all(self):
        stmt = parse_one("SELECT 1 UNION ALL SELECT 2")
        assert stmt.set_ops == [("UNION ALL", stmt.set_ops[0][1])]

    def test_union_except_intersect(self):
        stmt = parse_one("SELECT 1 UNION SELECT 2 EXCEPT SELECT 3 INTERSECT SELECT 4")
        assert [op for op, _ in stmt.set_ops] == ["UNION", "EXCEPT", "INTERSECT"]


class TestDDL:
    def test_create_table(self):
        stmt = parse_one(
            "CREATE TABLE t (a VARCHAR NOT NULL, b INTEGER DEFAULT 0, "
            "c DECIMAL(10, 2), PRIMARY KEY (a))"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].not_null
        assert isinstance(stmt.columns[1].default, ast.Literal)
        assert stmt.primary_key == ["a"]

    def test_inline_primary_key(self):
        stmt = parse_one("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR)")
        assert stmt.primary_key == ["a"]
        assert stmt.columns[0].not_null

    def test_create_table_if_not_exists(self):
        assert parse_one("CREATE TABLE IF NOT EXISTS t (a INTEGER)").if_not_exists

    def test_create_table_as(self):
        stmt = parse_one("CREATE TABLE t AS SELECT 1 AS one")
        assert stmt.as_query is not None

    def test_drop_table(self):
        stmt = parse_one("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable) and stmt.if_exists

    def test_create_index(self):
        stmt = parse_one("CREATE UNIQUE INDEX idx ON t (a, b)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.unique and stmt.columns == ["a", "b"]

    def test_create_view(self):
        stmt = parse_one("CREATE VIEW v AS SELECT 1")
        assert isinstance(stmt, ast.CreateView) and not stmt.materialized

    def test_materialized_view_rejected_by_core_parser(self):
        with pytest.raises(ParserError):
            parse_one("CREATE MATERIALIZED VIEW v AS SELECT 1")

    def test_materialized_view_with_flag(self):
        stmt = parse_one(
            "CREATE MATERIALIZED VIEW v AS SELECT 1", allow_materialized=True
        )
        assert stmt.materialized


class TestDML:
    def test_insert_values(self):
        stmt = parse_one("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.values) == 2

    def test_insert_column_list(self):
        stmt = parse_one("INSERT INTO t (b, a) VALUES (1, 2)")
        assert stmt.columns == ["b", "a"]

    def test_insert_select(self):
        stmt = parse_one("INSERT INTO t SELECT * FROM s")
        assert stmt.query is not None

    def test_insert_or_replace(self):
        assert parse_one("INSERT OR REPLACE INTO t VALUES (1)").or_replace

    def test_delete(self):
        stmt = parse_one("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete) and stmt.where is not None

    def test_delete_all(self):
        assert parse_one("DELETE FROM t").where is None

    def test_truncate_maps_to_delete(self):
        stmt = parse_one("TRUNCATE t")
        assert isinstance(stmt, ast.Delete) and stmt.where is None

    def test_update(self):
        stmt = parse_one("UPDATE t SET a = 1, b = b + 1 WHERE c = 'x'")
        assert isinstance(stmt, ast.Update)
        assert [s.column for s in stmt.assignments] == ["a", "b"]


class TestMiscStatements:
    def test_pragma(self):
        stmt = parse_one("PRAGMA ivm_chunked_index_build = TRUE")
        assert isinstance(stmt, ast.Pragma) and stmt.value is True

    def test_attach(self):
        stmt = parse_one("ATTACH 'postgres://db' AS oltp")
        assert isinstance(stmt, ast.Attach) and stmt.name == "oltp"

    def test_refresh(self):
        stmt = parse_one("REFRESH MATERIALIZED VIEW v")
        assert isinstance(stmt, ast.RefreshView) and stmt.name == "v"

    def test_transactions(self):
        for action in ("BEGIN", "COMMIT", "ROLLBACK"):
            assert parse_one(action).action == action


class TestIntegerArguments:
    """A malformed width or pragma number is a ParserError carrying the
    offending token's position, never a raw ValueError from ``int()``."""

    @pytest.mark.parametrize(
        "sql, found",
        [
            ("PRAGMA x = 1e5", "1e5"),
            ("SELECT\n  CAST(a AS VARCHAR(1.5))", "1.5"),
            ("SELECT a::DECIMAL(10.5)", "10.5"),
            ("CREATE TABLE t (a VARCHAR(2e1))", "2e1"),
        ],
    )
    def test_raises_parser_error_at_the_number(self, sql, found):
        with pytest.raises(ParserError) as info:
            parse_one(sql)
        assert info.value.position == sql.index(found)
        assert info.value.line == sql.count("\n", 0, sql.index(found)) + 1
        assert repr(found) in str(info.value)

    def test_well_formed_numbers_still_parse(self):
        assert parse_one("PRAGMA x = 7").value == 7
        assert parse_one("PRAGMA x = 2.5").value == 2.5
        assert parse_one("SELECT CAST(a AS DECIMAL(10, 2))").items[0].expr.width == 10


class TestScripts:
    def test_multiple_statements(self):
        stmts = parse_script("SELECT 1; SELECT 2;; SELECT 3")
        assert len(stmts) == 3

    def test_empty_script(self):
        assert parse_script("  ; ;") == []

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParserError):
            parse_script("SELECT 1 garbage extra")

    def test_parse_one_rejects_batches(self):
        with pytest.raises(ParserError):
            parse_one("SELECT 1; SELECT 2")

    def test_error_reports_line(self):
        with pytest.raises(ParserError) as info:
            parse_one("SELECT a\nFROM\n;")
        assert "line 3" in str(info.value)

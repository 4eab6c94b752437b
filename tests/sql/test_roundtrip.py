"""Property: ``parse(render(tree)) == tree`` for random expression trees.

The trees are not restricted to what a left-to-right reading would
produce: any operator may sit under any other, so the renderer must
parenthesize exactly where the parser's binding-power table would
otherwise regroup — OR/AND/NOT, IS [NOT] NULL, [NOT] IN/BETWEEN/LIKE,
the non-chaining comparisons, ``+ - ||``, ``* / %``, unary sign and casts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import ast
from repro.sql.parser import BINARY_POWER, parse_one
from repro.sql.render import render_expression

# Non-negative numbers only: ``-5`` parses as a sign applied to ``5``.
_leaves = st.one_of(
    st.integers(min_value=0, max_value=10**12).map(ast.Literal),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(ast.Literal),
    st.text(alphabet="ab' \n%_", max_size=4).map(ast.Literal),
    st.sampled_from([None, True, False]).map(ast.Literal),
    st.sampled_from("abc").map(ast.ColumnRef),
    st.builds(ast.ColumnRef, st.sampled_from("xy"), st.just("t")),
)
_negated = st.booleans()


def _nodes(children):
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(sorted(BINARY_POWER)), children, children),
        st.builds(ast.UnaryOp, st.sampled_from(["NOT", "-", "+"]), children),
        st.builds(ast.IsNull, children, _negated),
        st.builds(ast.InList, children, st.lists(children, min_size=1, max_size=3), _negated),
        st.builds(ast.Between, children, children, children, _negated),
        st.builds(ast.Like, children, children, _negated),
        st.builds(
            ast.Cast,
            children,
            st.sampled_from(["INTEGER", "VARCHAR"]),
            st.none() | st.integers(min_value=1, max_value=99),
        ),
        st.builds(
            ast.FunctionCall, st.just("COALESCE"), st.lists(children, min_size=1, max_size=2)
        ),
        st.builds(
            ast.Case,
            st.none() | children,
            st.lists(st.tuples(children, children), min_size=1, max_size=2),
            st.none() | children,
        ),
    )


expressions = st.recursive(_leaves, _nodes, max_leaves=12)


def parse_expression(sql: str) -> ast.Expression:
    return parse_one(f"SELECT {sql}").items[0].expr


@settings(max_examples=400, deadline=None)
@given(expressions)
def test_render_then_parse_is_identity(tree):
    assert parse_expression(render_expression(tree)) == tree


class TestGrouping:
    """Hand-picked readings the property relies on."""

    def test_between_and_then_and(self):
        expr = parse_expression("a BETWEEN x AND y AND z")
        assert expr == ast.BinaryOp(
            "AND",
            ast.Between(ast.ColumnRef("a"), ast.ColumnRef("x"), ast.ColumnRef("y")),
            ast.ColumnRef("z"),
        )

    def test_not_binds_looser_than_comparison_and_predicates(self):
        assert parse_expression("NOT a = b") == ast.UnaryOp(
            "NOT", ast.BinaryOp("=", ast.ColumnRef("a"), ast.ColumnRef("b"))
        )
        assert parse_expression("NOT a IS NULL") == ast.UnaryOp(
            "NOT", ast.IsNull(ast.ColumnRef("a"))
        )

    def test_predicate_applies_to_the_whole_comparison(self):
        assert parse_expression("a = b IS NULL") == ast.IsNull(
            ast.BinaryOp("=", ast.ColumnRef("a"), ast.ColumnRef("b"))
        )

    def test_sign_binds_tighter_than_product_and_looser_than_cast(self):
        assert parse_expression("-a * b").left == ast.UnaryOp("-", ast.ColumnRef("a"))
        assert parse_expression("-a::INTEGER") == ast.UnaryOp(
            "-", ast.Cast(ast.ColumnRef("a"), "INTEGER")
        )

    def test_left_associativity(self):
        assert parse_expression("a - b - c").left == ast.BinaryOp(
            "-", ast.ColumnRef("a"), ast.ColumnRef("b")
        )
        assert parse_expression("a LIKE b LIKE c").operand == ast.Like(
            ast.ColumnRef("a"), ast.ColumnRef("b")
        )

    def test_double_minus_is_not_rendered_as_a_comment(self):
        tree = ast.UnaryOp("-", ast.UnaryOp("-", ast.ColumnRef("a")))
        assert render_expression(tree) == "- -a"
        assert render_expression(ast.UnaryOp("-", ast.Literal(-5))) == "- -5"

"""Rule-based logical optimizer.

Three classic rewrites — constant folding, filter pushdown, and
filter/TRUE elimination — then the access-path choice (index probe or
scan), plus the *extension rule* mechanism: callables
registered by extension modules run as the final optimization step, which
is exactly where the paper hooks OpenIVM into DuckDB ("as a final step in
the optimization, DuckDB will call the OpenIVM extension rules").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.execution.expression import compile_expression
from repro.planner.expressions import (
    BoundBinary,
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundConstant,
    BoundExpression,
    BoundFunction,
    BoundInList,
    BoundIsNull,
    BoundParameter,
    BoundUnary,
    walk_bound,
)
from repro.planner.logical import (
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalOperator,
    LogicalProject,
    walk_plan,
)

if TYPE_CHECKING:
    from repro.catalog.catalog import Catalog
    from repro.storage.table import Table

OptimizerRule = Callable[[LogicalOperator], LogicalOperator]


class Optimizer:
    """Applies built-in rules, then registered extension rules.  The
    access-path rule reads the tables' indexes from ``catalog``."""

    def __init__(self, catalog: "Catalog") -> None:
        self._catalog = catalog
        self._extension_rules: list[OptimizerRule] = []

    def register_rule(self, rule: OptimizerRule) -> None:
        """Register an extension optimizer rule (runs after built-ins)."""
        self._extension_rules.append(rule)

    def optimize(self, plan: LogicalOperator) -> LogicalOperator:
        plan = fold_constants(plan)
        plan = remove_trivial_filters(plan)
        plan = pushdown_filters(plan)
        plan = choose_access_paths(plan, self._catalog)
        for rule in self._extension_rules:
            plan = rule(plan)
        return plan


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def _is_foldable(expr: BoundExpression) -> bool:
    """True when every node is a pure function of constants."""
    for node in walk_bound(expr):
        if isinstance(node, (BoundConstant,)):
            continue
        if isinstance(
            node,
            (BoundUnary, BoundBinary, BoundIsNull, BoundInList, BoundCase,
             BoundCast, BoundFunction),
        ):
            continue
        return False
    return True


def fold_expression(expr: BoundExpression) -> BoundExpression:
    """Evaluate constant subtrees down to BoundConstant nodes."""
    if isinstance(expr, BoundConstant):
        return expr
    if _is_foldable(expr):
        try:
            value = compile_expression(expr)((), None)
        except Exception:
            return expr
        folded = BoundConstant(value)
        folded.type = expr.type
        return folded
    # Fold children in place (bound expressions are single-owner trees).
    if isinstance(expr, BoundUnary):
        expr.operand = fold_expression(expr.operand)
    elif isinstance(expr, BoundBinary):
        expr.left = fold_expression(expr.left)
        expr.right = fold_expression(expr.right)
        return _simplify_logical(expr)
    elif isinstance(expr, BoundIsNull):
        expr.operand = fold_expression(expr.operand)
    elif isinstance(expr, BoundInList):
        expr.operand = fold_expression(expr.operand)
        expr.items = [fold_expression(i) for i in expr.items]
    elif isinstance(expr, BoundCase):
        if expr.operand is not None:
            expr.operand = fold_expression(expr.operand)
        expr.branches = [
            (fold_expression(w), fold_expression(t)) for w, t in expr.branches
        ]
        if expr.else_result is not None:
            expr.else_result = fold_expression(expr.else_result)
    elif isinstance(expr, BoundCast):
        expr.operand = fold_expression(expr.operand)
    elif isinstance(expr, BoundFunction):
        expr.args = [fold_expression(a) for a in expr.args]
    return expr


def _simplify_logical(expr: BoundBinary) -> BoundExpression:
    """AND/OR identity simplification after folding."""
    if expr.op == "AND":
        if _is_const(expr.left, True):
            return expr.right
        if _is_const(expr.right, True):
            return expr.left
        if _is_const(expr.left, False) or _is_const(expr.right, False):
            return BoundConstant(False)
    if expr.op == "OR":
        if _is_const(expr.left, False):
            return expr.right
        if _is_const(expr.right, False):
            return expr.left
        if _is_const(expr.left, True) or _is_const(expr.right, True):
            return BoundConstant(True)
    return expr


def _is_const(expr: BoundExpression, value) -> bool:
    return isinstance(expr, BoundConstant) and expr.value is value


def fold_constants(plan: LogicalOperator) -> LogicalOperator:
    """Fold constants in every operator's expressions, bottom-up."""
    new_children = [fold_constants(c) for c in plan.children]
    if new_children:
        plan.replace_children(new_children)
    if isinstance(plan, LogicalFilter):
        plan.predicate = fold_expression(plan.predicate)
    elif isinstance(plan, LogicalProject):
        plan.expressions = [fold_expression(e) for e in plan.expressions]
    elif isinstance(plan, LogicalJoin) and plan.condition is not None:
        plan.condition = fold_expression(plan.condition)
    return plan


# ---------------------------------------------------------------------------
# Filter rules
# ---------------------------------------------------------------------------


def remove_trivial_filters(plan: LogicalOperator) -> LogicalOperator:
    """Drop ``WHERE TRUE`` filters produced by folding."""
    new_children = [remove_trivial_filters(c) for c in plan.children]
    if new_children:
        plan.replace_children(new_children)
    if isinstance(plan, LogicalFilter) and _is_const(plan.predicate, True):
        return plan.child
    return plan


def _max_column_index(expr: BoundExpression) -> int:
    highest = -1
    for node in walk_bound(expr):
        if isinstance(node, BoundColumn):
            highest = max(highest, node.index)
    return highest


def _min_column_index(expr: BoundExpression) -> int:
    lowest = 1 << 30
    for node in walk_bound(expr):
        if isinstance(node, BoundColumn):
            lowest = min(lowest, node.index)
    return lowest


def _shift_columns(expr: BoundExpression, delta: int) -> None:
    for node in walk_bound(expr):
        if isinstance(node, BoundColumn):
            node.index += delta


def pushdown_filters(plan: LogicalOperator) -> LogicalOperator:
    """Push filter conjuncts below inner joins when they touch one side.

    Only INNER joins are safe for unconditional pushdown; outer joins keep
    their filters in place (pushing below the null-producing side changes
    results).
    """
    new_children = [pushdown_filters(c) for c in plan.children]
    if new_children:
        plan.replace_children(new_children)
    if not isinstance(plan, LogicalFilter):
        return plan
    child = plan.child
    if not isinstance(child, LogicalJoin) or child.join_type != "INNER":
        return plan
    left_arity = child.left.arity
    conjuncts = _split_conjuncts(plan.predicate)
    left_only: list[BoundExpression] = []
    right_only: list[BoundExpression] = []
    kept: list[BoundExpression] = []
    for conjunct in conjuncts:
        high = _max_column_index(conjunct)
        low = _min_column_index(conjunct)
        if high < left_arity and high >= 0:
            left_only.append(conjunct)
        elif low >= left_arity and low < (1 << 30):
            right_only.append(conjunct)
        else:
            kept.append(conjunct)
    if not left_only and not right_only:
        return plan
    if left_only:
        child.left = LogicalFilter(
            child=child.left, predicate=_join_conjuncts(left_only)
        )
    if right_only:
        for conjunct in right_only:
            _shift_columns(conjunct, -left_arity)
        child.right = LogicalFilter(
            child=child.right, predicate=_join_conjuncts(right_only)
        )
    child.replace_children([child.left, child.right])
    if kept:
        return LogicalFilter(child=child, predicate=_join_conjuncts(kept))
    return child


def _split_conjuncts(expr: BoundExpression) -> list[BoundExpression]:
    if isinstance(expr, BoundBinary) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _join_conjuncts(conjuncts: list[BoundExpression]) -> BoundExpression:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BoundBinary(op="AND", left=result, right=conjunct)
    return result


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------

_ROW_INDEPENDENT = (BoundConstant, BoundParameter, BoundUnary, BoundBinary, BoundCast)


def _row_independent(expr: BoundExpression) -> bool:
    """Constants, ``?`` parameters, and arithmetic and casts over them: one
    value per statement."""
    return all(isinstance(node, _ROW_INDEPENDENT) for node in walk_bound(expr))


def index_probe(
    predicate: BoundExpression, table: "Table"
) -> tuple[str, list[tuple[int, list[BoundExpression]]]] | None:
    """The index probe that answers ``predicate`` (bound over ``table``'s
    columns), for SELECT, UPDATE and DELETE alike.  Every conjunct
    ``column = E``, ``E = column`` or ``column IN (E, …)`` with
    row-independent ``E`` binds its column to key expressions; the result
    is an index whose key columns are all bound, and the bindings as
    ``(column ordinal, expressions)`` in conjunct order (of two on one
    column the first is the key; the executor checks the values of all).
    None when no index is covered.  The probe finds a superset of the
    matching rows, so the caller still evaluates the whole predicate."""
    bindings: list[tuple[int, list[BoundExpression]]] = []
    for conjunct in _split_conjuncts(predicate):
        if isinstance(conjunct, BoundBinary) and conjunct.op == "=":
            sides = ((conjunct.left, [conjunct.right]), (conjunct.right, [conjunct.left]))
        elif isinstance(conjunct, BoundInList) and not conjunct.negated:
            sides = ((conjunct.operand, conjunct.items),)
        else:
            continue
        for column, keys in sides:
            if isinstance(column, BoundColumn) and all(map(_row_independent, keys)):
                bindings.append((column.index, keys))
                break
    covering = table.covering_index({ordinal for ordinal, _ in bindings})
    return (covering[0], bindings) if covering else None


def choose_access_paths(plan: LogicalOperator, catalog: "Catalog") -> LogicalOperator:
    """Record an index probe on every Get whose Filter binds an index key
    (pushed-down join sides included); EXPLAIN shows it as INDEX_SCAN."""
    for operator in walk_plan(plan):
        if isinstance(operator, LogicalFilter) and isinstance(operator.child, LogicalGet):
            get = operator.child
            source = catalog.attached(get.database) if get.database else catalog
            choice = index_probe(operator.predicate, source.table(get.table))
            if choice is not None:
                get.index, get.keys = choice
    return plan

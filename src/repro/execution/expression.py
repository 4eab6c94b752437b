"""Compile bound expressions into Python closures — and column kernels.

Each bound expression becomes a function ``(row, ctx) -> value`` where
``row`` is the child operator's output tuple and ``ctx`` the
:class:`~repro.execution.executor.ExecutionContext` (parameters, subquery
cache).  Compilation happens once per plan; evaluation is then a plain
closure call per row, which keeps the interpreter overhead tolerable at
benchmark scale.

The second half of this module is the *vectorized* form of the same
compiler: :func:`compile_batch_expression` turns a bound expression into
a ``(columns, n, ctx) -> ndarray`` evaluator that walks the tree once
per *batch* instead of once per row — every node is one C-dispatched
pass over object-dtype column arrays (``np.frompyfunc`` of the node's
scalar kernel), so evaluating an expression over a
:class:`~repro.zset.batch.ZSetBatch` costs O(nodes) array passes rather
than O(rows × nodes) closure calls.  :func:`batch_eval` is the batch
entry point; its boolean results feed
:func:`repro.zset.operators.batch_filter` through :func:`true_mask`.

All evaluators implement SQL three-valued logic: NULL (``None``)
propagates through operators, AND/OR use Kleene logic, and comparisons
with NULL yield NULL.  The batch evaluators are held equal to the row
evaluators — value for value, including which sub-expressions are
(not) evaluated: AND/OR only evaluate their right side on rows the left
side did not decide, and CASE branches only run on the rows that reach
them, so data-dependent errors (division by zero in a guarded branch)
surface identically on both paths.  The one deliberate batch/row
difference: zero-argument function calls are evaluated once per batch
and broadcast (all engine functions are pure).
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from repro.datatypes.values import cast_value, sql_compare
from repro.errors import ExecutionError
from repro.planner.expressions import (
    BoundBetween,
    BoundBinary,
    BoundCase,
    BoundCast,
    BoundColumn,
    BoundConstant,
    BoundExists,
    BoundExpression,
    BoundFunction,
    BoundInList,
    BoundInSubquery,
    BoundIsNull,
    BoundLike,
    BoundParameter,
    BoundSubquery,
    BoundUnary,
)

Evaluator = Callable[[tuple, Any], Any]


def compile_expression(expr: BoundExpression) -> Evaluator:
    """Compile a bound expression tree into an evaluator closure."""
    if isinstance(expr, BoundConstant):
        value = expr.value
        return lambda row, ctx: value
    if isinstance(expr, BoundColumn):
        index = expr.index
        return lambda row, ctx: row[index]
    if isinstance(expr, BoundParameter):
        slot = expr.index
        return lambda row, ctx: ctx.parameter(slot)
    if isinstance(expr, BoundUnary):
        return _compile_unary(expr)
    if isinstance(expr, BoundBinary):
        return _compile_binary(expr)
    if isinstance(expr, BoundIsNull):
        inner = compile_expression(expr.operand)
        if expr.negated:
            return lambda row, ctx: inner(row, ctx) is not None
        return lambda row, ctx: inner(row, ctx) is None
    if isinstance(expr, BoundInList):
        return _compile_in_list(expr)
    if isinstance(expr, BoundBetween):
        return _compile_between(expr)
    if isinstance(expr, BoundLike):
        return _compile_like(expr)
    if isinstance(expr, BoundCase):
        return _compile_case(expr)
    if isinstance(expr, BoundCast):
        inner = compile_expression(expr.operand)
        target = expr.type
        return lambda row, ctx: cast_value(inner(row, ctx), target)
    if isinstance(expr, BoundFunction):
        return _compile_function(expr)
    if isinstance(expr, BoundSubquery):
        plan = expr.plan
        return lambda row, ctx: ctx.scalar_subquery(plan)
    if isinstance(expr, BoundExists):
        plan, negated = expr.plan, expr.negated
        if negated:
            return lambda row, ctx: not ctx.subquery_rows(plan)
        return lambda row, ctx: bool(ctx.subquery_rows(plan))
    if isinstance(expr, BoundInSubquery):
        return _compile_in_subquery(expr)
    raise ExecutionError(f"cannot compile expression {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _compile_unary(expr: BoundUnary) -> Evaluator:
    inner = compile_expression(expr.operand)
    if expr.op == "-":
        def negate(row, ctx):
            value = inner(row, ctx)
            return None if value is None else -value
        return negate
    if expr.op == "+":
        return inner
    if expr.op == "NOT":
        def invert(row, ctx):
            value = inner(row, ctx)
            return None if value is None else (not value)
        return invert
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


def _compile_binary(expr: BoundBinary) -> Evaluator:
    op = expr.op
    left = compile_expression(expr.left)
    right = compile_expression(expr.right)
    if op == "AND":
        def kleene_and(row, ctx):
            lhs = left(row, ctx)
            if lhs is False:
                return False
            rhs = right(row, ctx)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True
        return kleene_and
    if op == "OR":
        def kleene_or(row, ctx):
            lhs = left(row, ctx)
            if lhs is True:
                return True
            rhs = right(row, ctx)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False
        return kleene_or
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _compile_comparison(op, left, right)
    if op == "||":
        def concat(row, ctx):
            lhs, rhs = left(row, ctx), right(row, ctx)
            if lhs is None or rhs is None:
                return None
            return _to_text(lhs) + _to_text(rhs)
        return concat
    if op == "+":
        def add(row, ctx):
            lhs, rhs = left(row, ctx), right(row, ctx)
            if lhs is None or rhs is None:
                return None
            return lhs + rhs
        return add
    if op == "-":
        def sub(row, ctx):
            lhs, rhs = left(row, ctx), right(row, ctx)
            if lhs is None or rhs is None:
                return None
            return lhs - rhs
        return sub
    if op == "*":
        def mul(row, ctx):
            lhs, rhs = left(row, ctx), right(row, ctx)
            if lhs is None or rhs is None:
                return None
            return lhs * rhs
        return mul
    if op == "/":
        def div(row, ctx):
            lhs, rhs = left(row, ctx), right(row, ctx)
            if lhs is None or rhs is None:
                return None
            if rhs == 0:
                raise ExecutionError("division by zero")
            return lhs / rhs
        return div
    if op == "%":
        def mod(row, ctx):
            return _sql_mod(left(row, ctx), right(row, ctx))
        return mod
    raise ExecutionError(f"unknown binary operator {op!r}")


def _compile_comparison(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    def compare(row, ctx):
        ordering = sql_compare(left(row, ctx), right(row, ctx))
        if ordering is None:
            return None
        if op == "=":
            return ordering == 0
        if op == "<>":
            return ordering != 0
        if op == "<":
            return ordering < 0
        if op == "<=":
            return ordering <= 0
        if op == ">":
            return ordering > 0
        return ordering >= 0
    return compare


def _compile_in_list(expr: BoundInList) -> Evaluator:
    operand = compile_expression(expr.operand)
    items = [compile_expression(item) for item in expr.items]
    negated = expr.negated

    def contains(row, ctx):
        value = operand(row, ctx)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row, ctx)
            ordering = sql_compare(value, candidate)
            if ordering is None:
                saw_null = True
            elif ordering == 0:
                return not negated
        if saw_null:
            return None
        return negated

    return contains


def _compile_in_subquery(expr: BoundInSubquery) -> Evaluator:
    operand = compile_expression(expr.operand)
    plan, negated = expr.plan, expr.negated

    def contains(row, ctx):
        value = operand(row, ctx)
        if value is None:
            return None
        rows = ctx.subquery_rows(plan)
        saw_null = False
        for (candidate,) in rows:
            ordering = sql_compare(value, candidate)
            if ordering is None:
                saw_null = True
            elif ordering == 0:
                return not negated
        if saw_null:
            return None
        return negated

    return contains


def _compile_between(expr: BoundBetween) -> Evaluator:
    operand = compile_expression(expr.operand)
    low = compile_expression(expr.low)
    high = compile_expression(expr.high)
    negated = expr.negated

    def between(row, ctx):
        value = operand(row, ctx)
        low_cmp = sql_compare(value, low(row, ctx))
        high_cmp = sql_compare(value, high(row, ctx))
        if low_cmp is None or high_cmp is None:
            return None
        result = low_cmp >= 0 and high_cmp <= 0
        return (not result) if negated else result

    return between


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern:
    regex = ["^"]
    for ch in pattern:
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    regex.append("$")
    return re.compile("".join(regex), re.DOTALL)


def _compile_like(expr: BoundLike) -> Evaluator:
    operand = compile_expression(expr.operand)
    pattern = compile_expression(expr.pattern)
    negated = expr.negated

    def like(row, ctx):
        value = operand(row, ctx)
        pat = pattern(row, ctx)
        if value is None or pat is None:
            return None
        result = bool(_like_regex(pat).match(_to_text(value)))
        return (not result) if negated else result

    return like


def _compile_case(expr: BoundCase) -> Evaluator:
    branches = [
        (compile_expression(when), compile_expression(then))
        for when, then in expr.branches
    ]
    else_eval = (
        compile_expression(expr.else_result) if expr.else_result is not None else None
    )
    if expr.operand is None:
        def searched(row, ctx):
            for when, then in branches:
                if when(row, ctx) is True:
                    return then(row, ctx)
            return else_eval(row, ctx) if else_eval else None
        return searched

    operand = compile_expression(expr.operand)

    def simple(row, ctx):
        value = operand(row, ctx)
        for when, then in branches:
            if sql_compare(value, when(row, ctx)) == 0:
                return then(row, ctx)
        return else_eval(row, ctx) if else_eval else None

    return simple


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _to_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _fn_coalesce(args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_round(args):
    if args[0] is None:
        return None
    digits = int(args[1]) if len(args) > 1 and args[1] is not None else 0
    return round(float(args[0]), digits)


def _fn_substr(args):
    text = args[0]
    if text is None or args[1] is None:
        return None
    start = int(args[1]) - 1
    if start < 0:
        start = 0
    if len(args) > 2 and args[2] is not None:
        return text[start:start + int(args[2])]
    return text[start:]


def _null_guard(fn):
    def wrapped(args):
        if any(a is None for a in args):
            return None
        return fn(args)
    return wrapped


_FUNCTIONS: dict[str, Callable[[list], Any]] = {
    "COALESCE": _fn_coalesce,
    "ABS": _null_guard(lambda a: abs(a[0])),
    "ROUND": _fn_round,
    "FLOOR": _null_guard(lambda a: math.floor(a[0])),
    "CEIL": _null_guard(lambda a: math.ceil(a[0])),
    "CEILING": _null_guard(lambda a: math.ceil(a[0])),
    "LENGTH": _null_guard(lambda a: len(_to_text(a[0]))),
    "STRLEN": _null_guard(lambda a: len(_to_text(a[0]))),
    "LOWER": _null_guard(lambda a: _to_text(a[0]).lower()),
    "UPPER": _null_guard(lambda a: _to_text(a[0]).upper()),
    "TRIM": _null_guard(lambda a: _to_text(a[0]).strip()),
    "LTRIM": _null_guard(lambda a: _to_text(a[0]).lstrip()),
    "RTRIM": _null_guard(lambda a: _to_text(a[0]).rstrip()),
    "SUBSTR": _fn_substr,
    "SUBSTRING": _fn_substr,
    "CONCAT": lambda a: "".join(_to_text(x) for x in a if x is not None),
    "REPLACE": _null_guard(lambda a: _to_text(a[0]).replace(_to_text(a[1]), _to_text(a[2]))),
    "NULLIF": lambda a: None if sql_compare(a[0], a[1]) == 0 else a[0],
    "GREATEST": lambda a: max((x for x in a if x is not None), default=None),
    "LEAST": lambda a: min((x for x in a if x is not None), default=None),
    "MOD": lambda a: _sql_mod(a[0], a[1]),
    "POWER": _null_guard(lambda a: float(a[0]) ** float(a[1])),
    "POW": _null_guard(lambda a: float(a[0]) ** float(a[1])),
    "SQRT": _null_guard(lambda a: math.sqrt(a[0])),
    "LN": _null_guard(lambda a: math.log(a[0])),
    "EXP": _null_guard(lambda a: math.exp(a[0])),
    "SIGN": _null_guard(lambda a: (a[0] > 0) - (a[0] < 0)),
    "LEFT": _null_guard(lambda a: _to_text(a[0])[: int(a[1])]),
    "RIGHT": _null_guard(lambda a: _to_text(a[0])[-int(a[1]):] if int(a[1]) else ""),
}


def _compile_function(expr: BoundFunction) -> Evaluator:
    try:
        fn = _FUNCTIONS[expr.name.upper()]
    except KeyError:
        raise ExecutionError(f"unknown function {expr.name!r}") from None
    arg_evals = [compile_expression(arg) for arg in expr.args]

    def call(row, ctx):
        return fn([arg(row, ctx) for arg in arg_evals])

    return call


# ---------------------------------------------------------------------------
# Vectorized (batch) compilation
# ---------------------------------------------------------------------------

# A batch evaluator maps (column arrays, entry count, execution context)
# to one object-dtype ndarray of per-entry values.  ``n`` is passed
# explicitly so constants can broadcast over zero-column batches.
BatchEvaluator = Callable[[Sequence[np.ndarray], int, Any], np.ndarray]

_is_true_ufunc = np.frompyfunc(lambda v: v is True, 1, 1)


def true_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of entries whose value is exactly ``True``.

    SQL WHERE keeps rows whose predicate is TRUE (not NULL); this is the
    adapter between a batch-evaluated predicate and the ``mask`` argument
    of :func:`repro.zset.operators.batch_filter`.
    """
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    return _is_true_ufunc(values).astype(bool)


def batch_eval(evaluator: BatchEvaluator, batch, ctx) -> np.ndarray:
    """Evaluate a compiled batch expression over a Z-set batch.

    ``batch`` is duck-typed (anything exposing ``columns`` and
    ``__len__`` — in practice a :class:`~repro.zset.batch.ZSetBatch`);
    weights are irrelevant here, expressions see values only.
    """
    return evaluator(batch.columns, len(batch), ctx)


def _broadcast(value: Any, n: int) -> np.ndarray:
    out = np.empty(n, dtype=object)
    out.fill(value)
    return out


def _lift(scalar_fn: Callable, arg_evals: list[BatchEvaluator]) -> BatchEvaluator:
    """One vectorized pass of a scalar kernel over the argument columns."""
    ufunc = np.frompyfunc(scalar_fn, len(arg_evals), 1)

    def evaluate(columns, n, ctx):
        args = [arg(columns, n, ctx) for arg in arg_evals]
        if n == 0:
            return np.empty(0, dtype=object)
        return ufunc(*args)

    return evaluate


def compile_batch_expression(expr: BoundExpression) -> BatchEvaluator:
    """Compile a bound expression into a column-at-a-time evaluator.

    Semantics are identical to :func:`compile_expression` applied per
    row (property-tested in ``tests/execution/test_expression_batch.py``),
    including *which* sub-expressions are evaluated: AND/OR guard their
    right side and CASE guards its branches by sub-batch masking, so
    conditionally-unreachable errors stay unreachable.
    """
    if isinstance(expr, BoundConstant):
        value = expr.value
        return lambda columns, n, ctx: _broadcast(value, n)
    if isinstance(expr, BoundColumn):
        index = expr.index
        return lambda columns, n, ctx: np.asarray(columns[index], dtype=object)
    if isinstance(expr, BoundParameter):
        slot = expr.index
        return lambda columns, n, ctx: _broadcast(ctx.parameter(slot), n)
    if isinstance(expr, BoundUnary):
        inner = compile_batch_expression(expr.operand)
        if expr.op == "+":
            return inner
        if expr.op == "-":
            return _lift(lambda v: None if v is None else -v, [inner])
        if expr.op == "NOT":
            return _lift(lambda v: None if v is None else (not v), [inner])
        raise ExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BoundBinary):
        return _compile_batch_binary(expr)
    if isinstance(expr, BoundIsNull):
        inner = compile_batch_expression(expr.operand)
        if expr.negated:
            return _lift(lambda v: v is not None, [inner])
        return _lift(lambda v: v is None, [inner])
    if isinstance(expr, BoundInList):
        evals = [compile_batch_expression(e) for e in [expr.operand] + expr.items]
        negated = expr.negated

        def contains(value, *candidates):
            if value is None:
                return None
            saw_null = False
            for candidate in candidates:
                ordering = sql_compare(value, candidate)
                if ordering is None:
                    saw_null = True
                elif ordering == 0:
                    return not negated
            if saw_null:
                return None
            return negated

        return _lift(contains, evals)
    if isinstance(expr, BoundBetween):
        evals = [
            compile_batch_expression(e)
            for e in (expr.operand, expr.low, expr.high)
        ]
        negated = expr.negated

        def between(value, low, high):
            low_cmp = sql_compare(value, low)
            high_cmp = sql_compare(value, high)
            if low_cmp is None or high_cmp is None:
                return None
            result = low_cmp >= 0 and high_cmp <= 0
            return (not result) if negated else result

        return _lift(between, evals)
    if isinstance(expr, BoundLike):
        evals = [
            compile_batch_expression(e) for e in (expr.operand, expr.pattern)
        ]
        negated = expr.negated

        def like(value, pattern):
            if value is None or pattern is None:
                return None
            result = bool(_like_regex(pattern).match(_to_text(value)))
            return (not result) if negated else result

        return _lift(like, evals)
    if isinstance(expr, BoundCase):
        return _compile_batch_case(expr)
    if isinstance(expr, BoundCast):
        inner = compile_batch_expression(expr.operand)
        target = expr.type
        return _lift(lambda v: cast_value(v, target), [inner])
    if isinstance(expr, BoundFunction):
        try:
            fn = _FUNCTIONS[expr.name.upper()]
        except KeyError:
            raise ExecutionError(f"unknown function {expr.name!r}") from None
        if not expr.args:
            # Zero-argument calls: engine functions are pure, so one call
            # per batch broadcast beats one per row.
            return lambda columns, n, ctx: _broadcast(fn([]), n)
        arg_evals = [compile_batch_expression(a) for a in expr.args]
        return _lift(lambda *args: fn(list(args)), arg_evals)
    if isinstance(expr, BoundSubquery):
        plan = expr.plan
        return lambda columns, n, ctx: _broadcast(ctx.scalar_subquery(plan), n)
    if isinstance(expr, BoundExists):
        plan, negated = expr.plan, expr.negated
        if negated:
            return lambda columns, n, ctx: _broadcast(
                not ctx.subquery_rows(plan), n
            )
        return lambda columns, n, ctx: _broadcast(
            bool(ctx.subquery_rows(plan)), n
        )
    if isinstance(expr, BoundInSubquery):
        operand = compile_batch_expression(expr.operand)
        plan, negated = expr.plan, expr.negated

        def contains_sub(columns, n, ctx):
            rows = ctx.subquery_rows(plan)

            def contains(value):
                if value is None:
                    return None
                saw_null = False
                for (candidate,) in rows:
                    ordering = sql_compare(value, candidate)
                    if ordering is None:
                        saw_null = True
                    elif ordering == 0:
                        return not negated
                if saw_null:
                    return None
                return negated

            values = operand(columns, n, ctx)
            if n == 0:
                return np.empty(0, dtype=object)
            return np.frompyfunc(contains, 1, 1)(values)

        return contains_sub
    raise ExecutionError(
        f"cannot batch-compile expression {type(expr).__name__}"
    )


_BINARY_KERNELS: dict[str, Callable] = {}


def _binary_kernel(op: str):
    def register(fn):
        _BINARY_KERNELS[op] = fn
        return fn
    return register


@_binary_kernel("||")
def _k_concat(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    return _to_text(lhs) + _to_text(rhs)


@_binary_kernel("+")
def _k_add(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    return lhs + rhs


@_binary_kernel("-")
def _k_sub(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    return lhs - rhs


@_binary_kernel("*")
def _k_mul(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    return lhs * rhs


@_binary_kernel("/")
def _k_div(lhs, rhs):
    if lhs is None or rhs is None:
        return None
    if rhs == 0:
        raise ExecutionError("division by zero")
    return lhs / rhs


@_binary_kernel("%")
def _sql_mod(lhs, rhs):
    """``lhs % rhs`` as SQL computes it, for the row evaluator, the batch
    kernel and ``MOD()`` alike: NULL in gives NULL, a zero divisor is an
    error, and the remainder takes the sign of the dividend (DuckDB,
    PostgreSQL and SQLite truncate; Python's ``%`` floors and takes the
    divisor's sign)."""
    if lhs is None or rhs is None:
        return None
    if rhs == 0:
        raise ExecutionError("modulo by zero")
    if isinstance(lhs, float) or isinstance(rhs, float):
        return math.fmod(lhs, rhs)
    remainder = abs(lhs) % abs(rhs)
    return -remainder if lhs < 0 else remainder


def _comparison_kernel(op: str):
    def compare(lhs, rhs):
        ordering = sql_compare(lhs, rhs)
        if ordering is None:
            return None
        if op == "=":
            return ordering == 0
        if op == "<>":
            return ordering != 0
        if op == "<":
            return ordering < 0
        if op == "<=":
            return ordering <= 0
        if op == ">":
            return ordering > 0
        return ordering >= 0
    return compare


_kleene_and_ufunc = np.frompyfunc(
    lambda l, r: False
    if (l is False or r is False)
    else (None if (l is None or r is None) else True),
    2, 1,
)
_kleene_or_ufunc = np.frompyfunc(
    lambda l, r: True
    if (l is True or r is True)
    else (None if (l is None or r is None) else False),
    2, 1,
)


def _compile_batch_binary(expr: BoundBinary) -> BatchEvaluator:
    op = expr.op
    left = compile_batch_expression(expr.left)
    right = compile_batch_expression(expr.right)
    if op in ("AND", "OR"):
        # Mirror the row evaluator's short-circuit: the right side runs
        # only on entries the left side did not already decide, via a
        # gather / evaluate / scatter on the undecided sub-batch.
        decided = False if op == "AND" else True
        combine = _kleene_and_ufunc if op == "AND" else _kleene_or_ufunc

        def kleene(columns, n, ctx):
            lhs = left(columns, n, ctx)
            undecided = np.fromiter(
                (v is not decided for v in lhs), dtype=bool, count=n
            )
            if n and undecided.all():
                # Common case (a selective left side decides nothing):
                # no sub-batch gather, combine in place over the full
                # columns.
                return combine(lhs, right(columns, n, ctx))
            result = _broadcast(decided, n)
            if undecided.any():
                idx = np.nonzero(undecided)[0]
                sub = [column[idx] for column in columns]
                rhs = right(sub, len(idx), ctx)
                result[idx] = combine(lhs[idx], rhs)
            return result

        return kleene
    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _lift(_comparison_kernel(op), [left, right])
    try:
        kernel = _BINARY_KERNELS[op]
    except KeyError:
        raise ExecutionError(f"unknown binary operator {op!r}") from None
    return _lift(kernel, [left, right])


def _compile_batch_case(expr: BoundCase) -> BatchEvaluator:
    branches = [
        (compile_batch_expression(when), compile_batch_expression(then))
        for when, then in expr.branches
    ]
    else_eval = (
        compile_batch_expression(expr.else_result)
        if expr.else_result is not None
        else None
    )
    operand = (
        compile_batch_expression(expr.operand)
        if expr.operand is not None
        else None
    )

    def case(columns, n, ctx):
        result = _broadcast(None, n)
        remaining = np.arange(n)
        operand_values = (
            operand(columns, n, ctx) if operand is not None else None
        )
        for when_eval, then_eval in branches:
            if len(remaining) == 0:
                break
            sub = [column[remaining] for column in columns]
            conditions = when_eval(sub, len(remaining), ctx)
            if operand_values is None:
                hit = np.fromiter(
                    (v is True for v in conditions),
                    dtype=bool, count=len(remaining),
                )
            else:
                hit = np.fromiter(
                    (
                        sql_compare(value, candidate) == 0
                        for value, candidate in zip(
                            operand_values[remaining], conditions
                        )
                    ),
                    dtype=bool, count=len(remaining),
                )
            if hit.any():
                taken = remaining[hit]
                taken_sub = [column[taken] for column in columns]
                result[taken] = then_eval(taken_sub, len(taken), ctx)
            remaining = remaining[~hit]
        if else_eval is not None and len(remaining):
            sub = [column[remaining] for column in columns]
            result[remaining] = else_eval(sub, len(remaining), ctx)
        return result

    return case

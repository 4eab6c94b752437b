"""Materializing plan executor.

Each logical operator is interpreted into a Python list of row tuples.
Materialization (rather than a streaming iterator model) keeps the code
obvious and is fine at the data scale the benchmarks use; the join and
aggregate operators use hash tables, so asymptotics match a real engine.
"""

from __future__ import annotations

import datetime
import functools
import itertools
from typing import TYPE_CHECKING, Any, Sequence

from repro.datatypes.types import TypeId
from repro.datatypes.values import sql_compare
from repro.errors import ExecutionError
from repro.execution.aggregates import make_aggregate_state
from repro.execution.expression import compile_expression
from repro.planner.expressions import (
    BoundBinary,
    BoundColumn,
    BoundConstant,
    BoundExpression,
)
from repro.planner.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalMaterializedCTE,
    LogicalOperator,
    LogicalOrder,
    LogicalProject,
    LogicalSetOp,
    LogicalValues,
)

if TYPE_CHECKING:
    from repro.catalog.catalog import Catalog
    from repro.storage.table import Table

Row = tuple


class ExecutionContext:
    """Runtime state for one statement execution."""

    def __init__(self, catalog: "Catalog", parameters: Sequence[Any] = ()) -> None:
        self.catalog = catalog
        self._parameters = list(parameters)
        self._cte_cache: dict[int, list[Row]] = {}
        self._subquery_cache: dict[int, list[Row]] = {}

    def parameter(self, index: int) -> Any:
        try:
            return self._parameters[index]
        except IndexError:
            raise ExecutionError(
                f"statement requires at least {index + 1} parameters, "
                f"got {len(self._parameters)}"
            ) from None

    def cte_rows(self, plan: LogicalOperator) -> list[Row]:
        key = id(plan)
        if key not in self._cte_cache:
            self._cte_cache[key] = execute_plan(plan, self)
        return self._cte_cache[key]

    def subquery_rows(self, plan: LogicalOperator) -> list[Row]:
        key = id(plan)
        if key not in self._subquery_cache:
            self._subquery_cache[key] = execute_plan(plan, self)
        return self._subquery_cache[key]

    def scalar_subquery(self, plan: LogicalOperator) -> Any:
        rows = self.subquery_rows(plan)
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        return rows[0][0]


def execute_plan(plan: LogicalOperator, ctx: ExecutionContext) -> list[Row]:
    """Execute ``plan`` and return its rows."""
    if isinstance(plan, LogicalGet):
        catalog = ctx.catalog
        if plan.database:
            catalog = catalog.attached(plan.database)
        table = catalog.table(plan.table)
        if plan.index:
            candidates = probe_rows(table, plan.index, plan.keys, ctx)
            if candidates is not None:
                return [row for _, row in candidates]
        return list(table.scan())
    if isinstance(plan, LogicalValues):
        rows = []
        for exprs in plan.rows:
            evaluators = [compile_expression(e) for e in exprs]
            rows.append(tuple(e((), ctx) for e in evaluators))
        return rows
    if isinstance(plan, LogicalMaterializedCTE):
        return list(ctx.cte_rows(plan.plan))
    if isinstance(plan, LogicalFilter):
        rows = execute_plan(plan.child, ctx)
        predicate = compile_expression(plan.predicate)
        return [row for row in rows if predicate(row, ctx) is True]
    if isinstance(plan, LogicalProject):
        rows = execute_plan(plan.child, ctx)
        evaluators = [compile_expression(e) for e in plan.expressions]
        return [tuple(e(row, ctx) for e in evaluators) for row in rows]
    if isinstance(plan, LogicalAggregate):
        return _execute_aggregate(plan, ctx)
    if isinstance(plan, LogicalJoin):
        return _execute_join(plan, ctx)
    if isinstance(plan, LogicalSetOp):
        return _execute_set_op(plan, ctx)
    if isinstance(plan, LogicalDistinct):
        rows = execute_plan(plan.child, ctx)
        seen: set = set()
        result = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                result.append(row)
        return result
    if isinstance(plan, LogicalOrder):
        return _execute_order(plan, ctx)
    if isinstance(plan, LogicalLimit):
        rows = execute_plan(plan.child, ctx)
        start = plan.offset
        end = None if plan.limit is None else start + plan.limit
        return rows[start:end]
    raise ExecutionError(f"cannot execute {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Index scan
# ---------------------------------------------------------------------------

# The Python types a column of each SQL type stores; ``type(True)`` is
# ``bool``, so a boolean is not a number here.
_NUMBER = (int, float)
_STORAGE_CLASS = {
    TypeId.BOOLEAN: (bool,),
    TypeId.INTEGER: _NUMBER,
    TypeId.BIGINT: _NUMBER,
    TypeId.DOUBLE: _NUMBER,
    TypeId.VARCHAR: (str,),
    TypeId.DATE: (datetime.date,),
}
_MAX_EXACT_KEY = 2**53  # beyond it (and for NaN) key bytes and ``=`` part ways


def probe_rows(
    table: "Table",
    index: str,
    bindings: list[tuple[int, list[BoundExpression]]],
    ctx: ExecutionContext,
) -> list[tuple[int, Row]] | None:
    """Candidate ``(row_id, row)`` pairs, in scan order, for a predicate
    whose equality conjuncts bind ``index``'s key columns (the planner's
    ``index_probe`` result); the caller re-checks its predicate on them.
    None means "scan instead": a key expression raised (the scan raises it
    too, if a row gets that far), a value is not of its column's storage
    class (``=`` would coerce or raise where key bytes simply differ; this
    is checked for every binding, since the probe skips the rows such a
    comparison would raise on), or the table declined (snapshot reader).
    A NULL key equals nothing and is dropped."""
    try:
        evaluated = [
            (
                ordinal,
                [
                    expr.value
                    if type(expr) is BoundConstant
                    else compile_expression(expr)((), ctx)
                    for expr in exprs
                ],
            )
            for ordinal, exprs in bindings
        ]
    except Exception:  # noqa: BLE001 - whatever it is, it is the scan's to raise
        return None
    columns = table.schema.columns
    bound: dict[int, list] = {}
    for ordinal, values in evaluated:
        classes = _STORAGE_CLASS[columns[ordinal].type.id]
        values = [value for value in values if value is not None]
        for value in values:
            if type(value) not in classes or (
                classes is _NUMBER and not abs(value) <= _MAX_EXACT_KEY
            ):
                return None
        bound.setdefault(ordinal, values)
    key_columns = table.index_key_columns(index)
    return table.probe(index, itertools.product(*(bound[c] for c in key_columns)))


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------


def _execute_aggregate(plan: LogicalAggregate, ctx: ExecutionContext) -> list[Row]:
    rows = execute_plan(plan.child, ctx)
    group_evals = [compile_expression(g) for g in plan.groups]
    agg_specs = []
    for call in plan.aggregates:
        arg_eval = (
            compile_expression(call.argument) if call.argument is not None else None
        )
        agg_specs.append((call, arg_eval))

    def new_states():
        return [
            make_aggregate_state(call.function, call.argument is None, call.distinct)
            for call, _ in agg_specs
        ]

    if not plan.groups:
        # Scalar aggregation: always exactly one output row.
        states = new_states()
        for row in rows:
            for (call, arg_eval), state in zip(agg_specs, states):
                state.update(arg_eval(row, ctx) if arg_eval else row)
        return [tuple(state.result() for state in states)]

    groups: dict[tuple, list] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple(g(row, ctx) for g in group_evals)
        states = groups.get(key)
        if states is None:
            states = new_states()
            groups[key] = states
            order.append(key)
        for (call, arg_eval), state in zip(agg_specs, states):
            state.update(arg_eval(row, ctx) if arg_eval else row)
    return [
        key + tuple(state.result() for state in groups[key]) for key in order
    ]


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def _split_equi_keys(
    condition: BoundExpression | None, left_arity: int
) -> tuple[list[tuple[int, int]], list[BoundExpression]]:
    """Extract equi-join key pairs (left_idx, right_idx) from a condition.

    Returns the key pairs and the residual conjuncts that must still be
    evaluated per candidate pair.  Right indexes are relative to the right
    child's row.
    """
    keys: list[tuple[int, int]] = []
    residual: list[BoundExpression] = []

    def visit(expr: BoundExpression) -> None:
        if isinstance(expr, BoundBinary) and expr.op == "AND":
            visit(expr.left)
            visit(expr.right)
            return
        if (
            isinstance(expr, BoundBinary)
            and expr.op == "="
            and isinstance(expr.left, BoundColumn)
            and isinstance(expr.right, BoundColumn)
        ):
            a, b = expr.left.index, expr.right.index
            if a < left_arity <= b:
                keys.append((a, b - left_arity))
                return
            if b < left_arity <= a:
                keys.append((b, a - left_arity))
                return
        residual.append(expr)

    if condition is not None:
        visit(condition)
    return keys, residual


def _index_join_candidate(plan: LogicalJoin, ctx: ExecutionContext, keys):
    """An ART index on the right side covering the equi keys, if usable.

    The paper motivates exactly this: the ART built for the materialized
    aggregate "can be used in the future to speed up joins".  Returns
    (table, index_name, ordered_right_ordinals) or None.
    """
    if plan.join_type not in ("INNER", "LEFT") or not keys:
        return None
    right_ordinals = [ri for _, ri in keys]
    if len(set(right_ordinals)) != len(right_ordinals):
        return None  # composite conditions on one column: use the hash join
    right = plan.right
    if not isinstance(right, LogicalGet):
        return None
    catalog = ctx.catalog
    if right.database:
        catalog = catalog.attached(right.database)
    table = catalog.table(right.table)
    covering = table.covering_index(right_ordinals)
    if covering is None or len(covering[1]) != len(keys):
        return None  # no index, or one over only some of the keys
    return (table, *covering)


def _execute_index_join(
    plan: LogicalJoin, ctx: ExecutionContext, keys, residual_ok, candidate
) -> list[Row]:
    """Index-nested-loop join: probe the right table's ART per left row."""
    table, index_name, index_ordinals = candidate
    left_rows = execute_plan(plan.left, ctx)
    # Map each index key slot to the left-row ordinal that feeds it.
    right_to_left = {ri: li for li, ri in keys}
    probe_ordinals = [right_to_left[ri] for ri in index_ordinals]
    null_right = (None,) * plan.right.arity
    result: list[Row] = []
    for lrow in left_rows:
        probe = [lrow[i] for i in probe_ordinals]
        matched = False
        if not any(v is None for v in probe):
            for row_id in table.lookup_row_ids(index_name, probe):
                combined = lrow + table.row(row_id)
                if residual_ok(combined):
                    result.append(combined)
                    matched = True
        if not matched and plan.join_type == "LEFT":
            result.append(lrow + null_right)
    return result


def _execute_join(plan: LogicalJoin, ctx: ExecutionContext) -> list[Row]:
    left_arity = plan.left.arity
    right_arity = plan.right.arity
    join_type = plan.join_type

    if join_type == "CROSS":
        left_rows = execute_plan(plan.left, ctx)
        right_rows = execute_plan(plan.right, ctx)
        return [l + r for l in left_rows for r in right_rows]

    keys, residual = _split_equi_keys(plan.condition, left_arity)
    residual_evals = [compile_expression(r) for r in residual]

    def residual_ok(combined: Row) -> bool:
        return all(e(combined, ctx) is True for e in residual_evals)

    candidate = _index_join_candidate(plan, ctx, keys)
    if candidate is not None:
        return _execute_index_join(plan, ctx, keys, residual_ok, candidate)

    left_rows = execute_plan(plan.left, ctx)
    right_rows = execute_plan(plan.right, ctx)
    null_left = (None,) * left_arity
    null_right = (None,) * right_arity
    result: list[Row] = []

    if keys:
        # Hash join: build on the right side.
        build: dict[tuple, list[int]] = {}
        for j, row in enumerate(right_rows):
            key = tuple(row[ri] for _, ri in keys)
            if any(v is None for v in key):
                continue  # NULL keys never match
            build.setdefault(key, []).append(j)
        right_matched = [False] * len(right_rows)
        for lrow in left_rows:
            key = tuple(lrow[li] for li, _ in keys)
            matched = False
            if not any(v is None for v in key):
                for j in build.get(key, ()):
                    combined = lrow + right_rows[j]
                    if residual_ok(combined):
                        result.append(combined)
                        matched = True
                        right_matched[j] = True
            if not matched and join_type in ("LEFT", "FULL"):
                result.append(lrow + null_right)
        if join_type in ("RIGHT", "FULL"):
            for j, matched in enumerate(right_matched):
                if not matched:
                    result.append(null_left + right_rows[j])
        return result

    # Nested-loop join for non-equi conditions.
    condition_eval = (
        compile_expression(plan.condition) if plan.condition is not None else None
    )
    right_matched = [False] * len(right_rows)
    for lrow in left_rows:
        matched = False
        for j, rrow in enumerate(right_rows):
            combined = lrow + rrow
            if condition_eval is None or condition_eval(combined, ctx) is True:
                result.append(combined)
                matched = True
                right_matched[j] = True
        if not matched and join_type in ("LEFT", "FULL"):
            result.append(lrow + null_right)
    if join_type in ("RIGHT", "FULL"):
        for j, matched in enumerate(right_matched):
            if not matched:
                result.append(null_left + right_rows[j])
    return result


# ---------------------------------------------------------------------------
# Set operations and ordering
# ---------------------------------------------------------------------------


def _execute_set_op(plan: LogicalSetOp, ctx: ExecutionContext) -> list[Row]:
    left = execute_plan(plan.left, ctx)
    right = execute_plan(plan.right, ctx)
    if plan.op == "UNION ALL":
        return left + right
    if plan.op == "UNION":
        seen: set = set()
        result = []
        for row in left + right:
            if row not in seen:
                seen.add(row)
                result.append(row)
        return result
    if plan.op == "EXCEPT":
        exclude = set(right)
        seen = set()
        result = []
        for row in left:
            if row not in exclude and row not in seen:
                seen.add(row)
                result.append(row)
        return result
    if plan.op == "INTERSECT":
        keep = set(right)
        seen = set()
        result = []
        for row in left:
            if row in keep and row not in seen:
                seen.add(row)
                result.append(row)
        return result
    raise ExecutionError(f"unknown set operation {plan.op!r}")


def _execute_order(plan: LogicalOrder, ctx: ExecutionContext) -> list[Row]:
    rows = execute_plan(plan.child, ctx)
    key_evals = [(compile_expression(e), asc) for e, asc in plan.keys]

    def comparator(a: Row, b: Row) -> int:
        for evaluator, ascending in key_evals:
            va, vb = evaluator(a, ctx), evaluator(b, ctx)
            if va is None and vb is None:
                continue
            # NULLS LAST for ASC, NULLS FIRST for DESC (DuckDB default).
            if va is None:
                return 1 if ascending else -1
            if vb is None:
                return -1 if ascending else 1
            ordering = sql_compare(va, vb)
            if ordering is None or ordering == 0:
                continue
            return ordering if ascending else -ordering
        return 0

    return sorted(rows, key=functools.cmp_to_key(comparator))

"""Logical query plan operators.

The binder produces this tree; the optimizer rewrites it; the executor
interprets it.  The OpenIVM compiler *also* consumes this tree — its DBSP
rewrite walks a bound logical plan bottom-up and substitutes delta inputs,
exactly as the paper describes DuckDB's optimizer-extension hook doing.

Every operator exposes ``output_columns``: the names and types of the rows
it produces, which downstream binding (and the IVM DDL generator) relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.datatypes.types import DataType
from repro.planner.expressions import (
    AggregateCall,
    BoundExpression,
)


@dataclass
class OutputColumn:
    """One column of an operator's output schema."""

    name: str
    type: DataType
    # The binding alias this column is reachable under (e.g. table alias);
    # empty for computed columns.
    source: str = ""


class LogicalOperator:
    """Base class for logical plan nodes."""

    output_columns: list[OutputColumn]

    @property
    def children(self) -> list["LogicalOperator"]:
        return []

    def replace_children(self, new_children: list["LogicalOperator"]) -> None:
        raise NotImplementedError

    @property
    def arity(self) -> int:
        return len(self.output_columns)


@dataclass
class LogicalGet(LogicalOperator):
    """Scan of a stored table (by name; resolved at execution time).

    ``alias`` is the binding name (FROM clause alias); ``database`` is an
    attached-catalog alias for cross-system scans, or empty for local.
    ``index`` and ``keys`` are the optimizer's access-path choice for a
    Get under a Filter (``index_probe``'s result): probe that index with
    those key bindings rather than scan.  The probe may return more rows
    than match; the Filter decides.
    """

    table: str
    alias: str
    output_columns: list[OutputColumn]
    database: str = ""
    index: str = ""
    keys: list[tuple[int, list[BoundExpression]]] = field(default_factory=list)

    @property
    def children(self) -> list[LogicalOperator]:
        return []

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        if new_children:
            raise ValueError("LogicalGet has no children")


@dataclass
class LogicalValues(LogicalOperator):
    """Constant rows (VALUES clause / SELECT without FROM)."""

    rows: list[list[BoundExpression]]
    output_columns: list[OutputColumn]

    @property
    def children(self) -> list[LogicalOperator]:
        return []

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        if new_children:
            raise ValueError("LogicalValues has no children")


@dataclass
class LogicalFilter(LogicalOperator):
    child: LogicalOperator
    predicate: BoundExpression

    def __post_init__(self) -> None:
        self.output_columns = self.child.output_columns

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.child,) = new_children
        self.output_columns = self.child.output_columns


@dataclass
class LogicalProject(LogicalOperator):
    child: LogicalOperator
    expressions: list[BoundExpression]
    output_columns: list[OutputColumn]

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.child,) = new_children


@dataclass
class LogicalAggregate(LogicalOperator):
    """Hash aggregation.

    Output layout: group-key columns first (in ``groups`` order), then one
    column per :class:`AggregateCall`.
    """

    child: LogicalOperator
    groups: list[BoundExpression]
    aggregates: list[AggregateCall]
    output_columns: list[OutputColumn]

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.child,) = new_children


@dataclass
class LogicalJoin(LogicalOperator):
    """Join; output is left columns followed by right columns.

    ``condition`` is bound over the concatenated row.  ``join_type`` is one
    of INNER/LEFT/RIGHT/FULL/CROSS.
    """

    left: LogicalOperator
    right: LogicalOperator
    join_type: str
    condition: BoundExpression | None

    def __post_init__(self) -> None:
        self.output_columns = list(self.left.output_columns) + list(
            self.right.output_columns
        )

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.left, self.right]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        self.left, self.right = new_children
        self.output_columns = list(self.left.output_columns) + list(
            self.right.output_columns
        )


@dataclass
class LogicalSetOp(LogicalOperator):
    """UNION / UNION ALL / EXCEPT / INTERSECT."""

    left: LogicalOperator
    right: LogicalOperator
    op: str

    def __post_init__(self) -> None:
        self.output_columns = list(self.left.output_columns)

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.left, self.right]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        self.left, self.right = new_children
        self.output_columns = list(self.left.output_columns)


@dataclass
class LogicalDistinct(LogicalOperator):
    child: LogicalOperator

    def __post_init__(self) -> None:
        self.output_columns = self.child.output_columns

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.child,) = new_children
        self.output_columns = self.child.output_columns


@dataclass
class LogicalOrder(LogicalOperator):
    child: LogicalOperator
    keys: list[tuple[BoundExpression, bool]]  # (expression, ascending)

    def __post_init__(self) -> None:
        self.output_columns = self.child.output_columns

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.child,) = new_children
        self.output_columns = self.child.output_columns


@dataclass
class LogicalLimit(LogicalOperator):
    child: LogicalOperator
    limit: int | None
    offset: int = 0

    def __post_init__(self) -> None:
        self.output_columns = self.child.output_columns

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.child,) = new_children
        self.output_columns = self.child.output_columns


@dataclass
class LogicalMaterializedCTE(LogicalOperator):
    """A bound CTE body shared by name; executed once per statement."""

    name: str
    plan: LogicalOperator
    output_columns: list[OutputColumn] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.output_columns = self.plan.output_columns

    @property
    def children(self) -> list[LogicalOperator]:
        return [self.plan]

    def replace_children(self, new_children: list[LogicalOperator]) -> None:
        (self.plan,) = new_children
        self.output_columns = self.plan.output_columns


def walk_plan(plan: LogicalOperator):
    """Yield every operator in the tree, pre-order."""
    yield plan
    for child in plan.children:
        yield from walk_plan(child)


def explain(plan: LogicalOperator, indent: int = 0) -> str:
    """Human-readable plan tree (EXPLAIN output)."""
    pad = "  " * indent
    name = type(plan).__name__.removeprefix("Logical").upper()
    detail = ""
    if isinstance(plan, LogicalGet):
        detail = f" {plan.table}" + (f" AS {plan.alias}" if plan.alias != plan.table else "")
        if plan.database:
            detail = f" {plan.database}.{plan.table}"
        if plan.index:
            name = "INDEX_SCAN"
            detail += f" USING {plan.index}"
    elif isinstance(plan, LogicalAggregate):
        detail = f" groups={len(plan.groups)} aggs={[a.function for a in plan.aggregates]}"
    elif isinstance(plan, LogicalJoin):
        detail = f" {plan.join_type}"
    elif isinstance(plan, LogicalSetOp):
        detail = f" {plan.op}"
    cols = ", ".join(f"{c.name}" for c in plan.output_columns)
    lines = [f"{pad}{name}{detail} -> [{cols}]"]
    for child in plan.children:
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)


def plan_source_tables(plan: LogicalOperator) -> list[Any]:
    """All LogicalGet nodes in the plan (the IVM compiler's leaf targets)."""
    return [op for op in walk_plan(plan) if isinstance(op, LogicalGet)]

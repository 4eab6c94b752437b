"""Vectorized delta propagation: the paper's steps 1–4 as native kernels.

The compiled propagation script is a four-step SQL program (ΔV compute,
upsert into V, liveness delete, delta truncation).  This module provides
a native :class:`~repro.core.propagate.NativeStep` implementation of each
step, executing over :class:`~repro.zset.batch.ZSetBatch` columns instead
of row-at-a-time SQL:

* **step 1** (:class:`BatchedDeltaStep`): delta tables are read columnarly
  (±1 weights from the boolean multiplicity column); join views probe a
  persistent :class:`~repro.zset.incremental.IndexedJoinState` — per-key
  ART-indexed integrated state on both sides — so propagation cost scales
  with |Δ|, not with |base|; the per-sign partial aggregates are folded by
  the weighted kernels of :mod:`repro.execution.aggregates` and land in
  the ΔV staging table;
* **step 2** — one native form per materialization strategy:
  :class:`NativeUpsertStep` (LEFT_JOIN_UPSERT) collapses ΔV to one
  signed row per group and merges it per key directly into the view's
  stored columns (``merge_additive`` / ``merge_minmax`` / ``derive_avg``
  from :mod:`repro.execution.aggregates`; MIN/MAX retraction is not
  invertible from the stored partials and is repaired by step 2b);
  :class:`NativeRegroupStep` (UNION_REGROUP) re-groups the stored
  touched rows UNION ALL the signed ΔV through the
  :func:`~repro.zset.operators.batch_union_regroup` kernel, replacing
  the strategy's whole-table SQL rebuild with work proportional to
  |ΔV|; :class:`NativeOuterMergeStep` (FULL_OUTER_JOIN) outer-merges
  the collapsed ΔV with the stored row per key through the view's
  primary-key ART — the batch form of the strategy's FULL OUTER JOIN;
* **step 2b** (:class:`NativeRescanStep`): MIN/MAX retraction repair.
  The SQL form recomputes every deletion-touched group from the base
  tables (O(|base|) per refresh containing a delete); the native form
  keeps a persistent :class:`~repro.zset.incremental.GroupExtremaState`
  per MIN/MAX column — an ART-backed ordered multiset of (group, value)
  multiplicities, fed source-level deltas by the native step 1 — and
  repairs each touched group's stored extremum with one O(log n) lookup
  (``CompilerFlags.native_minmax_rescan`` restores the SQL rescan);
* **step 3** (:class:`NativeLivenessStep`): the liveness delete.  With a
  stored COUNT(*)/hidden-count column the test is the exact ``count <= 0``
  restricted to the keys the ΔV batch touched (the SQL form scans the
  whole view).  Without one, the step integrates each group's *weighted
  count* in a persistent :class:`~repro.zset.incremental.
  GroupLivenessState` and deletes on exact integer cancellation — fixing
  the float-residue caveat of the paper's ``DELETE ... WHERE sum = 0``
  fallback (which also deletes live groups whose values genuinely sum to
  zero; the native test matches the recompute specification in both
  cases);
* **step 4** (:class:`NativeTruncateStep`): in-memory truncation of the
  ΔV staging table (delta tables are truncated once per refresh closure
  by the extension, through the same ``Connection.truncate_table`` API).

Selection is *per step* (:func:`build_native_steps`): each step declares
the SQL statement labels it replaces, and any step whose shape falls
outside its kernel surface keeps the SQL form individually.  WHERE
views run step 1 natively: the bound predicate is compiled through the
engine's *vectorized* expression compiler
(:func:`~repro.execution.expression.compile_batch_expression`) and
applied to the delta batch with ``batch_filter`` (selection is linear
over Z-sets).  Computed key expressions and computed aggregate
arguments (``GROUP BY UPPER(g)``, ``SUM(v + 1)``) go through the same
evaluator: each computed expression becomes one appended column of the
source batch (``CompilerFlags.native_expr_eval``), so
expression-keyed views keep native steps 1 and 3.  The remaining
SQL-only step-1 shape is a subquery in WHERE — its result moves with
the base data, so delta-filtering it is not linear; such views run
step 1 on SQL and every other step natively.  The emitted scripts
always contain the full portable SQL regardless.

Equivalence contract: the materialized view contents after a refresh are
identical to the SQL path, with two deliberate caveats:

* the transient ΔV *table* contents may differ when a batch contains
  exactly cancelling changes — the batch path consolidates them to
  nothing, the SQL path writes one row per sign; both fold to the same
  view and ΔV is cleared in step 4 either way;
* for a view relying on the paper's imprecise ``DELETE ... WHERE sum = 0``
  liveness fallback, the native step 3 deletes by exact weighted-count
  cancellation instead of testing float sums.  The historical caveat —
  float residue making the two paths disagree about a group's existence —
  no longer applies to the native pipeline: group liveness is an integer
  on the native path, so a dead group is deleted even when its float sum
  carries residue, and a live group whose values genuinely sum to zero is
  kept.  Both are exactly the recompute answer; the pure-SQL script keeps
  the paper's behaviour as the portable fallback.  Integer SUM values are
  identical on both paths; float SUM *values* may still round differently
  (the two paths sum in different orders).

View shapes outside the step-1 kernel surface (non-equi joins,
subqueries in WHERE, more than two base tables — or computed
expressions with ``native_expr_eval`` off) return ``None`` from
:func:`try_build_batched_step1`.  Because the exact counters and the
extrema state are fed by the native step 1 (only the source rows carry
per-row information), such views keep the SQL step 3 / step 2b as their
per-step fallback.  Scalar-aggregate sum-only views instead run step 3
natively in *paper mode*: their single row is addressed by the constant
key and tested with the compiled ``sum = 0`` predicate (the same
three-valued comparison the SQL DELETE would run), keeping the paper's
semantics while staying off SQL.
"""

from __future__ import annotations

import copy

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sql import ast
from repro.sql.dialect import Dialect
from repro.core import duckast as d
from repro.core.flags import MaterializationStrategy
from repro.core.model import ColumnRole, MVModel
from repro.core.strategies import delta_column_plan
from repro.execution.aggregates import (
    derive_avg,
    grouped_minmax,
    grouped_weighted_sum,
    merge_additive,
    merge_minmax,
)
from repro.execution.expression import (
    batch_eval,
    compile_batch_expression,
    true_mask,
)
from repro.planner.expressions import (
    BoundBinary,
    BoundColumn,
    BoundConstant,
    BoundExpression,
    BoundInSubquery,
)
from repro.zset.batch import ZSetBatch
from repro.zset.incremental import (
    GroupExtremaState,
    GroupLivenessState,
    IndexedJoinState,
)
from repro.zset.operators import (
    batch_aggregate,
    batch_filter,
    batch_signed_collapse,
    batch_union_regroup,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.connection import Connection


@dataclass
class _Source:
    """Column-resolution info for one base table feeding the view."""

    name: str
    alias: str
    ordinals: dict[str, int]  # lowercase column name -> ordinal
    offset: int  # ordinal offset in the combined (joined) row


class _Unsupported(Exception):
    """Internal: view shape outside the batched kernel surface."""


@dataclass
class _SubquerySnapshot:
    """One pinned IN-subquery result inside a compiled WHERE predicate.

    ``plan`` is the bound logical plan of the subquery SELECT (the same
    object the compiled evaluator looks up by identity through
    ``ExecutionContext.subquery_rows``); ``rows`` is the pinned result,
    seeded at ``initialize()`` (lazily on the first run after recovery)
    and re-evaluated at the start of every refresh.  ``signature``
    summarizes the result as a set — IN only cares about membership and
    NULL presence, so value order and duplicates never force a repair.
    """

    plan: Any
    rows: list | None = None
    signature: Any = None


def _snapshot_signature(rows: list) -> tuple:
    values = [row[0] for row in rows]
    return (
        any(value is None for value in values),
        frozenset(value for value in values if value is not None),
    )


class _SnapshotContext:
    """ExecutionContext wrapper that pins subquery results by plan id.

    The compiled IN-subquery evaluator calls ``subquery_rows(plan)``;
    answering from the pinned map (instead of re-executing the plan)
    is what makes the snapshot the *predicate's* view of the subquery —
    the delta batch and the stored rows are always filtered under the
    same pinned result, and repair swaps the pin explicitly.
    """

    def __init__(self, inner, pinned: dict) -> None:
        self._inner = inner
        self._pinned = pinned
        self.catalog = inner.catalog

    def subquery_rows(self, plan):
        rows = self._pinned.get(id(plan))
        if rows is not None:
            return rows
        return self._inner.subquery_rows(plan)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass
class BatchedDeltaStep:
    """Executable native form of propagation step 1 for one view."""

    name = "step1"
    step_prefix = "step1:"

    model: MVModel
    delta_tables: list[str]
    # Key columns of the delta view, in model.key_columns() order, as
    # ordinals into the *augmented* source row (base columns first, then
    # one appended column per entry of ``computed``).
    key_ordinals: list[int]
    # Batch evaluators for the appended columns, in append order: one per
    # constant key, computed key expression, or computed aggregate
    # argument (compiled through the vectorized expression evaluator;
    # each references base-column ordinals only).
    computed: list = field(default_factory=list)
    # Aggregate kernels for the non-key delta columns, in delta order:
    # (kernel name, augmented-row ordinal or None for COUNT(*)).
    functions: list = field(default_factory=list)
    # Maps delta-view column positions to batch_aggregate output positions.
    output_permutation: list = field(default_factory=list)
    # Join state (None for single-table views).
    join_left_key: list[int] = field(default_factory=list)
    join_right_key: list[int] = field(default_factory=list)
    state: IndexedJoinState | None = None
    refresh_rounds: int = 0
    # SQL statement labels this step replaces (assigned at plan assembly).
    replaces: frozenset = frozenset()
    # Wired when the view has no stored liveness column: this step is the
    # only place the *source-level* weighted counts per group are visible
    # (ΔV rows are group rows, one ±1 entry per sign — their weights do
    # not carry row multiplicities), so it feeds the liveness step's exact
    # counters as part of computing ΔV.
    liveness_step: "NativeLivenessStep | None" = None
    # Wired for MIN/MAX views with the native step-2b rescan: the extrema
    # state likewise needs the source-level (group, value) deltas, which
    # only this step sees.
    extrema_step: "NativeRescanStep | None" = None
    # Delta column name -> augmented-row ordinal of its aggregate argument
    # (None for COUNT(*)); lets the rescan builder find each MIN/MAX
    # column's source column without re-deriving the source layout.
    aggregate_ordinals: dict = field(default_factory=dict)
    # Compiled WHERE predicate — a vectorized batch evaluator
    # (:func:`~repro.execution.expression.compile_batch_expression`) over
    # the combined source row, or None for unfiltered views.  Selection
    # is linear, so it applies directly to the delta batch (post-join for
    # join views — the indexed state integrates the unfiltered
    # relations), through ``batch_filter``.
    where_eval: Any = None
    # Pinned IN-subquery results referenced by ``where_eval`` (single-
    # table views under ``CompilerFlags.subquery_snapshot``).  The
    # predicate is only piecewise-linear: between snapshot changes the
    # filter is linear and deltas flow as usual; when a re-evaluation at
    # the start of ``run()`` finds the membership set changed, the step
    # injects the retract/insert delta for integrated rows whose
    # predicate verdict flipped — all in-memory, zero SQL.
    snapshots: list = field(default_factory=list)

    @property
    def is_join(self) -> bool:
        return len(self.delta_tables) == 2

    @property
    def requires_base_tables(self) -> bool:
        """Join views bulk-load the indexed state from the base tables, so
        they can only run where those tables are locally scannable (the
        HTAP pipeline keeps them on the attached OLTP side)."""
        return self.is_join

    # -- lifecycle ----------------------------------------------------------

    def initialize(self, connection: "Connection") -> None:
        """Build the indexed join state from the current base tables.

        Any rows already pending in the delta tables are rewound out, so
        the state always equals ``base − unconsumed ΔT`` — the integrated
        state as of the last refresh.  Subquery snapshots are seeded here
        too, so the pinned predicate matches the state the populate query
        materialized.
        """
        self._seed_snapshots(connection)
        if not self.is_join:
            return
        left, right = self.model.analysis.tables
        state = IndexedJoinState(self.join_left_key, self.join_right_key)
        state.load_left(connection.table(left.name).scan())
        state.load_right(connection.table(right.name).scan())
        pending_left = connection.read_delta_batch(self.delta_tables[0])
        pending_right = connection.read_delta_batch(self.delta_tables[1])
        if len(pending_left) or len(pending_right):
            state.rewind(pending_left, pending_right)
        self.state = state

    # -- execution ----------------------------------------------------------

    def run(self, connection: "Connection") -> int:
        """Compute ΔV from the delta tables and append it to the ΔV table.

        Returns the number of ΔV rows written.
        """
        self.refresh_rounds += 1
        # Snapshot repair first: re-pin each IN-subquery result and, when
        # the membership set moved, compute the retract/insert delta for
        # integrated rows whose verdict flipped.  The ΔT batch below is
        # then filtered under the *new* pin, so the two compose to
        # exactly the new predicate's view.
        injected = self._repair_snapshots(connection)
        batches = [
            connection.read_delta_batch(name) for name in self.delta_tables
        ]
        if self.is_join:
            if self.state is None:
                raise RuntimeError(
                    "batched join step used before initialize()"
                )
            source = self.state.apply(batches[0], batches[1])
        else:
            source = batches[0]
        ctx = None
        if self.where_eval is not None and len(source):
            ctx = self._context(connection)
            source = batch_filter(
                source,
                mask=true_mask(batch_eval(self.where_eval, source, ctx)),
            )
        if injected is not None and len(injected):
            source = source + injected
        if len(source) == 0:
            return 0

        source = self._with_computed_columns(source, connection, ctx)
        # Consolidate once up front: the sign split, the liveness feed,
        # and the extrema feed all want the normal form.
        source = source.consolidate()
        key_ordinals = self.key_ordinals
        if self.liveness_step is not None:
            _, keys, net = source.group_structure(key_ordinals)
            self.liveness_step.absorb(keys, net)
        if self.extrema_step is not None:
            self.extrema_step.absorb(source, key_ordinals)

        rows: list[tuple] = []
        positive, negative = source.split_signs()
        for partition, multiplicity in ((positive, True), (negative, False)):
            if len(partition) == 0:
                continue
            aggregated = batch_aggregate(
                partition, key_ordinals, self.functions
            )
            permuted = [
                aggregated.columns[j] for j in self.output_permutation
            ]
            for i in range(len(aggregated)):
                rows.append(
                    tuple(column[i] for column in permuted) + (multiplicity,)
                )
        if rows:
            connection.insert_rows(self.model.delta_view_table, rows)
        return len(rows)

    # -- helpers -------------------------------------------------------------

    def _context(self, connection: "Connection"):
        from repro.execution.executor import ExecutionContext

        ctx = ExecutionContext(connection.catalog)
        if self.snapshots:
            return _SnapshotContext(
                ctx, {id(spec.plan): spec.rows for spec in self.snapshots}
            )
        return ctx

    def _seed_snapshots(self, connection: "Connection") -> None:
        from repro.execution.executor import ExecutionContext, execute_plan

        if not self.snapshots:
            return
        ctx = ExecutionContext(connection.catalog)
        for spec in self.snapshots:
            spec.rows = execute_plan(spec.plan, ctx)
            spec.signature = _snapshot_signature(spec.rows)

    def _repair_snapshots(self, connection: "Connection"):
        """Re-evaluate every pinned subquery (in memory, via the plan
        executor); when a membership set changed, return the signed
        :class:`ZSetBatch` of integrated source rows whose predicate
        verdict flipped (+row newly passing, −row no longer passing).

        The integrated state is ``base − pending ΔT`` — the rows the
        stored view was last refreshed from — so the injected delta plus
        the ΔT batch (filtered under the new pin) lands the view exactly
        on the new predicate's answer.
        """
        from repro.execution.executor import ExecutionContext, execute_plan

        if not self.snapshots:
            return None
        base_ctx = ExecutionContext(connection.catalog)
        old_pins: dict[int, list] = {}
        changed = False
        for spec in self.snapshots:
            rows = execute_plan(spec.plan, base_ctx)
            signature = _snapshot_signature(rows)
            if spec.rows is None:
                # Lazy first seed (recovery path): checkpoints are
                # quiescent and non-watched subquery tables replay no
                # WAL, so the fresh result is the one the stored view
                # was built under.
                old_pins[id(spec.plan)] = rows
            else:
                old_pins[id(spec.plan)] = spec.rows
                if signature != spec.signature:
                    changed = True
            spec.rows = rows
            spec.signature = signature
        if not changed or self.where_eval is None:
            return None
        source = self.model.analysis.tables[0]
        table = connection.table(source.name)
        base_rows = [tuple(row) for row in table.scan()]
        arity = len(table.schema.columns)
        integrated = (
            ZSetBatch.from_rows(base_rows, arity=arity)
            + (-connection.read_delta_batch(self.delta_tables[0]))
        ).consolidate()
        if len(integrated) == 0:
            return None
        ctx_old = _SnapshotContext(
            ExecutionContext(connection.catalog), old_pins
        )
        ctx_new = self._context(connection)
        mask_old = true_mask(batch_eval(self.where_eval, integrated, ctx_old))
        mask_new = true_mask(batch_eval(self.where_eval, integrated, ctx_new))
        gained = integrated.mask(mask_new & ~mask_old)
        lost = integrated.mask(mask_old & ~mask_new)
        injected = gained + (-lost)
        return injected if len(injected) else None

    def _with_computed_columns(
        self, source: ZSetBatch, connection: "Connection", ctx
    ) -> ZSetBatch:
        """Append one materialized column per computed expression —
        constant keys (the hidden scalar-aggregate key is ``CAST(0 AS
        INTEGER)``), computed key expressions, computed aggregate
        arguments — evaluated column-at-a-time over the base columns."""
        if not self.computed:
            return source
        if ctx is None:
            ctx = self._context(connection)
        columns = list(source.columns)
        for evaluator in self.computed:
            columns.append(batch_eval(evaluator, source, ctx))
        return ZSetBatch(
            columns, source.weights, consolidated=source.is_consolidated
        )


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------


def try_build_batched_step1(model: MVModel, catalog) -> BatchedDeltaStep | None:
    """A :class:`BatchedDeltaStep` for ``model``, or None when the view
    shape is outside the kernel surface (the caller keeps the SQL path)."""
    try:
        return _build(model, catalog)
    except _Unsupported:
        return None


@dataclass
class _ComputedColumns:
    """Accumulates the appended (computed) columns of the source batch.

    The augmented row is the combined base row followed by one column
    per registered evaluator; ``add`` returns the new column's ordinal.
    """

    base_arity: int
    evaluators: list = field(default_factory=list)

    def add(self, evaluator) -> int:
        self.evaluators.append(evaluator)
        return self.base_arity + len(self.evaluators) - 1


def _build(model: MVModel, catalog) -> BatchedDeltaStep:
    analysis = model.analysis
    if len(analysis.tables) > 2:
        raise _Unsupported("more than two base tables")

    sources: list[_Source] = []
    offset = 0
    for table in analysis.tables:
        schema = catalog.table(table.name).schema
        ordinals = {
            column.name.lower(): j for j, column in enumerate(schema.columns)
        }
        sources.append(
            _Source(
                name=table.name, alias=table.alias,
                ordinals=ordinals, offset=offset,
            )
        )
        offset += len(schema.columns)

    where_eval = None
    snapshots: list[_SubquerySnapshot] = []
    if analysis.where is not None:
        where_eval, snapshots = _compile_where_predicate(
            analysis.where, sources, catalog, model
        )

    join_left_key: list[int] = []
    join_right_key: list[int] = []
    if len(sources) == 2:
        if analysis.join_condition is None:
            raise _Unsupported("join views need an equi-join condition")
        for left_ordinal, right_ordinal in _equi_key_pairs(
            analysis.join_condition, sources
        ):
            join_left_key.append(left_ordinal)
            join_right_key.append(right_ordinal)
        if not join_left_key:
            raise _Unsupported("no equi-join key pairs")

    computed = _ComputedColumns(base_arity=offset)
    key_ordinals: list[int] = []
    functions: list[tuple[str, int | None]] = []
    key_positions: dict[str, int] = {}
    agg_positions: dict[str, int] = {}
    aggregate_ordinals: dict[str, int | None] = {}
    for column, kind in delta_column_plan(model):
        if kind == "key":
            key_ordinals.append(
                _resolve_or_compile(
                    column.expr, sources, catalog, model, computed
                )
            )
            key_positions[column.name] = len(key_ordinals) - 1
        else:
            kernel = _aggregate_kernel(column, sources, catalog, model, computed)
            functions.append(kernel)
            agg_positions[column.name] = len(functions) - 1
            aggregate_ordinals[column.name] = kernel[1]

    num_keys = len(key_ordinals)
    output_permutation = []
    for column in model.delta_columns():
        if column.role is ColumnRole.KEY:
            output_permutation.append(key_positions[column.name])
        else:
            output_permutation.append(num_keys + agg_positions[column.name])

    return BatchedDeltaStep(
        model=model,
        delta_tables=[
            model.source_delta_table(table) for table in analysis.tables
        ],
        key_ordinals=key_ordinals,
        computed=computed.evaluators,
        functions=functions,
        output_permutation=output_permutation,
        join_left_key=join_left_key,
        join_right_key=join_right_key,
        aggregate_ordinals=aggregate_ordinals,
        where_eval=where_eval,
        snapshots=snapshots,
    )


def _resolve_or_compile(
    expr: ast.Expression, sources, catalog, model: MVModel, computed
) -> int:
    """Augmented-row ordinal of an expression: a plain column reference
    resolves to its base ordinal; a constant (the hidden scalar-aggregate
    key) becomes a broadcast column; anything else is compiled through
    the vectorized expression evaluator into an appended column — gated
    by ``CompilerFlags.native_expr_eval``, whose off position restores
    the SQL step-1 fallback for computed expressions."""
    if isinstance(expr, ast.ColumnRef):
        return _resolve_column(expr, sources)
    constant = _constant_value(expr)
    if constant is not _NOT_CONSTANT:
        return computed.add(compile_batch_expression(BoundConstant(constant)))
    if not model.flags.native_expr_eval:
        raise _Unsupported(
            f"computed expression {type(expr).__name__} "
            "(native_expr_eval is off)"
        )
    return computed.add(_compile_source_expression(expr, sources, catalog))


def _compile_source_expression(expr, sources, catalog):
    """Bind a source-level expression over the combined base row and
    compile it into a vectorized batch evaluator, via the engine's own
    binder — the computed column is thereby evaluated exactly as the
    SQL step 1 would evaluate the expression per row.

    Subqueries are rejected like in WHERE: their results move with the
    base data, so a subquery-valued key or argument is not linear.
    """
    from repro.planner.binder import Binder

    if _contains_subquery(expr):
        raise _Unsupported("subquery-valued expression uses the SQL path")
    try:
        bound = Binder(catalog).bind_scalar(
            copy.deepcopy(expr), _source_output_columns(sources, catalog)
        )
        return compile_batch_expression(bound)
    except _Unsupported:
        raise
    except Exception:
        raise _Unsupported("expression outside the evaluator surface")


def _source_output_columns(sources: list[_Source], catalog):
    """Binder schema of the combined source row (both tables' columns in
    offset order), shared by the WHERE predicate and the computed-column
    compilation."""
    from repro.planner.logical import OutputColumn

    output: list = []
    for source in sources:
        for column in catalog.table(source.name).schema.columns:
            output.append(OutputColumn(column.name, column.type, source.alias))
    return output


def _compile_where_predicate(where, sources: list[_Source], catalog, model):
    """Compile a WHERE clause into a vectorized batch evaluator over the
    combined source row, via the engine's own binder and the batch
    expression compiler — selection is linear over Z-sets, so the delta
    batch is filtered exactly as the base relation would be.  Returns
    ``(evaluator, snapshots)``.

    Uncorrelated IN-subqueries are linearized by *snapshotting*: each
    bound subquery plan becomes a :class:`_SubquerySnapshot` whose
    pinned rows answer the evaluator's ``subquery_rows`` lookups, and
    :meth:`BatchedDeltaStep._repair_snapshots` injects the verdict-flip
    delta when the pinned set changes (``subquery_snapshot`` flag;
    single-table views only — a join's indexed state integrates the
    unfiltered relations, so it keeps the SQL step 1).  Other subquery
    shapes stay on SQL: their results shift with the base data, so
    filtering the delta with them is not linear.
    """
    from repro.planner.binder import Binder

    if _contains_subquery(where):
        if not model.flags.subquery_snapshot:
            raise _Unsupported("subquery in WHERE uses the SQL path")
        if len(sources) != 1:
            raise _Unsupported(
                "subquery in a join view's WHERE uses the SQL path"
            )
    try:
        bound = Binder(catalog).bind_scalar(
            copy.deepcopy(where), _source_output_columns(sources, catalog)
        )
        evaluator = compile_batch_expression(bound)
    except Exception:
        raise _Unsupported("WHERE predicate outside the kernel surface")
    snapshots = [
        _SubquerySnapshot(plan=node.plan)
        for node in _walk_bound(bound)
        if isinstance(node, BoundInSubquery)
    ]
    return evaluator, snapshots


def _walk_bound(node):
    """Yield a bound-expression tree pre-order (dataclass recursion)."""
    yield node
    for name in getattr(node, "__dataclass_fields__", ()):
        value = getattr(node, name)
        values = value if isinstance(value, (list, tuple)) else [value]
        for item in values:
            if isinstance(item, BoundExpression):
                yield from _walk_bound(item)
            elif isinstance(item, tuple):
                for sub in item:
                    if isinstance(sub, BoundExpression):
                        yield from _walk_bound(sub)


def _contains_subquery(node) -> bool:
    """True when an expression tree embeds a SELECT (Exists / scalar)."""
    if isinstance(node, (ast.Exists, ast.ScalarSubquery, ast.Select)):
        return True
    for name in getattr(node, "__dataclass_fields__", ()):
        value = getattr(node, name)
        values = value if isinstance(value, (list, tuple)) else [value]
        for item in values:
            if isinstance(item, ast.Node) and _contains_subquery(item):
                return True
            if isinstance(item, tuple) and any(
                isinstance(sub, ast.Node) and _contains_subquery(sub)
                for sub in item
            ):
                return True
    return False


_NOT_CONSTANT = object()

_KERNELS = {
    ColumnRole.SUM: "SUM",
    ColumnRole.AVG_SUM: "SUM",
    ColumnRole.COUNT: "COUNT",
    ColumnRole.AVG_COUNT: "COUNT",
    ColumnRole.COUNT_STAR: "COUNT",
    ColumnRole.HIDDEN_COUNT: "COUNT",
    ColumnRole.MIN: "MIN",
    ColumnRole.MAX: "MAX",
}


def _aggregate_kernel(
    column, sources, catalog, model: MVModel, computed
) -> tuple[str, int | None]:
    kernel = _KERNELS.get(column.role)
    if kernel is None:
        raise _Unsupported(f"no batch kernel for role {column.role}")
    if column.expr is None:
        return kernel, None
    return kernel, _resolve_or_compile(
        column.expr, sources, catalog, model, computed
    )


def _constant_value(expr: ast.Expression):
    """The literal value of a constant key expression (possibly CAST-
    wrapped), or the _NOT_CONSTANT sentinel."""
    node = expr
    while isinstance(node, ast.Cast):
        node = node.operand
    if isinstance(node, ast.Literal):
        return node.value
    return _NOT_CONSTANT


def _resolve_column(expr: ast.Expression, sources: list[_Source]) -> int:
    """Combined-row ordinal of a plain column reference."""
    if not isinstance(expr, ast.ColumnRef):
        raise _Unsupported(f"computed expression {type(expr).__name__}")
    name = expr.name.lower()
    if expr.table is not None:
        alias = expr.table.lower()
        for source in sources:
            if source.alias.lower() == alias:
                if name not in source.ordinals:
                    raise _Unsupported(f"unknown column {expr.name}")
                return source.offset + source.ordinals[name]
        raise _Unsupported(f"unknown alias {expr.table}")
    owners = [source for source in sources if name in source.ordinals]
    if len(owners) != 1:
        raise _Unsupported(f"ambiguous or unknown column {expr.name}")
    return owners[0].offset + owners[0].ordinals[name]


def _equi_key_pairs(
    condition: ast.Expression, sources: list[_Source]
) -> list[tuple[int, int]]:
    """(left_ordinal, right_ordinal) pairs from an AND-ed equality chain.

    Ordinals are relative to each side's own row (not the combined row).
    """
    pairs: list[tuple[int, int]] = []
    left_width = len(sources[0].ordinals)

    def visit(node: ast.Expression) -> None:
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            visit(node.left)
            visit(node.right)
            return
        if not (
            isinstance(node, ast.BinaryOp)
            and node.op == "="
            and isinstance(node.left, ast.ColumnRef)
            and isinstance(node.right, ast.ColumnRef)
        ):
            raise _Unsupported("non-equi join condition")
        a = _resolve_column(node.left, sources)
        b = _resolve_column(node.right, sources)
        if a < left_width <= b:
            pairs.append((a, b - left_width))
        elif b < left_width <= a:
            pairs.append((b, a - left_width))
        else:
            raise _Unsupported("join condition does not span both tables")

    visit(condition)
    return pairs


# ---------------------------------------------------------------------------
# Steps 2–4: signed-collapse upsert, liveness delete, delta truncation
# ---------------------------------------------------------------------------


@dataclass
class _ColumnFold:
    """How one stored view column combines with the collapsed ΔV batch."""

    name: str
    kind: str  # "key" | "additive" | "min" | "max" | "avg"
    stored_ordinal: int  # position in the mv row (model.columns order)
    key_index: int = -1  # for "key": index into the group key tuple
    delta_pos: int = -1  # for folds: column position in the ΔV row
    companion_sum: str = ""  # for "avg": names of the hidden companions
    companion_count: str = ""


@dataclass
class NativeUpsertStep:
    """Native step 2: collapse ΔV by sign and fold it into the view.

    The SQL form (Listing 2) builds a signed CTE over ΔV and LEFT-JOINs it
    against the stored table before an INSERT OR REPLACE; this step runs
    the same per-key merge directly: one vectorized signed collapse of the
    ΔV batch, then a point lookup + merge + upsert per touched group, so
    the cost tracks |ΔV|, never |V|.  MIN/MAX partials only tighten the
    stored extremum (insert side); retractions are repaired by the step-2b
    rescan that follows (native :class:`NativeRescanStep` when available,
    else the compiled SQL).
    """

    name = "step2"
    step_prefix = "step2:"

    mv_table: str
    delta_view_table: str
    key_positions: list[int]  # key column positions in the ΔV row
    folds: list[_ColumnFold]  # one per mv column, in storage order
    replaces: frozenset = frozenset()
    requires_base_tables = False
    # Wired when the liveness step runs natively too: the touched keys are
    # already grouped here, so step 3 need not re-read and re-group ΔV.
    liveness_step: "NativeLivenessStep | None" = None

    def initialize(self, connection: "Connection") -> None:
        return None

    def run(self, connection: "Connection") -> int:
        batch = connection.read_delta_batch(self.delta_view_table)
        if len(batch) == 0:
            return 0
        ids, keys, _ = batch.group_structure(self.key_positions)
        if self.liveness_step is not None:
            self.liveness_step.absorb_keys(keys)
        num_groups = len(keys)
        positive = batch.weights > 0
        pos_ids = ids[positive]
        pos_weights = batch.weights[positive]

        collapsed: dict[int, list] = {}
        for fold in self.folds:
            if fold.kind == "additive":
                collapsed[fold.delta_pos] = grouped_weighted_sum(
                    ids, batch.columns[fold.delta_pos], batch.weights,
                    num_groups,
                )
            elif fold.kind in ("min", "max"):
                collapsed[fold.delta_pos] = grouped_minmax(
                    pos_ids, batch.columns[fold.delta_pos][positive],
                    pos_weights, num_groups, want_max=(fold.kind == "max"),
                )

        table = connection.table(self.mv_table)
        rows: list[tuple] = []
        for g, key in enumerate(keys):
            stored = table.pk_lookup(key)
            new: dict[str, Any] = {}
            for fold in self.folds:
                if fold.kind == "key":
                    new[fold.name] = key[fold.key_index]
                elif fold.kind == "additive":
                    new[fold.name] = merge_additive(
                        None if stored is None else stored[fold.stored_ordinal],
                        collapsed[fold.delta_pos][g],
                    )
                elif fold.kind in ("min", "max"):
                    new[fold.name] = merge_minmax(
                        None if stored is None else stored[fold.stored_ordinal],
                        collapsed[fold.delta_pos][g],
                        want_max=(fold.kind == "max"),
                    )
            _derive_avg_folds(self.folds, new)
            rows.append(tuple(new[fold.name] for fold in self.folds))
        connection.upsert_rows(self.mv_table, rows)
        return len(rows)


def _derive_avg_folds(folds: list, new: dict) -> None:
    """Fill the derived AVG columns of ``new`` from their hidden
    sum/count companions (which every step-2 variant merges first)."""
    for fold in folds:
        if fold.kind == "avg":
            new[fold.name] = derive_avg(
                new[fold.companion_sum], new[fold.companion_count]
            )


@dataclass
class NativeRegroupStep:
    """Native step 2 for the UNION_REGROUP strategy.

    The SQL form rebuilds the whole view: ``CREATE TABLE scratch AS
    SELECT ... FROM (stored UNION ALL signed-ΔV) GROUP BY keys``, then
    swaps the contents — O(|V|) per refresh by design.  This step runs
    the same union + regroup as a kernel restricted to the keys ΔV
    actually touched: the stored rows of those keys (one primary-key ART
    probe each) are concatenated with the signed ΔV batch and re-grouped
    by :func:`~repro.zset.operators.batch_union_regroup`, so the cost
    tracks |ΔV|, never |V|.  Untouched rows are exactly the rows the SQL
    rebuild copies verbatim.  Dead groups regroup to net-zero additive
    values and stay until the liveness step deletes them, matching the
    SQL strategy's step ordering.
    """

    name = "step2"
    step_prefix = "step2:"

    mv_table: str
    delta_view_table: str
    key_positions: list[int]  # key column positions in the ΔV row
    folds: list[_ColumnFold]  # one per mv column (key/additive/avg only)
    # mv-row ordinal of each ΔV column, in ΔV order — projects a stored
    # row into the ΔV layout for the union.
    delta_stored_ordinals: list = field(default_factory=list)
    replaces: frozenset = frozenset()
    requires_base_tables = False
    liveness_step: "NativeLivenessStep | None" = None

    def initialize(self, connection: "Connection") -> None:
        return None

    def run(self, connection: "Connection") -> int:
        batch = connection.read_delta_batch(self.delta_view_table)
        if len(batch) == 0:
            return 0
        _, touched, _ = batch.group_structure(self.key_positions)
        if self.liveness_step is not None:
            self.liveness_step.absorb_keys(touched)
        table = connection.table(self.mv_table)
        stored_rows = []
        for key in touched:
            stored = table.pk_lookup(key)
            if stored is not None:
                stored_rows.append(
                    tuple(stored[j] for j in self.delta_stored_ordinals)
                )
        stored_batch = ZSetBatch.from_rows(
            stored_rows, arity=len(self.delta_stored_ordinals)
        )
        additive = [f.delta_pos for f in self.folds if f.kind == "additive"]
        keys, collapsed = batch_union_regroup(
            stored_batch, batch, self.key_positions, additive
        )
        rows: list[tuple] = []
        for g, key in enumerate(keys):
            new: dict[str, Any] = {}
            for fold in self.folds:
                if fold.kind == "key":
                    new[fold.name] = key[fold.key_index]
                elif fold.kind == "additive":
                    new[fold.name] = collapsed[fold.delta_pos][g]
            _derive_avg_folds(self.folds, new)
            rows.append(tuple(new[fold.name] for fold in self.folds))
        connection.upsert_rows(self.mv_table, rows)
        return len(rows)


@dataclass
class NativeOuterMergeStep:
    """Native step 2 for the FULL_OUTER_JOIN strategy.

    The SQL form FULL-OUTER-JOINs the whole stored table against the
    collapsed ΔV and rebuilds the view from the result — every stored
    row is rewritten, changed or not.  This step keeps the strategy's
    merge rule (``COALESCE(stored, 0) + COALESCE(delta, 0)`` per
    additive column, key coalesced across the two sides) but drives it
    from the delta side only: ΔV is collapsed per key
    (:func:`~repro.zset.operators.batch_signed_collapse`) and each
    touched key is outer-merged with its stored row through the view's
    primary-key ART — rows only on the stored side are exactly the rows
    the SQL rebuild copies unchanged, so they are left in place.
    """

    name = "step2"
    step_prefix = "step2:"

    mv_table: str
    delta_view_table: str
    key_positions: list[int]  # key column positions in the ΔV row
    folds: list[_ColumnFold]  # one per mv column (key/additive/avg only)
    replaces: frozenset = frozenset()
    requires_base_tables = False
    liveness_step: "NativeLivenessStep | None" = None

    def initialize(self, connection: "Connection") -> None:
        return None

    def run(self, connection: "Connection") -> int:
        batch = connection.read_delta_batch(self.delta_view_table)
        if len(batch) == 0:
            return 0
        additive = [f.delta_pos for f in self.folds if f.kind == "additive"]
        keys, collapsed = batch_signed_collapse(
            batch, self.key_positions, additive
        )
        if self.liveness_step is not None:
            self.liveness_step.absorb_keys(keys)
        table = connection.table(self.mv_table)
        rows: list[tuple] = []
        for g, key in enumerate(keys):
            stored = table.pk_lookup(key)
            new: dict[str, Any] = {}
            for fold in self.folds:
                if fold.kind == "key":
                    new[fold.name] = key[fold.key_index]
                elif fold.kind == "additive":
                    new[fold.name] = merge_additive(
                        None if stored is None else stored[fold.stored_ordinal],
                        collapsed[fold.delta_pos][g],
                    )
            _derive_avg_folds(self.folds, new)
            rows.append(tuple(new[fold.name] for fold in self.folds))
        connection.upsert_rows(self.mv_table, rows)
        return len(rows)


@dataclass
class _ExtremaColumn:
    """One MIN/MAX view column maintained by the native step-2b rescan."""

    name: str
    stored_ordinal: int  # position in the stored mv row
    value_ordinal: int  # combined-source-row ordinal of the argument
    want_max: bool


@dataclass
class _ExtremaSource:
    """One multiset of source values, shared by every MIN/MAX column over
    the same argument (``MIN(v), MAX(v)`` seed and feed it once)."""

    value_ordinal: int
    init_sql: str  # seeds the state at CREATE time
    state: GroupExtremaState = field(default_factory=GroupExtremaState)
    # (group+value key tuples, per-tuple nets) pushed by step 1 this round.
    pending: list = field(default_factory=list)


@dataclass
class NativeRescanStep:
    """Native step 2b: answer MIN/MAX retractions from the extrema state.

    The SQL form recomputes every deletion-touched group from the base
    tables — O(|base|) per refresh that contains a delete.  This step
    instead keeps one persistent :class:`~repro.zset.incremental.
    GroupExtremaState` per MIN/MAX column (an ordered per-(group, value)
    multiset), fed the source-level deltas by the native step 1, and
    repairs each touched group's stored extremum with one O(log n)
    lookup.  Groups that died entirely are left for the liveness step
    (their stored count is already ≤ 0 after step 2), matching the SQL
    rescan, which produces no rows for them either.
    """

    name = "step2b"
    step_prefix = "step2b:"

    mv_table: str
    columns: list[_ExtremaColumn]
    # value ordinal -> shared multiset; one entry per distinct argument.
    sources: dict  # dict[int, _ExtremaSource]
    liveness_ordinal: int  # stored liveness column (always present here)
    # Key layout of the seeding SQL: constant keys (the hidden scalar-
    # aggregate key) are not grouped over, so they are re-inserted into
    # the loaded key tuples by position.
    key_is_const: list[bool] = field(default_factory=list)
    key_constants: list[Any] = field(default_factory=list)
    replaces: frozenset = frozenset()
    # Seeding recomputes per-(group, value) counts from the base tables.
    requires_base_tables = True
    # Deletion-touched group keys pushed by the native step 1 this round.
    pending_touched: list = field(default_factory=list)

    def initialize(self, connection: "Connection") -> None:
        for source in self.sources.values():
            result = connection.execute(source.init_sql)
            source.state.load(
                (self._full_key(row), row[-2], row[-1])
                for row in result.rows
            )

    def _full_key(self, row: tuple) -> tuple:
        """Rebuild a group key from a seeding row (non-constant key values
        lead the row, constants are spliced back in by position)."""
        it = iter(row)
        return tuple(
            const if is_const else next(it)
            for is_const, const in zip(self.key_is_const, self.key_constants)
        )

    def absorb(self, source, key_ordinals: list) -> None:
        """Receive one round's consolidated source-level delta batch (from
        the native step 1): per-column (group, value) count deltas plus
        the groups touched by a retraction."""
        negative = source.weights < 0
        if negative.any():
            _, keys, _ = source.mask(negative).group_structure(key_ordinals)
            self.pending_touched.extend(keys)
        for extrema in self.sources.values():
            _, gv_keys, nets = source.group_structure(
                list(key_ordinals) + [extrema.value_ordinal]
            )
            extrema.pending.append((gv_keys, nets))

    def run(self, connection: "Connection") -> int:
        for extrema in self.sources.values():
            for gv_keys, nets in extrema.pending:
                extrema.state.apply(
                    [key[:-1] for key in gv_keys],
                    [key[-1] for key in gv_keys],
                    nets,
                )
            extrema.pending.clear()
        if not self.pending_touched:
            return 0
        touched: list[tuple] = []
        seen: set = set()
        for key in self.pending_touched:
            if key not in seen:
                seen.add(key)
                touched.append(key)
        self.pending_touched.clear()

        table = connection.table(self.mv_table)
        updates: list[tuple] = []
        for key in touched:
            stored = table.pk_lookup(key)
            if stored is None or stored[self.liveness_ordinal] <= 0:
                continue  # absent or dead; the liveness step handles it
            new_row = list(stored)
            changed = False
            for column in self.columns:
                state = self.sources[column.value_ordinal].state
                value = state.extremum(key, column.want_max)
                if new_row[column.stored_ordinal] != value:
                    new_row[column.stored_ordinal] = value
                    changed = True
            if changed:
                updates.append(tuple(new_row))
        if updates:
            connection.upsert_rows(self.mv_table, updates)
        return len(updates)


@dataclass
class NativeLivenessStep:
    """Native step 3: delete dead groups by exact integer cancellation.

    Only the groups the refresh touched can have died, so the step tests
    those keys alone (the SQL form scans the whole view).  With a stored
    liveness column the test is the exact ``count <= 0`` against the
    post-step-2 row of every key in the ΔV batch.  Without one, the ΔV
    rows carry no count at all (they are group rows, ±1 per sign), so the
    step is fed the *source-level* weighted counts by the native step 1
    (:attr:`BatchedDeltaStep.liveness_step`) and integrates them in a
    persistent :class:`~repro.zset.incremental.GroupLivenessState`,
    replacing the paper's imprecise ``DELETE ... WHERE sum = 0`` with
    exact integer cancellation.

    Scalar-aggregate sum-only views are the third form: their single
    row must keep the *paper's* semantics (the SQL step 3 is the only
    spec there), so the step evaluates the compiled ``sum = 0 AND ...``
    predicate over the stored row — addressed by the constant key, with
    the same three-valued comparison the SQL DELETE would run — and
    deletes on TRUE.  Same answer as the SQL form, zero SQL statements.
    """

    name = "step3"
    step_prefix = "step3:"

    mv_table: str
    delta_view_table: str
    key_positions: list[int]
    liveness_ordinal: int | None = None  # stored-row ordinal, if stored
    counters: GroupLivenessState | None = None
    init_count_sql: str | None = None  # seeds the counters at CREATE time
    # Paper mode (scalar sum-only views): the vectorized `sum = 0`
    # predicate over the stored mv row, and the constant key addressing
    # the view's single row.
    paper_predicate: Any = None
    scalar_key: tuple | None = None
    replaces: frozenset = frozenset()
    # Per-group count deltas pushed by the native step 1 this round.
    pending: list = field(default_factory=list)
    # Touched group keys pushed by the native step 2 this round (saves a
    # second ΔV read+group on the stored-liveness path).
    pending_keys: list = field(default_factory=list)

    @property
    def requires_base_tables(self) -> bool:
        # Counter seeding recomputes COUNT(*) per group from the bases.
        return self.counters is not None

    def initialize(self, connection: "Connection") -> None:
        if self.counters is None:
            return
        result = connection.execute(self.init_count_sql)
        self.counters.load(
            (tuple(row[:-1]), row[-1]) for row in result.rows
        )

    def absorb(self, keys: list, nets) -> None:
        """Receive one round of per-group weighted-count deltas (from the
        native step 1, which sees the source rows)."""
        self.pending.extend(zip(keys, (int(n) for n in nets)))

    def absorb_keys(self, keys: list) -> None:
        """Receive one round's touched group keys (from the native step 2,
        which has already grouped the ΔV batch)."""
        self.pending_keys.extend(keys)

    def run(self, connection: "Connection") -> int:
        if self.paper_predicate is not None:
            return self._run_paper_mode(connection)
        if self.counters is not None:
            if not self.pending:
                return 0
            keys = [key for key, _ in self.pending]
            nets = [net for _, net in self.pending]
            self.pending.clear()
            dead = self.counters.apply(keys, nets)
        else:
            if self.pending_keys:
                keys = list(self.pending_keys)
                self.pending_keys.clear()
            else:
                batch = connection.read_delta_batch(self.delta_view_table)
                if len(batch) == 0:
                    return 0
                _, keys, _ = batch.group_structure(self.key_positions)
            table = connection.table(self.mv_table)
            dead = []
            for key in keys:
                stored = table.pk_lookup(key)
                if (
                    stored is not None
                    and stored[self.liveness_ordinal] <= 0
                ):
                    dead.append(key)
        if not dead:
            return 0
        return connection.delete_keys(self.mv_table, dead)

    def _run_paper_mode(self, connection: "Connection") -> int:
        """Scalar sum-only views: test the single stored row against the
        compiled paper predicate, like the SQL ``DELETE ... WHERE sum =
        0`` scans the (at most one-row) view on every refresh."""
        self.pending_keys.clear()
        table = connection.table(self.mv_table)
        stored = table.pk_lookup(self.scalar_key)
        if stored is None:
            return 0
        from repro.execution.executor import ExecutionContext

        row_batch = ZSetBatch.from_rows([stored])
        verdict = batch_eval(
            self.paper_predicate, row_batch, ExecutionContext(connection.catalog)
        )
        if verdict[0] is not True:
            return 0
        return connection.delete_keys(self.mv_table, [self.scalar_key])


@dataclass
class NativeTruncateStep:
    """Native step 4: in-memory truncation of the ΔV staging table.

    The per-base ΔT tables are shared between views, so the refresh
    closure truncates them once at the end (through the same
    ``Connection.truncate_table`` API) rather than per view here.
    """

    name = "step4"
    step_prefix = "step4: clear delta view"

    tables: list[str]
    replaces: frozenset = frozenset()
    requires_base_tables = False

    def initialize(self, connection: "Connection") -> None:
        return None

    def run(self, connection: "Connection") -> int:
        return sum(connection.truncate_table(name) for name in self.tables)


def build_native_steps(
    model: MVModel, catalog, dialect: Dialect
) -> list[object]:
    """The native steps for ``model``, selected per step.

    Each returned step knows which SQL labels it replaces by prefix; steps
    whose shape is outside their kernel surface are simply absent, leaving
    that step on the compiled SQL (the propagation pipeline mixes the two
    freely).  ``CompilerFlags.native_steps`` narrows the selection.
    """
    wanted = set(model.flags.native_steps)
    flags = model.flags
    steps: list[object] = []
    step1 = try_build_batched_step1(model, catalog) if 1 in wanted else None
    if step1 is not None:
        steps.append(step1)
    step2 = None
    if 2 in wanted:
        # One native step-2 form per materialization strategy; the
        # UNION-regroup and outer-merge forms are individually gated so
        # the SQL rebuilds stay selectable as baselines.
        if flags.strategy is MaterializationStrategy.LEFT_JOIN_UPSERT:
            step2 = _build_upsert_step(model)
        elif (
            flags.strategy is MaterializationStrategy.UNION_REGROUP
            and flags.native_union_step2
        ):
            step2 = _build_regroup_step(model)
        elif (
            flags.strategy is MaterializationStrategy.FULL_OUTER_JOIN
            and flags.native_foj_step2
        ):
            step2 = _build_outer_merge_step(model)
        if step2 is not None:
            steps.append(step2)
        if (
            model.minmax_columns()
            and flags.native_minmax_rescan
            and step1 is not None
        ):
            # Step 2b: the extrema state is fed source-level deltas by
            # the native step 1, so without one the SQL rescan stays.
            # (MIN/MAX forces LEFT_JOIN_UPSERT, so step2 is the upsert.)
            step2b = _build_rescan_step(model, dialect, step1)
            if step2b is not None:
                steps.append(step2b)
                step1.extrema_step = step2b
    if 3 in wanted:
        step3 = _build_liveness_step(model, dialect, step1)
        if step3 is not None:
            steps.append(step3)
            if step2 is not None and step3.liveness_ordinal is not None:
                # Step 2 has already grouped ΔV by key; hand the touched
                # keys to the stored-liveness test instead of re-reading.
                step2.liveness_step = step3
    if 4 in wanted:
        steps.append(NativeTruncateStep(tables=[model.delta_view_table]))
    return steps


def _column_folds(model: MVModel) -> tuple[list, list]:
    """(key positions in the ΔV row, per-mv-column fold specs) — the
    shared layout every native step-2 variant folds ΔV with."""
    delta_pos = {
        column.name: i for i, column in enumerate(model.delta_columns())
    }
    key_positions = [delta_pos[k.name] for k in model.key_columns()]
    folds: list[_ColumnFold] = []
    key_index = 0
    for ordinal, column in enumerate(model.columns):
        if column.role is ColumnRole.KEY:
            folds.append(
                _ColumnFold(
                    name=column.name, kind="key", stored_ordinal=ordinal,
                    key_index=key_index,
                )
            )
            key_index += 1
        elif column.role.is_additive:
            folds.append(
                _ColumnFold(
                    name=column.name, kind="additive", stored_ordinal=ordinal,
                    delta_pos=delta_pos[column.name],
                )
            )
        elif column.role.is_minmax:
            folds.append(
                _ColumnFold(
                    name=column.name,
                    kind="min" if column.role is ColumnRole.MIN else "max",
                    stored_ordinal=ordinal,
                    delta_pos=delta_pos[column.name],
                )
            )
        else:  # ColumnRole.AVG
            folds.append(
                _ColumnFold(
                    name=column.name, kind="avg", stored_ordinal=ordinal,
                    companion_sum=column.companion_sum,
                    companion_count=column.companion_count,
                )
            )
    return key_positions, folds


def _build_upsert_step(model: MVModel) -> NativeUpsertStep:
    key_positions, folds = _column_folds(model)
    return NativeUpsertStep(
        mv_table=model.mv_table,
        delta_view_table=model.delta_view_table,
        key_positions=key_positions,
        folds=folds,
    )


def _build_regroup_step(model: MVModel) -> NativeRegroupStep:
    key_positions, folds = _column_folds(model)
    delta_stored_ordinals = [
        ordinal
        for ordinal, column in enumerate(model.columns)
        if column.role is not ColumnRole.AVG
    ]
    return NativeRegroupStep(
        mv_table=model.mv_table,
        delta_view_table=model.delta_view_table,
        key_positions=key_positions,
        folds=folds,
        delta_stored_ordinals=delta_stored_ordinals,
    )


def _build_outer_merge_step(model: MVModel) -> NativeOuterMergeStep:
    key_positions, folds = _column_folds(model)
    return NativeOuterMergeStep(
        mv_table=model.mv_table,
        delta_view_table=model.delta_view_table,
        key_positions=key_positions,
        folds=folds,
    )


def _build_rescan_step(
    model: MVModel, dialect: Dialect, step1: BatchedDeltaStep
) -> NativeRescanStep | None:
    """The native step-2b rescan, or None when the view lacks the stored
    liveness column the dead-group handoff relies on (build_model always
    adds one for MIN/MAX views, so this is belt-and-braces)."""
    liveness = model.liveness_column()
    if liveness is None:
        return None
    liveness_ordinal = next(
        i for i, c in enumerate(model.columns) if c.name == liveness.name
    )
    keys = model.key_columns()
    key_is_const: list[bool] = []
    key_constants: list[Any] = []
    for key in keys:
        constant = _constant_value(key.expr)
        if constant is _NOT_CONSTANT:
            key_is_const.append(False)
            key_constants.append(None)
        else:
            key_is_const.append(True)
            key_constants.append(constant)
    analysis = model.analysis
    grouped_keys = [k for k, is_const in zip(keys, key_is_const) if not is_const]
    columns: list[_ExtremaColumn] = []
    sources: dict[int, _ExtremaSource] = {}
    for column in model.minmax_columns():
        value_ordinal = step1.aggregate_ordinals.get(column.name)
        if value_ordinal is None:
            return None  # MIN/MAX of nothing cannot occur; defensive
        stored_ordinal = next(
            i for i, c in enumerate(model.columns) if c.name == column.name
        )
        columns.append(
            _ExtremaColumn(
                name=column.name,
                stored_ordinal=stored_ordinal,
                value_ordinal=value_ordinal,
                want_max=(column.role is ColumnRole.MAX),
            )
        )
        if value_ordinal in sources:
            continue  # MIN and MAX of the same argument share one multiset
        # Seed: per-(group, value) multiplicities from the base tables —
        # SELECT keys..., arg, COUNT(*) FROM <sources> [WHERE p]
        # GROUP BY keys..., arg (constant keys are spliced in at load).
        items = [
            d.item(copy.deepcopy(k.expr), k.name) for k in grouped_keys
        ] + [
            d.item(copy.deepcopy(column.expr), "_duckdb_ivm_value"),
            d.item(d.agg("COUNT", None), "_duckdb_ivm_extrema"),
        ]
        select = d.select(
            items=items,
            from_clause=copy.deepcopy(analysis.query.from_clause),
            where=copy.deepcopy(analysis.where),
            group_by=[copy.deepcopy(k.expr) for k in grouped_keys]
            + [copy.deepcopy(column.expr)],
        )
        sources[value_ordinal] = _ExtremaSource(
            value_ordinal=value_ordinal,
            init_sql=d.emit(select, dialect),
        )
    return NativeRescanStep(
        mv_table=model.mv_table,
        columns=columns,
        sources=sources,
        liveness_ordinal=liveness_ordinal,
        key_is_const=key_is_const,
        key_constants=key_constants,
    )


def _build_liveness_step(
    model: MVModel, dialect: Dialect, step1: BatchedDeltaStep | None
) -> NativeLivenessStep | None:
    delta_pos = {
        column.name: i for i, column in enumerate(model.delta_columns())
    }
    key_positions = [delta_pos[k.name] for k in model.key_columns()]
    liveness = model.liveness_column()
    if liveness is not None:
        ordinal = next(
            i for i, c in enumerate(model.columns) if c.name == liveness.name
        )
        return NativeLivenessStep(
            mv_table=model.mv_table,
            delta_view_table=model.delta_view_table,
            key_positions=key_positions,
            liveness_ordinal=ordinal,
        )
    sums = model.paper_sum_columns()
    if not sums:
        return None  # no SQL step 3 exists either
    keys = model.key_columns()
    constants = [_constant_value(k.expr) for k in keys]
    if keys and all(c is not _NOT_CONSTANT for c in constants):
        # Scalar-aggregate sum-only view: its single row keeps the
        # paper's semantics, evaluated natively — the compiled
        # `sum = 0 AND ...` predicate over the stored row (same
        # three-valued comparison as the SQL DELETE).
        predicate = None
        for column in sums:
            ordinal = next(
                i for i, c in enumerate(model.columns) if c.name == column.name
            )
            clause = BoundBinary(
                op="=",
                left=BoundColumn(index=ordinal, type=column.type),
                right=BoundConstant(0),
            )
            predicate = (
                clause
                if predicate is None
                else BoundBinary(op="AND", left=predicate, right=clause)
            )
        return NativeLivenessStep(
            mv_table=model.mv_table,
            delta_view_table=model.delta_view_table,
            key_positions=key_positions,
            paper_predicate=compile_batch_expression(predicate),
            scalar_key=tuple(constants),
        )
    if any(c is not _NOT_CONSTANT for c in constants):
        # Mixed constant/computed keys: keep the SQL fallback.
        return None
    if step1 is None:
        # The exact counters are fed source-level count deltas by the
        # native step 1; without it (step 1 on SQL, or excluded by the
        # flags) the view keeps the paper's SQL fallback.
        return None
    analysis = model.analysis
    items = [
        d.item(copy.deepcopy(k.expr), k.name) for k in keys
    ] + [d.item(d.agg("COUNT", None), "_duckdb_ivm_liveness")]
    select = d.select(
        items=items,
        from_clause=copy.deepcopy(analysis.query.from_clause),
        where=copy.deepcopy(analysis.where),
        group_by=[copy.deepcopy(k.expr) for k in keys],
    )
    step3 = NativeLivenessStep(
        mv_table=model.mv_table,
        delta_view_table=model.delta_view_table,
        key_positions=key_positions,
        counters=GroupLivenessState(),
        init_count_sql=d.emit(select, dialect),
    )
    step1.liveness_step = step3
    return step3

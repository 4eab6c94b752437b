"""The embedded engine's user-facing connection.

A :class:`Connection` owns a catalog, binder, optimizer, trigger manager
and extension registry — the same shape as linking DuckDB as a library
gives the paper's compiler access to "the DuckDB SQL parser, planner, and
optimizer".

Typical use::

    con = Connection()
    con.execute("CREATE TABLE t (a VARCHAR, b INTEGER)")
    con.execute("INSERT INTO t VALUES ('x', 1), ('y', 2)")
    rows = con.execute("SELECT a, SUM(b) FROM t GROUP BY a").fetchall()
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, IndexSchema, TableSchema, ViewSchema
from repro.datatypes.types import type_from_name
from repro.errors import (
    BinderError,
    ExecutionError,
    ParserError,
    UnsupportedError,
)
from repro.execution.executor import ExecutionContext, execute_plan, probe_rows
from repro.execution.expression import compile_expression
from repro.planner.binder import Binder, bind_value_row
from repro.planner.logical import LogicalOperator, OutputColumn, explain
from repro.planner.optimizer import Optimizer, index_probe
from repro.engine.extension import ExtensionRegistry
from repro.engine.result import Result
from repro.engine.triggers import TriggerManager
from repro.sql import ast
from repro.sql.dialect import Dialect, dialect_by_name
from repro.sql.parser import parse_script
from repro.sql.render import render_select
from repro.storage.table import Table


class Connection:
    """An embedded database instance."""

    def __init__(self, dialect: str | Dialect = "duckdb") -> None:
        self.dialect = (
            dialect if isinstance(dialect, Dialect) else dialect_by_name(dialect)
        )
        self.catalog = Catalog()
        self.binder = Binder(self.catalog)
        self.optimizer = Optimizer(self.catalog)
        self.triggers = TriggerManager()
        self.extensions = ExtensionRegistry()
        self.pragmas: dict[str, Any] = {}
        self._attached: dict[str, "Connection"] = {}

    # -- public API -----------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> Result:
        """Parse and execute a batch; returns the last statement's result."""
        statements = self._parse(sql)
        result = Result()
        for statement in statements:
            result = self.execute_statement(statement, parameters)
        return result

    def execute_statement(
        self, statement: ast.Statement, parameters: Sequence[Any] = ()
    ) -> Result:
        """Execute one parsed statement (with extension pre/post hooks)."""
        handled = self.extensions.run_pre_hooks(self, statement)
        if handled is not None:
            return handled
        result = self._dispatch(statement, parameters)
        self.extensions.run_post_hooks(self, statement, result)
        return result

    def query_plan(self, sql: str) -> LogicalOperator:
        """Bind and optimize a SELECT, returning the logical plan."""
        statement = self._parse_one(sql)
        if not isinstance(statement, ast.Select):
            raise UnsupportedError("query_plan requires a SELECT statement")
        plan = self.binder.bind_select(statement)
        return self.optimizer.optimize(plan)

    def explain(self, sql: str) -> str:
        """EXPLAIN-style plan tree for a SELECT."""
        return explain(self.query_plan(sql))

    def attach(self, alias: str, other: "Connection") -> None:
        """Attach another engine's catalog under ``alias`` (HTAP bridge)."""
        self.catalog.attach(alias, other.catalog)
        self._attached[alias.lower()] = other

    def detach(self, alias: str) -> None:
        self.catalog.detach(alias)
        self._attached.pop(alias.lower(), None)

    def attached_connection(self, alias: str) -> "Connection":
        try:
            return self._attached[alias.lower()]
        except KeyError:
            raise ExecutionError(f"database {alias!r} is not attached") from None

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- batched Z-set bridge ---------------------------------------------
    #
    # The IVM extension's vectorized propagation path moves deltas between
    # tables and Z-set batches without going through SQL statement
    # execution; these two helpers are that bridge.

    def read_delta_batch(self, delta_table: str):
        """Read a delta table (base columns + trailing boolean multiplicity)
        into a columnar :class:`~repro.zset.batch.ZSetBatch`: multiplicity
        TRUE becomes weight +1, FALSE becomes −1.  The column lists come
        straight from the table's columnar mirror (no re-transposition on
        append-only delta tables)."""
        import numpy as np

        from repro.zset.batch import ZSetBatch, _object_array

        table = self.catalog.table(delta_table)
        columns = table.scan_columns()
        mult = np.asarray(columns[-1], dtype=bool)
        weights = np.where(mult, np.int64(1), np.int64(-1))
        return ZSetBatch([_object_array(c) for c in columns[:-1]], weights)

    def insert_rows(self, table_name: str, rows) -> int:
        """Bulk-append pre-shaped rows (no coercion) — the write half of
        the batched propagation path.  AFTER INSERT triggers fire when the
        table has any (cascade capture on materialized-view tables); plain
        delta/staging tables have none, so the common path stays
        trigger-free."""
        table = self.catalog.table(table_name)
        rows = list(rows)
        count = table.insert_batch(rows, coerce=False)
        if self.triggers.triggers_on(table.schema.name):
            self.triggers.fire(self, "INSERT", table.schema.name, rows)
        return count

    def upsert_rows(self, table_name: str, rows) -> int:
        """Bulk INSERT OR REPLACE over the table's primary key — the
        native step-2 fold writes merged view rows here.  When the table
        carries triggers (cascade capture on a view another view reads
        from), the exact stored-row delta is reported: DELETE fires with
        the displaced old rows, INSERT with the deduped survivors."""
        table = self.catalog.table(table_name)
        if self.triggers.triggers_on(table.schema.name):
            replaced: list[tuple] = []
            survivors: list[tuple] = []
            count = table.upsert_batch(
                list(rows), replaced_out=replaced, survivors_out=survivors
            )
            self.triggers.fire(self, "DELETE", table.schema.name, replaced)
            self.triggers.fire(self, "INSERT", table.schema.name, survivors)
            return count
        return table.upsert_batch(list(rows))

    def delete_keys(self, table_name: str, keys) -> int:
        """Bulk delete by primary-key values — the native step-3 liveness
        kernel removes dead groups here.  Keys absent from the table are
        ignored; returns the number of rows removed.  AFTER DELETE
        triggers fire with the removed rows when the table has any."""
        table = self.catalog.table(table_name)
        victims = [table.delete_row(row_id) for row_id, _ in table.probe("__pk__", keys)]
        if self.triggers.triggers_on(table.schema.name):
            self.triggers.fire(self, "DELETE", table.schema.name, victims)
        return len(victims)

    def truncate_table(self, table_name: str) -> int:
        """Empty a table in-memory — step 4 of the native pipeline clears
        ΔV and ΔT through here.  A table with AFTER DELETE triggers (a
        view feeding dependents) reports every removed row so downstream
        retractions stay exact; trigger-free tables truncate without a
        scan."""
        table = self.catalog.table(table_name)
        if self.triggers.triggers_on(table.schema.name):
            victims = [tuple(row) for row in table.scan()]
            removed = table.truncate()
            self.triggers.fire(self, "DELETE", table.schema.name, victims)
            return removed
        return table.truncate()

    def begin_table_snapshot(self, table_name: str) -> None:
        """Epoch-pin a table for the calling (refresher) thread: until
        the matching commit, readers on other threads scan the
        pre-refresh snapshot (copy-on-first-write in the table) and
        never observe a half-applied refresh."""
        self.catalog.table(table_name).begin_refresh_snapshot()

    def commit_table_snapshot(self, table_name: str) -> None:
        """Publish a refreshed table: drop its pinned snapshot epoch."""
        self.catalog.table(table_name).commit_refresh_snapshot()

    def abort_table_snapshot(self, table_name: str) -> None:
        """Abandon a failed refresh: restore the pinned pre-refresh
        epoch (rows, free list, live count) and release the pin.  The
        caller is responsible for rebuilding the table's derived state
        (the extension schedules a full recompute)."""
        self.catalog.table(table_name).abort_refresh_snapshot()

    # -- durability ------------------------------------------------------

    @classmethod
    def recover(
        cls, path, flags=None
    ) -> "Connection":
        """Rebuild an engine from a durability directory: load the
        latest valid checkpoint, truncate any torn WAL tail, replay the
        records past the checkpoint's LSN, and refresh the recovered
        views.  Returns the new connection with the OpenIVM extension
        loaded (``connection.extensions.loaded("openivm")``) and the WAL
        reopened for appending.  See ``docs/durability.md``."""
        from repro.storage.checkpoint import recover_connection

        connection, _ = recover_connection(path, flags=flags)
        return connection

    # -- parsing with extension fall-back ----------------------------------

    def _parse(self, sql: str) -> list[ast.Statement]:
        try:
            return parse_script(sql)
        except ParserError:
            fallback = self.extensions.try_fallback_parsers(sql)
            if fallback is not None:
                return fallback
            raise

    def _parse_one(self, sql: str) -> ast.Statement:
        statements = self._parse(sql)
        if len(statements) != 1:
            raise ParserError("expected exactly one statement")
        return statements[0]

    # -- statement dispatch --------------------------------------------------

    def _dispatch(
        self, statement: ast.Statement, parameters: Sequence[Any]
    ) -> Result:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, parameters)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name, if_exists=statement.if_exists)
            return Result(statement_type="DROP TABLE")
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, ast.CreateView):
            return self._execute_create_view(statement)
        if isinstance(statement, ast.DropView):
            self.catalog.drop_view(statement.name, if_exists=statement.if_exists)
            return Result(statement_type="DROP VIEW")
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, parameters)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement, parameters)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement, parameters)
        if isinstance(statement, ast.Explain):
            plan = self.optimizer.optimize(self.binder.bind_select(statement.query))
            lines = explain(plan).split("\n")
            return Result(
                columns=["explain"],
                rows=[(line,) for line in lines],
                rowcount=len(lines),
                statement_type="EXPLAIN",
            )
        if isinstance(statement, ast.Pragma):
            self.pragmas[statement.name.lower()] = (
                statement.value if statement.value is not None else True
            )
            return Result(statement_type="PRAGMA")
        if isinstance(statement, ast.Transaction):
            if statement.action == "ROLLBACK":
                raise UnsupportedError(
                    "ROLLBACK is not supported (statement-level autocommit)"
                )
            return Result(statement_type=statement.action)
        if isinstance(statement, ast.Attach):
            raise UnsupportedError(
                "ATTACH via SQL requires the HTAP scanner extension; "
                "use Connection.attach(alias, connection)"
            )
        if isinstance(statement, ast.RefreshView):
            raise UnsupportedError(
                "REFRESH MATERIALIZED VIEW requires the OpenIVM extension"
            )
        raise UnsupportedError(
            f"cannot execute statement {type(statement).__name__}"
        )

    # -- SELECT -------------------------------------------------------------

    def _execute_select(
        self, select: ast.Select, parameters: Sequence[Any]
    ) -> Result:
        plan = self.binder.bind_select(select)
        plan = self.optimizer.optimize(plan)
        ctx = ExecutionContext(self.catalog, parameters)
        rows = execute_plan(plan, ctx)
        return Result(
            columns=[c.name for c in plan.output_columns],
            rows=rows,
            rowcount=len(rows),
            statement_type="SELECT",
        )

    # -- DDL -------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        if statement.as_query is not None:
            plan = self.binder.bind_select(statement.as_query)
            plan = self.optimizer.optimize(plan)
            ctx = ExecutionContext(self.catalog)
            rows = execute_plan(plan, ctx)
            columns = [
                Column(c.name, c.type) for c in plan.output_columns
            ]
            schema = TableSchema(statement.name, columns)
            table = Table(schema)
            self.catalog.create_table(table, if_not_exists=statement.if_not_exists)
            for row in rows:
                table.insert(row, coerce=False)
            return Result(statement_type="CREATE TABLE", rowcount=len(rows))
        columns = [
            Column(
                col.name,
                type_from_name(col.type_name, col.width),
                not_null=col.not_null or col.name in statement.primary_key,
            )
            for col in statement.columns
        ]
        schema = TableSchema(
            statement.name, columns, primary_key=list(statement.primary_key)
        )
        self.catalog.create_table(
            Table(schema), if_not_exists=statement.if_not_exists
        )
        return Result(statement_type="CREATE TABLE")

    def _execute_create_index(self, statement: ast.CreateIndex) -> Result:
        table = self.catalog.table(statement.table)
        key_indexes = [table.schema.column_index(c) for c in statement.columns]
        chunked = bool(self.pragmas.get("ivm_chunked_index_build"))
        table.add_index(
            statement.name, key_indexes, unique=statement.unique, chunked=chunked
        )
        self.catalog.create_index(
            IndexSchema(
                name=statement.name,
                table=statement.table,
                columns=list(statement.columns),
                unique=statement.unique,
            ),
            if_not_exists=statement.if_not_exists,
        )
        return Result(statement_type="CREATE INDEX")

    def _execute_drop_index(self, statement: ast.DropIndex) -> Result:
        try:
            index = self.catalog.index(statement.name)
        except Exception:
            if statement.if_exists:
                return Result(statement_type="DROP INDEX")
            raise
        self.catalog.table(index.table).drop_index(statement.name)
        self.catalog.drop_index(statement.name)
        return Result(statement_type="DROP INDEX")

    def _execute_create_view(self, statement: ast.CreateView) -> Result:
        if statement.materialized:
            raise UnsupportedError(
                "CREATE MATERIALIZED VIEW requires the OpenIVM extension"
            )
        # Bind now to validate; store the AST for later re-binding.
        self.binder.bind_select(statement.query)
        self.catalog.create_view(
            ViewSchema(
                name=statement.name,
                query=statement.query,
                sql=render_select(statement.query, self.dialect),
            ),
            if_not_exists=statement.if_not_exists,
        )
        return Result(statement_type="CREATE VIEW")

    # -- DML -------------------------------------------------------------

    def _execute_insert(
        self, statement: ast.Insert, parameters: Sequence[Any]
    ) -> Result:
        table = self.catalog.table(statement.table)
        schema = table.schema
        ctx = ExecutionContext(self.catalog, parameters)

        if statement.query is not None:
            plan = self.binder.bind_select(statement.query)
            plan = self.optimizer.optimize(plan)
            source_rows = execute_plan(plan, ctx)
        else:
            # A literal cell is its own value; only the other cells are
            # bound and compiled.
            literal = ast.Literal
            source_rows = [
                [
                    cell.value if type(cell) is literal else self._value_cell(cell, ctx)
                    for cell in value_row
                ]
                for value_row in statement.values
            ]
        rows = self._reorder_insert_rows(schema, statement.columns, source_rows)
        # Whole-statement columnar ingestion: one batch append with a
        # single sorted index pass, instead of per-row insert calls.  The
        # table coerces to storage types and hands the stored rows back,
        # so the AFTER triggers see exactly what DELETE and UPDATE would
        # report.  Raw literals (e.g. an ISO date string headed for a DATE
        # column) must never leak into the capture path: the IVM states
        # address entries by memcomparable bytes, where a string and the
        # date it spells encode differently — mixed spellings corrupt
        # retraction cancellation and extrema ordering.
        stored: list[tuple] = []
        if statement.or_replace:
            # Report the stored-row delta, not the raw input: replaced
            # old rows retract (DELETE) and only the deduped survivors
            # insert, so delta captures never double-count a replace.
            replaced: list[tuple] = []
            table.upsert_batch(rows, replaced_out=replaced, survivors_out=stored)
            self.triggers.fire(self, "DELETE", schema.name, replaced)
        else:
            table.insert_batch(rows, stored_out=stored)
        self.triggers.fire(self, "INSERT", schema.name, stored)
        return Result(statement_type="INSERT", rowcount=len(rows))

    def _value_cell(self, cell: ast.Expression, ctx: ExecutionContext) -> Any:
        """Evaluate one non-literal VALUES cell: a signed numeric literal
        directly, anything else through bind and compile."""
        if (
            type(cell) is ast.UnaryOp
            and cell.op in ("-", "+")
            and type(cell.operand) is ast.Literal
            and type(cell.operand.value) in (int, float)
        ):
            value = cell.operand.value
            return -value if cell.op == "-" else value
        (bound,) = bind_value_row([cell], self.binder)
        return compile_expression(bound)((), ctx)

    @staticmethod
    def _reorder_insert_rows(
        schema: TableSchema, columns: list[str], rows: list
    ) -> list:
        """Rows in table-column order.  The column list is resolved once
        per statement; columns it leaves out receive NULL.  Without a
        column list the rows pass through (the table checks their arity)."""
        if not columns:
            return rows
        slots: list[int | None] = [None] * len(schema.columns)
        for position, name in enumerate(columns):
            ordinal = schema.column_index(name)
            if slots[ordinal] is not None:
                raise BinderError(
                    f"column {name!r} appears more than once in the INSERT "
                    f"column list"
                )
            slots[ordinal] = position
        for row in rows:
            if len(row) != len(columns):
                raise ExecutionError(
                    f"INSERT column list has {len(columns)} names but "
                    f"{len(row)} values"
                )
        return [
            [None if slot is None else row[slot] for slot in slots] for row in rows
        ]

    def _execute_delete(
        self, statement: ast.Delete, parameters: Sequence[Any]
    ) -> Result:
        table = self.catalog.table(statement.table)
        ctx = ExecutionContext(self.catalog, parameters)
        if statement.where is None:
            victims = list(table.scan())
            table.truncate()
            self.triggers.fire(self, "DELETE", table.schema.name, victims)
            return Result(statement_type="DELETE", rowcount=len(victims))
        victims = self._dml_targets(table, statement.where, ctx)
        for row_id, _ in victims:
            table.delete_row(row_id)
        rows = [row for _, row in victims]
        self.triggers.fire(self, "DELETE", table.schema.name, rows)
        return Result(statement_type="DELETE", rowcount=len(rows))

    def _execute_update(
        self, statement: ast.Update, parameters: Sequence[Any]
    ) -> Result:
        table = self.catalog.table(statement.table)
        ctx = ExecutionContext(self.catalog, parameters)
        output = _table_output_columns(table)
        assignments: list[tuple[int, Any]] = []
        for clause in statement.assignments:
            index = table.schema.column_index(clause.column)
            bound = self.binder.bind_scalar(clause.value, output)
            assignments.append((index, compile_expression(bound)))
        # All targets are found before the first row changes, so a SET
        # that rewrites the column the WHERE reads keeps its meaning.
        if statement.where is None:
            targets = list(table.scan_with_ids())
        else:
            targets = self._dml_targets(table, statement.where, ctx)
        pairs: list[tuple[tuple, tuple]] = []
        try:
            for row_id, row in targets:
                new_row = list(row)
                for index, evaluator in assignments:
                    new_row[index] = evaluator(row, ctx)
                pairs.append(table.update_row(row_id, new_row))
        except Exception:
            # The statement is atomic: put the rows already updated back
            # (last first, so no restore can meet a key still taken) and
            # fire nothing.  Rows updated with no captured delta would
            # leave every view over the table wrong from then on.
            for (row_id, _), (old, _) in reversed(list(zip(targets, pairs))):
                table.update_row(row_id, old)
            raise
        self.triggers.fire(self, "UPDATE", table.schema.name, pairs)
        return Result(statement_type="UPDATE", rowcount=len(pairs))

    def _dml_targets(
        self, table: Table, where: ast.Expression, ctx: ExecutionContext
    ) -> list[tuple[int, tuple]]:
        """``(row_id, row)`` of the rows ``where`` accepts, in row-id
        order: from an index probe when the predicate binds an index key
        (the same analysis and probe a SELECT's filter gets), else from
        the scan."""
        predicate = self.binder.bind_scalar(where, _table_output_columns(table))
        accepts = compile_expression(predicate)
        choice = index_probe(predicate, table)
        candidates = probe_rows(table, *choice, ctx) if choice else None
        if candidates is None:
            candidates = table.scan_with_ids()
        return [pair for pair in candidates if accepts(pair[1], ctx) is True]


def _table_output_columns(table: Table) -> list[OutputColumn]:
    """The table's row layout as the binder's scalar scope, built once per
    schema object (a schema's columns never change)."""
    schema = table.schema
    columns = getattr(schema, "_output_columns", None)
    if columns is None:
        columns = schema._output_columns = [
            OutputColumn(col.name, col.type, schema.name) for col in schema.columns
        ]
    return columns

"""OpenIVM wrapped as a loadable engine extension.

Paper §2, "The Extension Module: OpenIVM inside DuckDB":

* "when the fall-back parser parses a CREATE MATERIALIZED VIEW, we execute
  the compiled output to create the delta tables as well as any generated
  intermediate result tables or indexes, along with a table that
  represents the materialized result" — :meth:`IVMExtension._handle_create`.
* "another optimizer rule can then be used to intercept
  INSERT/DELETE/UPDATE statements into the base tables ... fill the delta
  tables ΔT, and kick off the SQL propagation scripts" — the DML capture
  triggers plus the post-statement refresh policy.
* "We store the SQL scripts that propagate the contents of the delta
  tables to the materialized view table on the disk" — ``script_dir``.
* "These SQL commands can either be run eagerly ... or lazily, i.e.
  refreshing the materialized view when it is queried" — the
  :class:`~repro.core.flags.PropagationMode` policy (plus BATCH).

Usage::

    con = Connection()
    ivm = load_ivm(con)            # like LOAD 'openivm'
    con.execute("CREATE TABLE groups (g VARCHAR, v INTEGER)")
    con.execute("CREATE MATERIALIZED VIEW q AS SELECT g, SUM(v) AS s "
                "FROM groups GROUP BY g")
    con.execute("INSERT INTO groups VALUES ('a', 1)")
    con.execute("SELECT * FROM q")   # lazy refresh happens here
"""

from __future__ import annotations

import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core.compiler import CompiledView, OpenIVMCompiler
from repro.core.dag import ViewDependencyGraph
from repro.core.flags import CompilerFlags, PropagationMode
from repro.core.propagate import RefreshStats, run_pipeline
from repro.core.runtime import (
    RUNG_NAMES,
    RUNG_RECOMPUTE,
    RUNG_SQL,
    DegradationLadder,
    IngestQueue,
    RefreshDaemon,
)
from repro.engine.connection import Connection
from repro.engine.triggers import delta_capture_rows
from repro.engine.result import Result
from repro.errors import (
    BackpressureError,
    DependencyCycleError,
    IVMError,
    ParserError,
)
from repro.sql import ast
from repro.sql.parser import parse_script
from repro.zset.incremental import IndexedJoinState


@dataclass
class _ViewState:
    """Runtime bookkeeping for one registered materialized view."""

    compiled: CompiledView
    pending_changes: int = 0
    refresh_count: int = 0
    # Propagation statements parsed once at CREATE time (labels preserved),
    # so a refresh skips re-parsing the stored scripts.
    prepared: list[tuple[str, ast.Statement]] = None
    # Per-refresh counters (wall time, per-step time, rows).
    stats: RefreshStats = field(default_factory=RefreshStats)
    # Set when a refresh died mid-pipeline: the stored rows were rolled
    # back to the pinned snapshot, but the in-memory incremental states
    # may have consumed part of the batch, so the next refresh rebuilds
    # the whole view from the base tables instead of propagating.
    needs_recompute: bool = False
    # The escalating degradation ladder (native → sql → recompute);
    # every view gets one, even when it never demotes.
    ladder: DegradationLadder = field(default_factory=DegradationLadder)
    # Set when a table referenced only inside the view's WHERE subquery
    # changed: the pinned snapshot verdicts are stale, so the next
    # refresh must repair them (natively, via the snapshot-diff
    # injection) or fall back to a recompute (SQL rungs).
    snapshot_dirty: bool = False


class _MaterializedViewParser:
    """Fall-back parser accepting the MATERIALIZED VIEW statements.

    "Similar to DuckPGQ ... we developed a simple fall-back parser that
    recognizes the CREATE MATERIALIZED VIEW syntax."
    """

    def try_parse(self, sql: str) -> list[ast.Statement] | None:
        try:
            statements = parse_script(sql, allow_materialized=True)
        except ParserError:
            return None
        interesting = any(
            (isinstance(s, ast.CreateView) and s.materialized)
            or isinstance(s, ast.RefreshView)
            for s in statements
        )
        return statements if interesting else None


class IVMExtension:
    """The extension object; one instance per connection."""

    def __init__(
        self,
        flags: CompilerFlags | None = None,
        script_dir: str | pathlib.Path | None = None,
        durability_dir: str | pathlib.Path | None = None,
    ) -> None:
        self.flags = flags or CompilerFlags()
        self.script_dir = pathlib.Path(script_dir) if script_dir else None
        self.durability_dir = (
            pathlib.Path(durability_dir) if durability_dir else None
        )
        self._connection: Connection | None = None
        self._views: dict[str, _ViewState] = {}
        # base table (lower) -> view names watching it
        self._watched: dict[str, set[str]] = {}
        # delta table name (lower) -> view names reading it
        self._delta_readers: dict[str, set[str]] = {}
        # The cascaded-view dependency DAG: every registered view is a
        # node; an edge upstream -> dependent exists when the dependent
        # is defined over the upstream's materialized rows.  Refresh
        # order, CREATE-time cycle rejection, drop protection, and the
        # depth/invalidation reporting all read this graph.
        self._dag = ViewDependencyGraph()
        # table (lower) referenced inside a WHERE subquery -> view names
        # whose snapshot verdicts depend on it (CompilerFlags.
        # subquery_snapshot); DML on these tables marks snapshot_dirty.
        self._snapshot_watch: dict[str, set[str]] = {}
        # Depth of the _refresh_into call stack: the policy hooks must
        # not start a nested refresh off the pipeline's own writes.
        self._refresh_depth = 0
        # WAL + checkpoints; opening the manager truncates a torn WAL tail.
        self._durability = None
        if self.flags.durability and self.durability_dir is not None:
            from repro.storage.checkpoint import DurabilityManager

            self._durability = DurabilityManager(
                self.durability_dir, self, sync=self.flags.wal_sync
            )
        # The async ingestion runtime (CompilerFlags.ingest_queue): the
        # capture triggers enqueue delta batches here instead of writing
        # WAL + ΔT synchronously; _drain_queue moves them on batch-size/
        # deadline/watermark triggers and at the top of every refresh.
        self._runtime_lock = threading.RLock()
        self._queue: IngestQueue | None = None
        self._daemon: RefreshDaemon | None = None
        if self.flags.ingest_queue:
            self._queue = IngestQueue(
                capacity=self.flags.queue_capacity,
                policy=self.flags.queue_policy,
                high_watermark=self.flags.queue_high_watermark,
                low_watermark=self.flags.queue_low_watermark,
                block_timeout=self.flags.queue_block_timeout,
                drain_callback=self._drain_queue,
                fault_plan=self.flags.fault_plan,
            )
            if self._durability is not None:
                # A checkpoint must cover the queued deltas: base rows
                # are already applied, so an image taken with batches
                # still queued would lose them on recovery.
                self._durability.pre_checkpoint_hook = self._drain_queue
            if self.flags.queue_async:
                tick = (
                    self.flags.queue_deadline / 2
                    if self.flags.queue_deadline > 0
                    else 0.05
                )
                self._daemon = RefreshDaemon(
                    self._queue, self._daemon_pump, tick=tick
                )

    # -- registration (the paper's "registration functions") ----------------

    def register(self, connection: Connection) -> None:
        if self._connection is not None:
            raise IVMError("extension is already loaded into a connection")
        self._connection = connection
        connection.extensions.register_parser(_MaterializedViewParser())
        connection.extensions.register_pre_hook(self._pre_hook)
        connection.extensions.register_post_hook(self._post_hook)
        connection.extensions.mark_loaded("openivm", self)
        if self._daemon is not None:
            self._daemon.start()

    def shutdown(self) -> None:
        """Stop the background refresher (draining what it holds) and
        close the durability manager.  Idempotent."""
        if self._daemon is not None:
            self._daemon.stop()
        if self._queue is not None and self._queue.depth():
            try:
                self._drain_queue()
            except Exception:
                pass  # watchers were marked needs_recompute by the drain
        if self._durability is not None:
            self._durability.close()

    # -- public API ---------------------------------------------------------

    def views(self) -> list[str]:
        return sorted(self._views)

    def view_state(self, name: str) -> _ViewState:
        try:
            return self._views[name.lower()]
        except KeyError:
            raise IVMError(f"materialized view {name!r} does not exist") from None

    def compiled(self, name: str) -> CompiledView:
        return self.view_state(name).compiled

    def refresh(self, name: str) -> None:
        """Refresh ``name`` through the view dependency DAG.

        Three phases, all funneling into :meth:`_refresh_into`:

        * **pull** — stale upstream views refresh first, in topological
          order, so their output deltas land in the cascade feeds;
        * **target** — ``name`` (and every view sharing one of its input
          delta tables, so shared ΔT/feeds are consumed exactly once)
          runs its propagation pipeline over those feeds;
        * **push** — dependents whose policy asks for it (EAGER, BATCH
          past its threshold, or flagged for recompute) refresh in
          topological order, consuming the feed rows the target's
          refresh just emitted.

        One base-table change thereby cascades through every DAG level
        with zero recomputation; LAZY dependents simply stay pending.
        """
        state = self.view_state(name)
        if self._refresh_depth:
            # Policy hook re-entered off the pipeline's own writes (e.g.
            # a refresh statement touching a snapshot-watched table);
            # the counters are already updated, the outer refresh owns
            # the pipeline.
            return
        # Queued capture batches must reach ΔT before the pipeline reads
        # it (a drain failure marks the watchers and raises — the
        # recompute below then repairs them on the next call).
        self._drain_queue()
        target = state.compiled.name.lower()
        self._refresh_depth += 1
        try:
            for upstream in self._dag.upstream_closure(target):
                member = self._views.get(upstream)
                if member is not None and self._is_stale(member):
                    self._refresh_into(member)
            self._refresh_into(state)
            for downstream in self._dag.dependents_closure(target):
                member = self._views.get(downstream)
                if member is None:
                    continue
                if member.needs_recompute:
                    self._refresh_into(member)
                    continue
                flags = member.compiled.model.flags
                if member.pending_changes and (
                    flags.mode is PropagationMode.EAGER
                    or (
                        flags.mode is PropagationMode.BATCH
                        and member.pending_changes >= flags.batch_size
                    )
                ):
                    self._refresh_into(member)
        finally:
            self._refresh_depth -= 1

    @staticmethod
    def _is_stale(member: _ViewState) -> bool:
        """True when ``member``'s stored rows lag its inputs: unconsumed
        delta rows, a pending recompute repair, or moved snapshot pins."""
        return bool(
            member.pending_changes
            or member.needs_recompute
            or member.snapshot_dirty
        )

    def _snapshot_repairable(self, member: _ViewState) -> bool:
        """True when this round can repair moved subquery snapshots
        natively — a native step 1 carrying snapshot specs will run (the
        SQL rungs re-evaluate the subquery per statement against *live*
        tables, which would silently diverge from the stored rows'
        pinned verdicts, so they recompute instead)."""
        if member.ladder.rung >= RUNG_SQL:
            return False
        return any(
            getattr(step, "snapshots", None)
            for step in member.compiled.native_steps
        )

    def _refresh_into(self, state: _ViewState) -> None:
        """Run the propagation pipeline for one view's refresh closure
        (every view sharing one of its input delta tables, in
        topological order, so shared ΔT are consumed once).

        Each view runs its :class:`~repro.core.propagate.NativeStep`
        pipeline interleaved with the compiled SQL, per step: steps the
        vectorized kernels cover (Z-set delta compute, signed-collapse
        upsert, exact liveness delete, in-memory truncation) run natively,
        the rest execute their SQL statements.  All propagation modes —
        eager, lazy, and batch — funnel through here.
        """
        closure = self._refresh_closure(state)
        con = self._require_connection()
        for member in closure:
            if member.snapshot_dirty and not self._snapshot_repairable(
                member
            ):
                member.needs_recompute = True
        if any(
            member.needs_recompute or member.ladder.rung == RUNG_RECOMPUTE
            for member in closure
        ):
            self._recompute_closure(closure)
            return
        # Members whose ladder heals across the SQL rung this round:
        # their native states sat out the SQL rounds and must be
        # reseeded — after the closure-wide ΔT truncation below, so the
        # rebuilt states equal exactly the current base tables.
        reseed: list[_ViewState] = []
        for member in closure:
            stats = member.stats
            stats.begin_round()
            pending_before = member.pending_changes
            rung = member.ladder.rung
            # The SQL rung runs the compiled script on its own; the
            # native states go stale and are reseeded when the ladder
            # heals back past it.
            active_steps = (
                [] if rung == RUNG_SQL else member.compiled.native_steps
            )
            started = time.perf_counter()
            # Epoch-pin the view table: concurrent readers keep scanning
            # the pre-refresh snapshot until the commit below, so they
            # never observe a half-applied refresh.
            pinned = member.compiled.model.flags.snapshot_reads
            if pinned:
                con.begin_table_snapshot(member.compiled.name)
            try:
                run_pipeline(
                    con,
                    member.prepared,
                    active_steps,
                    execute=con.execute_statement,
                    # Shared ΔT tables are cleared once for the whole
                    # closure.
                    skip_label=lambda label: label.startswith(
                        "step4: clear delta table"
                    ),
                    stats=stats,
                    fault_plan=self.flags.fault_plan,
                )
            except BaseException as error:
                # Roll the stored rows back to the pinned pre-refresh
                # epoch (never commit a half-applied refresh as the new
                # truth) and flag the view: the in-memory states may
                # have consumed part of the batch, so the next refresh
                # rebuilds from the base tables.  The failure also
                # demotes the degradation ladder one rung, so once the
                # recompute has repaired the view, subsequent refreshes
                # run in the next-safer execution mode.
                if pinned:
                    con.abort_table_snapshot(member.compiled.name)
                member.needs_recompute = True
                stats.record_event(
                    "refresh_failure",
                    rung=rung,
                    rung_name=RUNG_NAMES[rung],
                    error=type(error).__name__,
                    detail=str(error)[:200],
                )
                from_rung, to_rung = member.ladder.note_failure()
                if to_rung != from_rung:
                    stats.record_event(
                        "demote",
                        from_rung=from_rung,
                        to_rung=to_rung,
                        from_name=RUNG_NAMES[from_rung],
                        to_name=RUNG_NAMES[to_rung],
                        reason=type(error).__name__,
                    )
                stats.degradation_rung = member.ladder.rung
                # The cascade feed may hold captures from the pipeline
                # the rollback just discarded, so the dependents can no
                # longer trust it: flag them for the recompute self-heal
                # (their recompute truncates the feed before re-reading
                # the upstream's stored rows wholesale).
                self._invalidate_dependents(member, type(error).__name__)
                raise
            if pinned:
                con.commit_table_snapshot(member.compiled.name)
            member.pending_changes = 0
            member.snapshot_dirty = False
            member.refresh_count += 1
            stats.finish_round(time.perf_counter() - started, pending_before)
            self._note_clean_refresh(member, reseed)
        delta_tables = {
            delta
            for member in closure
            for delta in member.compiled.delta_tables.values()
        }
        native_truncate = all(
            any(step.name == "step4" for step in member.compiled.native_steps)
            for member in closure
        )
        for delta in sorted(delta_tables):
            if native_truncate:
                con.truncate_table(delta)
            else:
                con.execute(f"DELETE FROM {delta}")
        for member in reseed:
            for step in member.compiled.native_steps:
                _clear_step_pendings(step)
                step.initialize(con)
        if self._durability is not None:
            self._durability.note_refresh()

    def _note_clean_refresh(
        self, member: _ViewState, reseed: list | None = None
    ) -> None:
        """One refresh of ``member`` completed cleanly: advance the
        degradation ladder's heal counter, record the heal event when a
        rung is regained, and sync the stats mirrors (current rung, the
        ingest queue's counters)."""
        healed = member.ladder.note_clean()
        if healed is not None:
            from_rung, to_rung = healed
            member.stats.record_event(
                "heal",
                from_rung=from_rung,
                to_rung=to_rung,
                from_name=RUNG_NAMES[from_rung],
                to_name=RUNG_NAMES[to_rung],
            )
            if from_rung == RUNG_SQL and reseed is not None:
                reseed.append(member)
        member.stats.degradation_rung = member.ladder.rung
        if self._queue is not None:
            member.stats.queue = self._queue.snapshot()

    def _recompute_closure(self, closure: list[_ViewState]) -> None:
        """Rebuild every view of a refresh closure from the base tables.

        The escape hatch after a failed refresh: the stored rows were
        rolled back to the pinned snapshot, but the incremental states
        (join sides, liveness counters, extrema multisets — and any ART
        index entries mutated before the failure) are not copy-on-write,
        so propagation can no longer be trusted.  ΔT is truncated
        *first*: the reseeded states must equal ``base − unconsumed ΔT``,
        and discarding the deltas makes that simply ``base`` — the rows
        they carried are already in the base tables, which the populate
        below re-aggregates wholesale.
        """
        con = self._require_connection()
        delta_tables = {
            delta
            for member in closure
            for delta in member.compiled.delta_tables.values()
        }
        for delta in sorted(delta_tables):
            con.truncate_table(delta)
        for member in closure:
            compiled = member.compiled
            con.truncate_table(compiled.name)
            con.truncate_table(compiled.delta_view_table)
            con.execute(compiled.populate)
            for step in compiled.native_steps:
                _clear_step_pendings(step)
                step.initialize(con)
            member.pending_changes = 0
            member.stats.record_event(
                "recompute",
                rung=member.ladder.rung,
                rung_name=member.ladder.rung_name,
                flagged=member.needs_recompute,
            )
            member.needs_recompute = False
            # step.initialize reseeded the subquery snapshots against the
            # just-recomputed state, so the pins are current again.
            member.snapshot_dirty = False
            member.refresh_count += 1
            # A successful recompute is a clean round for the ladder —
            # it is how the last rung ever heals.  The reseed above
            # already rebuilt the native states, so no extra reseed list.
            self._note_clean_refresh(member)
        if self._durability is not None:
            self._durability.note_refresh()

    def refresh_all(self) -> None:
        """Refresh every stale view, in DAG topological order — an
        upstream's refresh lands its output deltas in the cascade feeds
        before its dependents (later in the order) consume them, so one
        sweep converges the whole DAG."""
        self._drain_queue()
        self._refresh_depth += 1
        try:
            for name in self._dag.topo_sort():
                state = self._views.get(name)
                if state is not None and self._is_stale(state):
                    self._refresh_into(state)
        finally:
            self._refresh_depth -= 1

    def refresh_stats(self, name: str) -> dict:
        """JSON-shaped per-refresh counters for ``name`` (wall seconds,
        per-step seconds, rows in/moved, robustness events)."""
        return self.view_state(name).stats.snapshot()

    def status(self) -> list[dict]:
        """Per-view runtime status (for dashboards/demos): name, class,
        strategy, mode, pending delta rows, refresh rounds, stored rows."""
        con = self._require_connection()
        report = []
        for name in self.views():
            state = self._views[name]
            compiled = state.compiled
            report.append(
                {
                    "view": compiled.name,
                    "class": compiled.view_class.value,
                    "strategy": compiled.model.flags.strategy.value,
                    "mode": compiled.model.flags.mode.value,
                    "batched": bool(state.compiled.native_steps),
                    "native_steps": sorted(
                        step.name for step in state.compiled.native_steps
                    ),
                    "pending_changes": state.pending_changes,
                    "needs_recompute": state.needs_recompute,
                    "refresh_count": state.refresh_count,
                    "rows": len(con.table(compiled.name)),
                    "base_tables": sorted(compiled.delta_tables),
                    "depth": self._dag.depth(name),
                    "upstreams": sorted(self._dag.upstream(name)),
                    "dependents": sorted(self._dag.dependents(name)),
                    "upstream_invalidations": (
                        state.stats.upstream_invalidations
                    ),
                }
            )
        return report

    # -- durability ---------------------------------------------------------

    @property
    def durability(self):
        """The :class:`~repro.storage.checkpoint.DurabilityManager`, or
        None when durability is off."""
        return self._durability

    def checkpoint(self) -> pathlib.Path:
        """Write a checkpoint now (views must be quiescent, which they are
        between statements); returns the new file's path."""
        if self._durability is None:
            raise IVMError(
                "durability is not enabled; load the extension with "
                "flags.durability=True and a durability_dir"
            )
        return self._durability.checkpoint()

    def restore_view_definition(self, create_sql: str) -> None:
        """Recovery: re-register one view from its stored CREATE statement.

        Runs the compiled DDL (mv table, ΔT, ΔV, metadata row) and the
        registration book-keeping, but *not* the initial populate and not
        the per-step ``initialize`` — rows and incremental states are
        restored from the checkpoint image afterwards (or reseeded by
        :meth:`restore_view_state` where the image lacks them).
        """
        con = self._require_connection()
        statement = parse_script(create_sql, allow_materialized=True)[0]
        compiler = OpenIVMCompiler(
            con.catalog, self.flags, known_views=set(self._views)
        )
        compiled = compiler.compile_query(statement.name, statement.query)
        for sql in compiled.ddl:
            con.execute(sql)
        state = self._register_compiled(compiled)
        if compiled.model.analysis.subquery_tables:
            # The checkpoint image carries no subquery-snapshot pins: the
            # WAL tail may have moved the subquery source past the
            # verdicts the stored rows were filtered under, so the
            # recovery refresh rebuilds the view wholesale instead of
            # trusting propagation against a silently re-pinned snapshot.
            state.needs_recompute = True

    def restore_view_state(
        self, name: str, sections: dict, pending_changes: int = 0
    ) -> None:
        """Recovery: load the checkpointed incremental-state images for
        ``name`` — join sides, liveness counters, extrema multisets —
        falling back to a base-table reseed (``step.initialize``) for any
        image the checkpoint lacks.  Entries are restored through the
        byte-identity-preserving :func:`~repro.storage.checkpoint.
        restore_state_value` (only the codec's lossy float decodes are
        undone), so every cell keeps the exact memcomparable address it
        had before the crash.
        """
        from repro.storage.checkpoint import (
            restore_state_row,
            restore_state_value,
        )

        con = self._require_connection()
        state = self.view_state(name)
        compiled = state.compiled
        vkey = compiled.name.lower()
        steps = {step.name: step for step in compiled.native_steps}
        step1 = steps.get("step1")
        step2b = steps.get("step2b")
        step3 = steps.get("step3")

        if step1 is not None and step1.is_join:
            entries = sections.get(f"state:{vkey}:join")
            if entries is None:
                step1.initialize(con)
            else:
                join_state = IndexedJoinState(
                    step1.join_left_key, step1.join_right_key
                )
                left, right = compiled.model.analysis.tables
                schemas = (
                    con.table(left.name).schema,
                    con.table(right.name).schema,
                )
                join_state.load_dump(
                    (
                        int(entry[0]),
                        restore_state_row(
                            tuple(entry[1:-1]), schemas[int(entry[0])]
                        ),
                        int(entry[-1]),
                    )
                    for entry in entries
                )
                step1.state = join_state

        if step3 is not None and step3.counters is not None:
            entries = sections.get(f"state:{vkey}:live")
            if entries is None:
                step3.initialize(con)
            else:
                # The counters are a plain dict keyed by group tuples, so
                # a decoded DATE key (ordinal float) would never hash to
                # the runtime date object it was — undo the lossy float
                # decodes through the view's key column types.  Raw-string
                # keys (INSERT-capture spelling) stay strings, exactly as
                # they were keyed before the crash.
                mv_schema = con.table(compiled.name).schema
                key_types = [
                    mv_schema.columns[i].type
                    for i in mv_schema.primary_key_indexes
                ]
                step3.counters.load(
                    (
                        tuple(
                            restore_state_value(value, dtype)
                            for value, dtype in zip(entry[:-1], key_types)
                        )
                        if len(entry) - 1 == len(key_types)
                        else tuple(entry[:-1]),
                        int(entry[-1]),
                    )
                    for entry in entries
                )

        if step2b is not None:
            complete = all(
                f"state:{vkey}:ext:{ordinal}" in sections
                for ordinal in step2b.sources
            )
            if not complete:
                step2b.initialize(con)
            else:
                mv_schema = con.table(compiled.name).schema
                value_types = {
                    column.value_ordinal: mv_schema.columns[
                        column.stored_ordinal
                    ].type
                    for column in step2b.columns
                }
                for ordinal, source in step2b.sources.items():
                    entries = sections[f"state:{vkey}:ext:{ordinal}"]
                    vtype = value_types.get(ordinal)
                    source.state.load(
                        (
                            tuple(entry[:-2]),
                            restore_state_value(entry[-2], vtype),
                            int(entry[-1]),
                        )
                        for entry in entries
                    )

        state.pending_changes = int(pending_changes)

    def _refresh_closure(self, state: _ViewState) -> list[_ViewState]:
        """Every view sharing one of ``state``'s input delta tables
        (transitively), in DAG topological order — a closure can span
        levels when a view joins an upstream with that upstream's own
        source, and the upstream must then consume the shared ΔT (and
        emit its feed rows) before the joining view reads both."""
        names: set[str] = set()
        frontier = [state.compiled.name.lower()]
        while frontier:
            current = frontier.pop()
            if current in names:
                continue
            names.add(current)
            compiled = self._views[current].compiled
            for delta in compiled.delta_tables.values():
                for reader in self._delta_readers.get(delta.lower(), ()):
                    if reader not in names:
                        frontier.append(reader)
        order = {n: i for i, n in enumerate(self._dag.topo_sort())}
        return [
            self._views[n]
            for n in sorted(names, key=lambda n: (order.get(n, -1), n))
        ]

    def _invalidate_dependents(self, member: _ViewState, reason: str) -> None:
        """An upstream refresh failed (or was rolled back): flag every
        direct dependent for the recompute self-heal and count the
        invalidation — the cascade feed may carry captures from the
        discarded pipeline, so propagating from it is no longer safe."""
        name = member.compiled.name.lower()
        for dependent in self._dag.dependents(name):
            dep = self._views.get(dependent)
            if dep is None:
                continue
            dep.needs_recompute = True
            dep.stats.upstream_invalidations += 1
            dep.stats.record_event(
                "upstream_invalidate", upstream=name, reason=reason
            )

    # -- hooks ----------------------------------------------------------------

    def _pre_hook(self, connection: Connection, statement: ast.Statement):
        if isinstance(statement, ast.CreateView) and statement.materialized:
            return self._handle_create(statement)
        if isinstance(statement, ast.RefreshView):
            self.refresh(statement.name)
            return Result(statement_type="REFRESH MATERIALIZED VIEW")
        if isinstance(statement, ast.DropView):
            if statement.name.lower() in self._views:
                return self._handle_drop(statement)
            return None
        if isinstance(statement, ast.Select):
            self._lazy_refresh_for_select(statement)
            return None
        return None

    def _post_hook(
        self, connection: Connection, statement: ast.Statement, result: Result
    ) -> None:
        """After a DML statement on a watched base table, apply the refresh
        policy (the capture itself happened in the AFTER triggers).

        With the ingest queue on, the pending-change accounting moves to
        drain time (:meth:`_drain_queue`) — the capture deferred the ΔT
        write, so counting here would let a refresh consume an empty ΔT
        and zero counters the queue still backs.  The synchronous pump
        below drains on the batch-size/deadline/watermark triggers when
        no background refresher owns the queue.
        """
        if not isinstance(statement, (ast.Insert, ast.Delete, ast.Update)):
            return
        table_key = statement.table.lower()
        watchers = self._watched.get(table_key, set())
        snapshot_watchers = self._snapshot_watch.get(table_key, set())
        if (not watchers and not snapshot_watchers) or result.rowcount == 0:
            return
        for view_name in sorted(snapshot_watchers):
            member = self._views.get(view_name)
            if member is not None:
                # The table only feeds the view's WHERE subquery: no ΔT
                # rows, but the pinned verdicts are stale — the next
                # refresh repairs them (or recomputes on the SQL rungs).
                member.snapshot_dirty = True
        if self._refresh_depth:
            # Statement issued by a running pipeline (e.g. a recompute
            # populate touching a snapshot-watched table): the flags are
            # set, the owning refresh finishes the work.
            return
        if self._queue is not None and self._daemon is None:
            self._runtime_pump()
        for view_name in sorted(watchers | snapshot_watchers):
            state = self._views.get(view_name)
            if state is None:
                continue
            if view_name in watchers and self._queue is None:
                state.pending_changes += result.rowcount
            mode = state.compiled.model.flags.mode
            if mode is PropagationMode.EAGER:
                self.refresh(view_name)
            elif (
                mode is PropagationMode.BATCH
                and state.pending_changes >= state.compiled.model.flags.batch_size
            ):
                self.refresh(view_name)

    # -- CREATE / DROP ---------------------------------------------------------

    def _handle_create(self, statement: ast.CreateView) -> Result:
        con = self._require_connection()
        name = statement.name
        if name.lower() in self._views:
            if statement.if_not_exists:
                return Result(statement_type="CREATE MATERIALIZED VIEW")
            raise IVMError(f"materialized view {name!r} already exists")
        if name.lower() in _referenced_tables(statement.query):
            raise DependencyCycleError(
                f"materialized view {name!r} references itself",
                cycle=(name.lower(), name.lower()),
            )
        compiler = OpenIVMCompiler(
            con.catalog, self.flags, known_views=set(self._views)
        )
        compiled = compiler.compile_query(name, statement.query)
        # Cascade protocol: bring every upstream view current and let the
        # existing readers of its feed consume (and truncate) any parked
        # feed rows first — the populate below reads the upstream's
        # stored rows directly, so feed deltas left pending would later
        # be applied on top of state that already includes them.
        for source in compiled.view_sources:
            self.refresh(source)
            feed = self.flags.cascade_delta_table(source)
            for reader in sorted(self._delta_readers.get(feed.lower(), ())):
                self.refresh(reader)
        for sql in compiled.ddl:
            con.execute(sql)
        con.execute(compiled.populate)
        for step in compiled.native_steps:
            # Build per-step persistent state from the just-populated base
            # tables: the ART-indexed join state for step 1 (rewinding any
            # ΔT rows other views left pending), the exact group-liveness
            # counters for step 3.
            step.initialize(con)
        self._register_compiled(compiled)
        if self._durability is not None:
            # Cover the freshly populated view: WAL records only carry
            # base-table deltas, so the initial state must come from a
            # checkpoint.
            self._durability.checkpoint()
        return Result(statement_type="CREATE MATERIALIZED VIEW")

    def _register_compiled(self, compiled: CompiledView) -> _ViewState:
        """Book-keeping shared by CREATE and recovery: store the script,
        parse the propagation statements once, register the view state,
        and install the capture triggers."""
        name = compiled.name
        # Register the DAG node first: the cycle check must reject the
        # view before any runtime bookkeeping is installed.
        self._dag.add_view(name, upstream=compiled.view_sources)
        self._store_script(compiled)
        prepared = [
            (label, parse_script(sql)[0]) for label, sql in compiled.propagation
        ]
        state = _ViewState(compiled=compiled, prepared=prepared)
        flags = compiled.model.flags
        state.ladder = DegradationLadder(heal_after=flags.degradation_heal_after)
        self._views[name.lower()] = state
        state.stats.dag_depth = self._dag.depth(name)
        view_sources = {source.lower() for source in compiled.view_sources}
        for base_table, delta_table in compiled.delta_tables.items():
            self._delta_readers.setdefault(delta_table.lower(), set()).add(
                name.lower()
            )
            if base_table.lower() in view_sources:
                # View-over-view source: deltas arrive through the
                # upstream's cascade feed, written by the cascade trigger
                # on the upstream's stored table.  Not in _watched — the
                # post-statement policy hook must never mistake refresh
                # writes for base DML.
                self._install_cascade_trigger(base_table, delta_table)
            else:
                self._watched.setdefault(base_table.lower(), set()).add(
                    name.lower()
                )
                self._install_capture_triggers(base_table, delta_table)
        for table in compiled.model.analysis.subquery_tables:
            self._snapshot_watch.setdefault(table.lower(), set()).add(
                name.lower()
            )
        return state

    def _handle_drop(self, statement: ast.DropView) -> Result:
        con = self._require_connection()
        name = statement.name.lower()
        dependents = self._dag.dependents(name)
        if dependents:
            raise IVMError(
                f"cannot drop materialized view {statement.name!r}: "
                f"{sorted(dependents)} are defined over it"
            )
        state = self._views.pop(name)
        compiled = state.compiled
        view_sources = {
            source.lower() for source in compiled.view_sources
        }
        for base_table, delta_table in compiled.delta_tables.items():
            if base_table.lower() in view_sources:
                # The last reader of an upstream's cascade feed takes
                # the feed table and the capture trigger with it.
                readers = self._delta_readers.get(delta_table.lower())
                if readers:
                    readers.discard(name)
                    if not readers:
                        del self._delta_readers[delta_table.lower()]
                        con.triggers.unregister(
                            f"__ivm_cascade_{base_table.lower()}"
                        )
                        con.execute(f"DROP TABLE IF EXISTS {delta_table}")
                continue
            watchers = self._watched.get(base_table.lower())
            if watchers:
                watchers.discard(name)
                if not watchers:
                    del self._watched[base_table.lower()]
                    con.triggers.unregister(f"__ivm_capture_{base_table.lower()}")
            readers = self._delta_readers.get(delta_table.lower())
            if readers:
                readers.discard(name)
                if not readers:
                    del self._delta_readers[delta_table.lower()]
                    con.execute(f"DROP TABLE IF EXISTS {delta_table}")
        for table in compiled.model.analysis.subquery_tables:
            snapshot_watchers = self._snapshot_watch.get(table.lower())
            if snapshot_watchers:
                snapshot_watchers.discard(name)
                if not snapshot_watchers:
                    del self._snapshot_watch[table.lower()]
        self._dag.remove_view(name)
        con.execute(f"DROP TABLE IF EXISTS {compiled.delta_view_table}")
        con.execute(f"DROP TABLE IF EXISTS {compiled.name}")
        con.execute(
            "DELETE FROM _duckdb_ivm_views WHERE view_name = ?",
            [compiled.name],
        )
        return Result(statement_type="DROP MATERIALIZED VIEW")

    # -- delta capture ------------------------------------------------------

    def _install_capture_triggers(self, base_table: str, delta_table: str) -> None:
        """AFTER triggers writing changed rows (with multiplicity) to ΔT.

        This is the same mechanism the paper leaves to the user on
        PostgreSQL; inside the extension it is installed automatically,
        playing the role of the DuckDB optimizer rule.
        """
        con = self._require_connection()
        trigger_name = f"__ivm_capture_{base_table.lower()}"
        if trigger_name in con.triggers.triggers_on(base_table):
            return
        delta = con.table(delta_table)

        def capture(connection: Connection, event: str, table: str, rows) -> None:
            delta_rows = delta_capture_rows(event, rows)
            if self._queue is not None:
                # Async ingestion: park the batch in the bounded queue;
                # WAL + ΔT happen at drain time.  The base mutation has
                # already been applied (AFTER trigger), so a rejected or
                # fault-injected enqueue flags the watching views for
                # recompute before the error surfaces — shed load costs
                # refresh work, never correctness.
                try:
                    self._queue.enqueue(base_table, delta_rows)
                except BackpressureError:
                    self._mark_watchers_recompute(
                        base_table, "shed", "backpressure"
                    )
                    raise
                except Exception as error:
                    self._mark_watchers_recompute(
                        base_table, "capture_failure", type(error).__name__
                    )
                    raise
                return
            try:
                if self._durability is not None:
                    # Write-ahead: the signed rows hit the log (and, with
                    # wal_sync, the disk) before they reach ΔT, so a crash
                    # after this point replays them instead of losing them.
                    self._durability.log_delta(base_table, delta_rows)
                # One columnar append per statement (delta tables have no
                # indexes, so this is a straight block extend).
                delta.insert_batch(delta_rows, coerce=False)
            except Exception as error:
                # Fault containment: the base rows are in, the delta is
                # not — the views can no longer trust propagation, so
                # flag them for the recompute self-heal and re-raise.
                self._mark_watchers_recompute(
                    base_table, "capture_failure", type(error).__name__
                )
                raise

        for event in ("INSERT", "DELETE", "UPDATE"):
            con.triggers.register(trigger_name, base_table, event, capture)

    def _install_cascade_trigger(self, upstream: str, feed_table: str) -> None:
        """AFTER triggers on an upstream materialized view's stored table,
        writing its refresh-applied row changes (with multiplicity) into
        the shared cascade feed ``delta_<view>__out`` — the downstream
        views' ΔT.  One feed per upstream, shared by all dependents,
        exactly like a base table's shared ΔT.

        Unlike the base-table capture path this bypasses both the WAL and
        the ingest queue on purpose: feed rows are *derived* state — a
        recovery regenerates them by refreshing the DAG in topological
        order — and routing them through the base-table queue would
        re-order them against the refresh that produced them.
        """
        con = self._require_connection()
        trigger_name = f"__ivm_cascade_{upstream.lower()}"
        if trigger_name in con.triggers.triggers_on(upstream):
            return
        feed = con.table(feed_table)
        feed_key = feed_table.lower()

        def capture(connection: Connection, event: str, table: str, rows) -> None:
            delta_rows = delta_capture_rows(event, rows)
            if not delta_rows:
                return
            feed.insert_batch(delta_rows, coerce=False)
            for reader in self._delta_readers.get(feed_key, ()):
                member = self._views.get(reader)
                if member is not None:
                    member.pending_changes += len(delta_rows)

        for event in ("INSERT", "DELETE", "UPDATE"):
            con.triggers.register(trigger_name, upstream, event, capture)

    # -- lazy refresh -----------------------------------------------------------

    def _lazy_refresh_for_select(self, statement: ast.Select) -> None:
        referenced = _referenced_tables(statement)
        if self._queue is not None and any(
            name in self._views for name in referenced
        ):
            # Deltas still parked in the ingest queue are invisible to
            # the pending counters; a lazy read must see them.
            self._drain_queue()
        for name in sorted(referenced):
            state = self._views.get(name)
            if state is None:
                continue
            upstream_stale = any(
                self._is_stale(self._views[upstream])
                for upstream in self._dag.upstream_closure(name)
                if upstream in self._views
            )
            if state.needs_recompute or state.snapshot_dirty or upstream_stale:
                # Repair before the read regardless of mode: a shed or
                # contained capture failure (or a stale upstream whose
                # deltas have not cascaded down yet, or a moved subquery
                # snapshot) left the view behind, and no future DML is
                # guaranteed.
                self.refresh(state.compiled.name)
            elif (
                state.pending_changes
                and state.compiled.model.flags.mode
                is not PropagationMode.EAGER
            ):
                self.refresh(state.compiled.name)

    # -- script store ---------------------------------------------------------

    def _store_script(self, compiled: CompiledView) -> None:
        if self.script_dir is None:
            return
        self.script_dir.mkdir(parents=True, exist_ok=True)
        path = self.script_dir / f"{compiled.name}.sql"
        path.write_text(compiled.script() + "\n", encoding="utf-8")

    def _require_connection(self) -> Connection:
        if self._connection is None:
            raise IVMError("extension is not loaded; call load_ivm(connection)")
        return self._connection

    # -- the async ingestion runtime ----------------------------------------

    @property
    def queue(self) -> IngestQueue | None:
        """The bounded ingest queue, or None when
        ``CompilerFlags.ingest_queue`` is off."""
        return self._queue

    def _drain_queue(self) -> None:
        """Move every queued delta batch to WAL + ΔT and update the
        pending counters — the single funnel between the async capture
        path and the refresh pipeline.

        A batch that fails to land (WAL fault, ΔT error) marks its
        watchers ``needs_recompute`` and is dropped — its base rows are
        already applied, so the recompute self-heal converges the views;
        the remaining batches still land.  The first error is re-raised
        after the drain completes.
        """
        if self._queue is None or self._queue.depth() == 0:
            return
        con = self._require_connection()
        with self._runtime_lock:
            batches = self._queue.drain()
            first_error: Exception | None = None
            for batch in batches:
                try:
                    if self._durability is not None:
                        self._durability.log_delta(batch.table, batch.rows)
                    delta_name = self.flags.delta_table(batch.table)
                    con.table(delta_name).insert_batch(
                        batch.rows, coerce=False
                    )
                except Exception as error:
                    self._mark_watchers_recompute(
                        batch.table, "drain_failure", type(error).__name__
                    )
                    if first_error is None:
                        first_error = error
                    continue
                for watcher in self._watched.get(batch.table.lower(), ()):
                    member = self._views.get(watcher)
                    if member is not None:
                        member.pending_changes += len(batch.rows)
            if first_error is not None:
                raise first_error

    def _runtime_pump(self, force: bool = False) -> None:
        """The synchronous refresher: drain when a trigger is due —
        queued rows past the batch size (BATCH mode), the oldest batch
        past ``queue_deadline``, or the high watermark crossed."""
        if self._queue is None:
            return
        batch_rows = (
            self.flags.batch_size
            if self.flags.mode is PropagationMode.BATCH
            else 0
        )
        if force or self._queue.drain_due(batch_rows, self.flags.queue_deadline):
            self._drain_queue()

    def _daemon_pump(self) -> None:
        """The background refresher's tick (``queue_async``): same
        triggers as the synchronous pump, on the daemon thread."""
        self._runtime_pump()

    def _mark_watchers_recompute(
        self, base_table: str, kind: str, reason: str
    ) -> None:
        """Flag every view watching ``base_table`` for the recompute
        self-heal and record the structured event."""
        for watcher in self._watched.get(base_table.lower(), ()):
            member = self._views.get(watcher)
            if member is None:
                continue
            member.needs_recompute = True
            member.stats.record_event(kind, table=base_table, reason=reason)

    def health(self) -> dict:
        """The live health report (the ``openivm health`` CLI shape):
        per-view recompute/degradation status, ingest-queue counters,
        durability facts, and the fault plan's firing counts."""
        report: dict[str, Any] = {
            "views": [],
            "queue": None if self._queue is None else self._queue.snapshot(),
            "durability": None,
            "faults": None,
        }
        for name in self.views():
            state = self._views[name]
            ladder = state.ladder
            report["views"].append(
                {
                    "view": state.compiled.name,
                    "pending_changes": state.pending_changes,
                    "needs_recompute": state.needs_recompute,
                    "rung": ladder.rung,
                    "rung_name": ladder.rung_name,
                    "demotions": ladder.demotions,
                    "heals": ladder.heals,
                    "refresh_count": state.refresh_count,
                    "depth": self._dag.depth(name),
                    "upstreams": sorted(self._dag.upstream(name)),
                    "dependents": sorted(self._dag.dependents(name)),
                    "upstream_invalidations": (
                        state.stats.upstream_invalidations
                    ),
                    "snapshot_dirty": state.snapshot_dirty,
                    "recent_events": [
                        dict(event) for event in state.stats.events[-8:]
                    ],
                }
            )
        if self._durability is not None:
            report["durability"] = {
                "directory": str(self._durability.directory),
                "wal_last_lsn": self._durability.wal.last_lsn,
                "checkpoint_failures": self._durability.checkpoint_failures,
            }
        if self.flags.fault_plan is not None:
            report["faults"] = self.flags.fault_plan.snapshot()
        return report


def load_ivm(
    connection: Connection,
    flags: CompilerFlags | None = None,
    script_dir: str | pathlib.Path | None = None,
    durability_dir: str | pathlib.Path | None = None,
) -> IVMExtension:
    """Load the OpenIVM extension into ``connection`` (like DuckDB LOAD)."""
    extension = IVMExtension(
        flags=flags, script_dir=script_dir, durability_dir=durability_dir
    )
    extension.register(connection)
    return extension


def _clear_step_pendings(step) -> None:
    """Drop per-round batches a failed refresh may have left half-consumed
    (step-1 pushes to the liveness/extrema steps, touched-key lists)."""
    for attr in ("pending", "pending_keys", "pending_touched"):
        value = getattr(step, attr, None)
        if isinstance(value, list):
            value.clear()
    sources = getattr(step, "sources", None)
    if isinstance(sources, dict):
        for source in sources.values():
            source.pending.clear()


def _referenced_tables(statement: ast.Select) -> set[str]:
    """All base-table names referenced anywhere in a SELECT (lowercased)."""
    names: set[str] = set()

    def visit_select(select: ast.Select) -> None:
        for cte in select.ctes:
            visit_select(cte.query)
        if select.from_clause is not None:
            visit_ref(select.from_clause)
        for _, right in select.set_ops:
            visit_select(right)

    def visit_ref(ref: ast.TableRef) -> None:
        if isinstance(ref, ast.BaseTableRef):
            names.add(ref.name.lower())
        elif isinstance(ref, ast.SubqueryRef):
            visit_select(ref.query)
        elif isinstance(ref, ast.JoinRef):
            visit_ref(ref.left)
            visit_ref(ref.right)

    visit_select(statement)
    return names

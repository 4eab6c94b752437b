"""Span tracing applied from outside the program, for the per-layer run.

``Tracer.install()`` replaces the public functions of each ``repro``
module with wrappers that record a span (name, start, end, parent, cycle
id) around every call; ``uninstall()`` puts the originals back.  Nothing
under ``src/`` knows about it.  Spans stay in memory until the workload
ends; ``layer_metrics`` folds them into the per-layer numbers and
``write_jsonl`` dumps them for inspection.

A layer's *self time* is its span's duration minus its child spans'.
"""

from __future__ import annotations

import json
import time
from collections import Counter

_DML = ("Insert", "Update", "Delete")
_REFRESH = ("extension.refresh", "extension.refresh_all")
_KERNELS = (
    "batch_aggregate",
    "batch_filter",
    "batch_signed_collapse",
    "batch_union_regroup",
)
STEPS = ("step1", "step2", "step2b", "step3", "step4")
# Layer metrics cover the timed window (spans with a cycle id), except
# for what only happens outside it: view compilation and recovery.
_OUTSIDE_WINDOW = ("core.compile", "storage.recover")


class Tracer:
    def __init__(self) -> None:
        # Parallel lists, one entry per span, in start order.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cycles: list[int] = []
        self.tags: list[str | None] = []
        self.counts: Counter = Counter()
        self.step_seconds: Counter = Counter()
        self.cycle = -1  # set by the harness; -1 outside the timed loop
        self._open: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, tag=None, before=None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tag(*args)`` labels the span; ``before(*args)`` returns a token
        and ``after(token, args, result)`` runs on a clean return — the
        count hooks, kept at the same boundary as the span.  Hooks run
        for the outermost span of a name only, so a batch that
        ``upsert_batch`` hands on to ``insert_batch`` counts once."""
        call = getattr(owner, attr)
        names, starts, ends = self.names, self.starts, self.ends
        parents, cycles, tags, open_ = self.parents, self.cycles, self.tags, self._open
        clock = time.perf_counter
        depth = self._depth

        def wrapper(*args, **kwargs):
            outermost = not depth[name]
            index = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            cycles.append(self.cycle)
            tags.append(tag(*args) if tag is not None else None)
            starts.append(0.0)
            ends.append(0.0)
            token = before(*args) if before is not None else None
            open_.append(index)
            depth[name] += 1
            starts[index] = clock()
            try:
                result = call(*args, **kwargs)
            finally:
                ends[index] = clock()
                depth[name] -= 1
                open_.pop()
            if after is not None and outermost:
                after(token, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, call))

    def install(self) -> None:
        """Wrap the layer boundaries.  Call before the connection is
        created: the extension registers its hooks as bound methods."""
        import repro.core.batched as batched
        import repro.core.sharded as sharded
        import repro.engine.connection as connection
        import repro.execution.executor as executor
        import repro.extension.ivm_extension as extension
        import repro.storage.checkpoint as checkpoint
        from repro.core.compiler import OpenIVMCompiler
        from repro.core.propagate import RefreshStats
        from repro.core.runtime import IngestQueue
        from repro.engine.triggers import TriggerManager
        from repro.planner.binder import Binder
        from repro.planner.optimizer import Optimizer
        from repro.storage.table import Table
        from repro.storage.wal import WriteAheadLog

        counts = self.counts
        wrap = self._wrap

        def add(key, amount_of, always=False):
            def after(_token, args, result):
                if always or self.cycle >= 0:
                    counts[key] += amount_of(args, result)

            return after

        # sql
        for module in (connection, extension):
            wrap(module, "parse_script", "sql.parse")
        # planner
        wrap(Binder, "bind_select", "planner.bind")
        wrap(Binder, "bind_scalar", "planner.bind")
        wrap(Optimizer, "optimize", "planner.optimize")
        # execution (connection bound the name at import; batched looks
        # it up in the executor module at call time)
        rows_out = add("execution.rows_out", lambda args, result: len(result))
        wrap(connection, "execute_plan", "execution.execute_plan", after=rows_out)
        wrap(executor, "execute_plan", "execution.execute_plan", after=rows_out)
        # engine
        Connection = connection.Connection
        wrap(Connection, "execute", "engine.execute")
        wrap(
            Connection,
            "execute_statement",
            "engine.statement",
            tag=lambda _self, statement, *rest: type(statement).__name__,
        )
        wrap(
            Table,
            "scan_with_ids",
            "engine.dml_scan",
            after=add("engine.dml_scan_rows", lambda args, result: len(args[0])),
        )
        wrap(
            TriggerManager,
            "fire",
            "engine.trigger_fire",
            after=add("engine.trigger_rows", lambda args, result: len(args[4])),
        )
        wrap(Connection, "begin_table_snapshot", "engine.snapshot")
        wrap(Connection, "commit_table_snapshot", "engine.snapshot")
        # extension
        IVMExtension = extension.IVMExtension
        wrap(IVMExtension, "refresh", "extension.refresh")
        wrap(IVMExtension, "refresh_all", "extension.refresh_all")
        # core
        wrap(OpenIVMCompiler, "compile", "core.compile")
        wrap(OpenIVMCompiler, "compile_query", "core.compile")
        wrap(extension, "run_pipeline", "core.pipeline")

        def round_done(_token, args, _result):
            if self.cycle < 0:
                return
            stats, _wall, rows_in = args[0], args[1], args[2]
            counts["core.rows_in"] += rows_in
            counts["core.rows_moved"] += stats.last_rows_moved
            self.step_seconds.update(stats.last_step_seconds)

        wrap(RefreshStats, "finish_round", "core.finish_round", after=round_done)

        def blocked_before(queue, *_):
            return queue.counters["blocked_enqueues"]

        def blocked_after(token, args, _result):
            queue, rows = args[0], args[2]
            if self.cycle >= 0 and queue.counters["blocked_enqueues"] > token:
                counts["core.queue_blocked_rows"] += len(rows)

        wrap(
            IngestQueue, "enqueue", "core.queue_enqueue",
            before=blocked_before, after=blocked_after,
        )
        wrap(IngestQueue, "drain", "core.queue_drain")
        # zset kernels, as bound in the two modules that call them
        for module in (batched, sharded):
            for kernel in _KERNELS:
                if hasattr(module, kernel):
                    wrap(module, kernel, "zset.kernel")
        # storage
        batch_rows = add(
            "storage.insert_batch_rows", lambda args, result: len(args[1])
        )
        wrap(Table, "insert_batch", "storage.insert_batch", after=batch_rows)
        wrap(Table, "upsert_batch", "storage.insert_batch", after=batch_rows)
        wrap(Connection, "upsert_rows", "storage.upsert_rows")
        wrap(Connection, "delete_keys", "storage.delete_keys")
        wrap(
            Connection,
            "read_delta_batch",
            "storage.read_delta",
            tag=lambda _self, table: "feed" if table.endswith("__out") else None,
            after=add(
                "core.cascade_feed_rows",
                lambda args, result: len(result) if args[1].endswith("__out") else 0,
            ),
        )
        wrap(WriteAheadLog, "append", "storage.wal_append")
        wrap(checkpoint.DurabilityManager, "checkpoint", "storage.checkpoint")
        wrap(checkpoint, "recover_connection", "storage.recover")
        wrap(
            checkpoint,
            "read_records",
            "storage.read_records",
            after=add(
                "storage.recover_rows",
                lambda args, result: sum(len(r.rows) for r in result[0]),
                always=True,
            ),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding spans into layer metrics ------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        names, parents, tags = self.names, self.parents, self.tags
        duration = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        # Ancestor sets per span, built in one pass: parents start first.
        inside: list[frozenset] = []
        for i, parent in enumerate(parents):
            if parent < 0:
                inside.append(frozenset())
            else:
                child_time[parent] += duration[i]
                inside.append(inside[parent] | {names[parent]})
        total: Counter = Counter()  # outermost spans of each name
        calls: Counter = Counter()
        out: Counter = Counter()
        checkpoint_in_refresh = 0.0
        for i, name in enumerate(names):
            if name in inside[i]:
                continue  # nested in a span of its own name
            if self.cycles[i] < 0 and name not in _OUTSIDE_WINDOW:
                continue
            span, own = duration[i], duration[i] - child_time[i]
            total[name] += span
            calls[name] += 1
            in_refresh = any(r in inside[i] for r in _REFRESH)
            if name == "engine.statement":
                if tags[i] in _DML and not in_refresh:
                    out["engine.dml_self_s"] += own
                if "core.pipeline" in inside[i]:
                    out["core.sql_fallback_stmts"] += 1
            elif name == "engine.trigger_fire":
                if in_refresh:
                    out["core.cascade_feed_s"] += span
                else:
                    out["extension.capture_s"] += own
            elif name in _REFRESH and not in_refresh:
                out["extension.refresh_s"] += span
                out["extension.refresh_calls"] += 1
                if "engine.statement" in inside[i]:
                    out["extension.lazy_refresh_s"] += span
            elif name == "storage.read_delta" and tags[i] == "feed":
                out["core.cascade_hops"] += 1
            elif name == "storage.checkpoint" and in_refresh:
                # The periodic checkpoint runs at the end of a refresh.
                checkpoint_in_refresh += span
        out["extension.refresh_self_s"] = (
            out["extension.refresh_s"] - total["core.pipeline"] - checkpoint_in_refresh
        )
        for metric, span_name in (
            ("sql.parse_s", "sql.parse"),
            ("planner.bind_s", "planner.bind"),
            ("planner.optimize_s", "planner.optimize"),
            ("execution.execute_plan_s", "execution.execute_plan"),
            ("engine.execute_s", "engine.execute"),
            ("engine.trigger_fire_s", "engine.trigger_fire"),
            ("engine.snapshot_commit_s", "engine.snapshot"),
            ("core.compile_s", "core.compile"),
            ("core.pipeline_s", "core.pipeline"),
            ("core.queue_enqueue_s", "core.queue_enqueue"),
            ("core.queue_drain_s", "core.queue_drain"),
            ("zset.kernel_s", "zset.kernel"),
            ("storage.insert_batch_s", "storage.insert_batch"),
            ("storage.upsert_rows_s", "storage.upsert_rows"),
            ("storage.delete_keys_s", "storage.delete_keys"),
            ("storage.read_delta_s", "storage.read_delta"),
            ("storage.wal_append_s", "storage.wal_append"),
            ("storage.checkpoint_s", "storage.checkpoint"),
            ("storage.recover_replay_s", "storage.recover"),
        ):
            out[metric] = total[span_name]
        for metric, span_name in (
            ("sql.parse_calls", "sql.parse"),
            ("engine.statements", "engine.execute"),
            ("zset.kernel_calls", "zset.kernel"),
            ("storage.wal_appends", "storage.wal_append"),
            ("storage.checkpoints", "storage.checkpoint"),
        ):
            out[metric] = calls[span_name]
        for step in STEPS:
            out[f"core.{step}_s"] = self.step_seconds[step]
        out.update(self.counts)
        out["bench.spans"] = len(names)
        return dict(out)

    def self_time_by_layer(self) -> dict[str, float]:
        """Self seconds per layer (the span name's prefix) inside the
        timed window, for the split the README quotes."""
        duration = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(duration)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= duration[i]
        layers: Counter = Counter()
        for name, seconds, cycle in zip(self.names, own, self.cycles):
            if cycle >= 0:
                layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                span = {
                    "id": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "cycle": self.cycles[i],
                }
                if self.tags[i] is not None:
                    span["tag"] = self.tags[i]
                handle.write(json.dumps(span) + "\n")

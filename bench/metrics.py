"""Metric tables: names, units, and the interaction map.

``BENCHMARK.json`` carries the same names and units (the contract test
keeps the two in step).  ``LAYER_METRICS`` additionally records, for each
per-layer metric, which end-to-end metric it should move on which
workload — written down before measuring, so that a later change can
be checked against the prediction instead of explained afterwards.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "write_to_fresh_ms_p50": ("ms", "lower"),
    "write_to_fresh_ms_p95": ("ms", "lower"),
    "write_stmt_ms_p50": ("ms", "lower"),
    "write_stmt_ms_p95": ("ms", "lower"),
    "view_read_ms_p50": ("ms", "lower"),
    "ingest_rows_per_s": ("rows/s", "higher"),
    "refresh_vs_recompute_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_ALL = ("oltp_trickle", "batch_refresh", "cascade_dag", "durable_ingest")


def _on(metric: str, *workloads: str) -> list[tuple[str, str]]:
    return [(metric, workload) for workload in workloads]


# name -> (unit, [(end-to-end metric it should move, workload), ...])
LAYER_METRICS = {
    "sql.parse_s": ("s", _on("write_stmt_ms_p50", "oltp_trickle")),
    "sql.parse_calls": ("count", _on("write_stmt_ms_p50", "oltp_trickle")),
    "planner.bind_s": (
        "s",
        _on("write_to_fresh_ms_p50", "oltp_trickle")
        + _on("view_read_ms_p50", "oltp_trickle"),
    ),
    "planner.optimize_s": (
        "s",
        _on("write_to_fresh_ms_p50", "oltp_trickle")
        + _on("view_read_ms_p50", "oltp_trickle"),
    ),
    "execution.execute_plan_s": (
        "s",
        _on("view_read_ms_p50", *_ALL) + _on("refresh_vs_recompute_ratio", *_ALL),
    ),
    "execution.rows_out": ("rows", _on("view_read_ms_p50", *_ALL)),
    "engine.execute_s": ("s", _on("ingest_rows_per_s", "oltp_trickle")),
    "engine.statements": ("count", _on("ingest_rows_per_s", "oltp_trickle")),
    "engine.dml_self_s": (
        "s",
        _on("write_stmt_ms_p95", "oltp_trickle")
        + _on("write_to_fresh_ms_p95", "oltp_trickle"),
    ),
    "engine.dml_scan_rows": (
        "rows",
        _on("write_stmt_ms_p95", "oltp_trickle")
        + _on("write_to_fresh_ms_p95", "oltp_trickle"),
    ),
    "engine.trigger_fire_s": ("s", _on("write_stmt_ms_p50", *_ALL)),
    "engine.trigger_rows": ("rows", _on("write_stmt_ms_p50", *_ALL)),
    "engine.snapshot_commit_s": ("s", _on("write_to_fresh_ms_p50", "cascade_dag")),
    "extension.capture_s": (
        "s", _on("write_stmt_ms_p50", "oltp_trickle", "durable_ingest")
    ),
    "extension.lazy_refresh_s": ("s", _on("write_to_fresh_ms_p50", *_ALL)),
    "extension.refresh_s": ("s", _on("write_to_fresh_ms_p50", *_ALL)),
    "extension.refresh_calls": ("count", _on("write_to_fresh_ms_p50", *_ALL)),
    "extension.refresh_self_s": (
        "s", _on("write_to_fresh_ms_p50", "oltp_trickle", "cascade_dag")
    ),
    "core.compile_s": ("s", _on("setup_s", *_ALL)),
    "core.pipeline_s": (
        "s",
        _on("write_to_fresh_ms_p50", "batch_refresh")
        + _on("refresh_vs_recompute_ratio", "batch_refresh"),
    ),
    **{
        f"core.{step}_s": (
            "s",
            _on("write_to_fresh_ms_p50", "batch_refresh")
            + _on("refresh_vs_recompute_ratio", "batch_refresh"),
        )
        for step in ("step1", "step2", "step2b", "step3", "step4")
    },
    "core.rows_in": ("rows", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "core.rows_moved": ("rows", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "core.sql_fallback_stmts": ("count", _on("write_to_fresh_ms_p50", *_ALL)),
    "core.cascade_feed_s": ("s", _on("write_to_fresh_ms_p50", "cascade_dag")),
    "core.cascade_feed_rows": ("rows", _on("write_to_fresh_ms_p50", "cascade_dag")),
    "core.cascade_hops": ("count", _on("write_to_fresh_ms_p50", "cascade_dag")),
    "core.queue_enqueue_s": (
        "s",
        _on("write_stmt_ms_p50", "durable_ingest")
        + _on("ingest_rows_per_s", "durable_ingest"),
    ),
    "core.queue_drain_s": (
        "s",
        _on("write_stmt_ms_p50", "durable_ingest")
        + _on("ingest_rows_per_s", "durable_ingest"),
    ),
    "core.queue_depth_max": ("rows", _on("write_stmt_ms_p95", "durable_ingest")),
    "core.queue_blocked_rows": ("rows", _on("write_stmt_ms_p95", "durable_ingest")),
    "zset.kernel_s": ("s", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "zset.kernel_calls": ("count", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "storage.insert_batch_s": ("s", _on("write_stmt_ms_p50", "batch_refresh")),
    "storage.insert_batch_rows": ("rows", _on("write_stmt_ms_p50", "batch_refresh")),
    "storage.upsert_rows_s": ("s", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "storage.delete_keys_s": ("s", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "storage.read_delta_s": ("s", _on("write_to_fresh_ms_p50", "batch_refresh")),
    "storage.wal_append_s": ("s", _on("write_stmt_ms_p50", "durable_ingest")),
    "storage.wal_appends": ("count", _on("write_stmt_ms_p50", "durable_ingest")),
    "storage.wal_bytes": ("bytes", _on("write_stmt_ms_p50", "durable_ingest")),
    "storage.checkpoint_s": ("s", _on("write_to_fresh_ms_p95", "durable_ingest")),
    "storage.checkpoints": ("count", _on("write_to_fresh_ms_p95", "durable_ingest")),
    "storage.checkpoint_bytes": (
        "bytes", _on("write_to_fresh_ms_p95", "durable_ingest")
    ),
    "storage.durable_bytes_per_row": ("bytes/row", []),
    "storage.recover_s": ("s", []),
    "storage.recover_replay_s": ("s", []),
    "storage.recover_rows": ("rows", []),
    "bench.trace_overhead_share": ("share", []),
    "bench.cycles": ("count", []),
    "bench.spans": ("count", []),
}

"""End-to-end tests of the ingest queue wired into the extension: DML
capture enqueues instead of writing ΔT synchronously, refresh/SELECT
drain first, the synchronous pump honors the batch-size/deadline
triggers, shed load self-heals through recompute, the queue counters
surface through RefreshStats, and the background refresher daemon
converges without explicit refreshes."""

from __future__ import annotations

import time

import pytest

import shutil

from repro import CompilerFlags, Connection, PropagationMode, load_ivm
from repro.errors import BackpressureError, ReproError
from tests.conftest import assert_view_matches

VIEW = (
    "CREATE MATERIALIZED VIEW q AS "
    "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
)
RECOMPUTE = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"


def _setup(ivm_con, **flags):
    flags.setdefault("ingest_queue", True)
    con, ext = ivm_con(**flags)
    con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
    con.execute(VIEW)
    return con, ext


class TestQueueCapture:
    def test_dml_parks_in_queue_until_refresh(self, ivm_con):
        con, ext = _setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        assert ext.queue is not None
        assert ext.queue.depth() == 2
        # ΔT is still empty — the capture deferred the write.
        delta = ext.flags.delta_table("t")
        assert con.execute(f"SELECT COUNT(*) FROM {delta}").rows[0][0] == 0
        assert ext.view_state("q").pending_changes == 0
        ext.refresh("q")
        assert ext.queue.depth() == 0
        assert_view_matches(con, RECOMPUTE, "q")

    def test_select_on_view_drains_the_queue(self, ivm_con):
        con, ext = _setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 2)")
        assert ext.queue.depth() == 3
        rows = con.execute("SELECT g, s, n FROM q ORDER BY g").rows
        assert rows == [("a", 4, 2), ("b", 2, 1)]
        assert ext.queue.depth() == 0

    def test_deletes_count_as_retractions(self, ivm_con):
        con, ext = _setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 3)")
        ext.refresh("q")
        con.execute("DELETE FROM t WHERE v = 1")
        (batch,) = ext.queue.drain()
        # A delete is queued as one row with FALSE multiplicity.
        assert [row[-1] for row in batch.rows] == [False]
        # Re-land what we drained by hand so the view still converges.
        ext.queue.enqueue(batch.table, batch.rows)
        ext.refresh("q")
        assert_view_matches(con, RECOMPUTE, "q")
        assert ext.view_state("q").stats.snapshot()["queue"] is not None

    def test_refresh_all_drains_first(self, ivm_con):
        con, ext = _setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 1)")
        assert ext.queue.depth() == 1
        ext.refresh_all()
        assert ext.queue.depth() == 0
        assert_view_matches(con, RECOMPUTE, "q")


class TestSynchronousPump:
    def test_batch_mode_drains_and_refreshes_at_batch_size(self, ivm_con):
        con, ext = _setup(
            ivm_con, mode=PropagationMode.BATCH, batch_size=3
        )
        con.execute("INSERT INTO t VALUES ('a', 1)")
        con.execute("INSERT INTO t VALUES ('b', 2)")
        assert ext.queue.depth() == 2  # below the trigger: still parked
        assert ext.view_state("q").refresh_count == 0
        con.execute("INSERT INTO t VALUES ('a', 3)")
        # Third row hit batch_size: the pump drained and the BATCH
        # policy refreshed off the drained pending counter.
        assert ext.queue.depth() == 0
        assert ext.view_state("q").refresh_count == 1
        assert_view_matches(con, RECOMPUTE, "q")

    def test_deadline_trigger_drains_old_batches(self, ivm_con):
        con, ext = _setup(ivm_con, queue_deadline=0.01)
        con.execute("INSERT INTO t VALUES ('a', 1)")
        assert ext.queue.depth() == 1
        time.sleep(0.03)
        # Any later watched-table DML runs the pump; the parked batch is
        # past its deadline, so both land in ΔT.
        con.execute("INSERT INTO t VALUES ('b', 2)")
        assert ext.queue.depth() in (0, 1)  # the new row may re-park
        assert ext.view_state("q").pending_changes >= 1
        ext.refresh("q")
        assert_view_matches(con, RECOMPUTE, "q")

    def test_eager_mode_with_queue_stays_fresh(self, ivm_con):
        con, ext = _setup(ivm_con, mode=PropagationMode.EAGER)
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        con.execute("DELETE FROM t WHERE g = 'a'")
        # EAGER refresh drains at the top of every refresh() call.
        assert ext.queue.depth() == 0
        assert_view_matches(con, RECOMPUTE, "q")


class TestShedSelfHeal:
    def test_shed_marks_views_and_select_recomputes(self, ivm_con):
        con, ext = _setup(
            ivm_con, queue_capacity=4, queue_policy="shed"
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 2)")
        with pytest.raises(BackpressureError):
            con.execute(
                "INSERT INTO t VALUES ('b', 1), ('b', 2), ('b', 3)"
            )
        state = ext.view_state("q")
        assert state.needs_recompute is True
        events = state.stats.events_of("shed")
        assert events and events[-1]["table"] == "t"
        # The base rows landed even though the capture shed; the lazy
        # read repairs through a full recompute.
        rows = con.execute("SELECT g, s, n FROM q ORDER BY g").rows
        assert rows == [("a", 3, 2), ("b", 6, 3)]
        assert state.needs_recompute is False
        assert state.stats.events_of("recompute")
        assert ext.queue.counters["shed_batches"] == 1

    def test_coalesce_absorbs_churn_without_shedding(self, ivm_con):
        # high_watermark=1.0 keeps the pump from draining the parked
        # inserts before the deletes arrive to cancel them; capacity 8
        # makes the 6+6-row joint batch overflow into the coalesce path.
        con, ext = _setup(
            ivm_con,
            queue_capacity=8,
            queue_policy="coalesce",
            queue_high_watermark=1.0,
            queue_low_watermark=0.5,
        )
        con.execute(
            "INSERT INTO t VALUES ('a', 1), ('a', 2), ('a', 3), "
            "('a', 4), ('a', 5), ('a', 6)"
        )
        # Deleting them all cancels in-queue: no overflow, no shed.
        con.execute("DELETE FROM t")
        assert ext.queue.depth() == 0
        assert ext.queue.counters["coalesced_rows"] == 12
        assert ext.view_state("q").needs_recompute is False
        assert con.execute("SELECT COUNT(*) FROM q").rows[0][0] == 0


    def test_block_policy_inline_drains_on_overflow(self, ivm_con):
        con, ext = _setup(
            ivm_con,
            queue_capacity=4,
            queue_policy="block",
            queue_high_watermark=1.0,
            queue_low_watermark=0.5,
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('a', 2), ('a', 3)")
        assert ext.queue.depth() == 3
        # The next 3-row batch overflows; with no background drainer the
        # writer pays for the drain inline — a typed error is never
        # raised on the block path.
        con.execute("INSERT INTO t VALUES ('b', 1), ('b', 2), ('b', 3)")
        assert ext.queue.counters["inline_drains"] >= 1
        assert ext.queue.counters["shed_batches"] == 0
        assert ext.view_state("q").needs_recompute is False
        # The drained rows reached ΔT; the parked ones follow on refresh.
        assert ext.view_state("q").pending_changes == 3
        ext.refresh("q")
        assert_view_matches(con, RECOMPUTE, "q")

    def test_shed_error_is_typed(self, ivm_con):
        con, ext = _setup(ivm_con, queue_capacity=2, queue_policy="shed")
        with pytest.raises(BackpressureError) as exc_info:
            con.execute("INSERT INTO t VALUES ('a', 1), ('a', 2), ('a', 3)")
        # The typed hierarchy, not a bare RuntimeError: callers can
        # catch engine errors without blanket except clauses.
        assert isinstance(exc_info.value, ReproError)
        assert not type(exc_info.value) is RuntimeError


class TestRecoveryUnderLoad:
    """``Connection.recover`` replay while the ingest queue still holds
    undrained batches: queued deltas are not yet durable (WAL lands at
    drain time), so a crash loses them — but the recovered engine must
    be internally consistent, and a graceful shutdown drains first so
    nothing is lost."""

    def _engine(self, directory):
        con = Connection()
        ext = load_ivm(
            con,
            CompilerFlags(
                mode=PropagationMode.LAZY,
                durability=True,
                ingest_queue=True,
                queue_capacity=64,
                queue_high_watermark=1.0,
                queue_low_watermark=0.5,
            ),
            durability_dir=directory,
        )
        con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
        con.execute(VIEW)
        return con, ext

    def test_crash_with_undrained_queue_recovers_consistently(self, tmp_path):
        directory = tmp_path / "dur"
        con, ext = self._engine(directory)
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)")
        ext.refresh("q")  # drains: these three rows are WAL-durable
        con.execute("INSERT INTO t VALUES ('c', 4), ('c', 5)")
        assert ext.queue.depth() == 2  # parked, not yet durable
        # Simulated crash: snapshot the directory while batches are
        # still queued (the live engine keeps running).
        crash_dir = tmp_path / "crash"
        shutil.copytree(directory, crash_dir)
        recovered = Connection.recover(crash_dir)
        # The parked rows never reached the WAL, so recovery cannot see
        # them — but what it does see is exactly the drained prefix,
        # and the recovered view equals the recompute over it.
        assert recovered.execute("SELECT COUNT(*) FROM t").rows[0][0] == 3
        assert_view_matches(recovered, RECOMPUTE, "q")
        # The recovered engine ingests and refreshes normally.
        recovered.execute("INSERT INTO t VALUES ('d', 6)")
        assert_view_matches(recovered, RECOMPUTE, "q")

    def test_graceful_shutdown_drains_before_recovery(self, tmp_path):
        directory = tmp_path / "dur"
        con, ext = self._engine(directory)
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
        ext.refresh("q")
        con.execute("INSERT INTO t VALUES ('c', 3), ('c', 4)")
        assert ext.queue.depth() == 2
        ext.shutdown()  # drains the residue into the WAL, then closes
        recovered = Connection.recover(directory)
        assert recovered.execute("SELECT COUNT(*) FROM t").rows[0][0] == 4
        assert_view_matches(recovered, RECOMPUTE, "q")


class TestStatsAndHealth:
    def test_queue_counters_surface_in_refresh_stats(self, ivm_con):
        con, ext = _setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 1)")
        ext.refresh("q")
        snap = ext.refresh_stats("q")
        assert snap["queue"]["enqueued_rows"] == 1
        assert snap["queue"]["drained_rows"] == 1
        assert snap["degradation_rung"] == 0

    def test_health_reports_queue_views_and_faults(self, ivm_con):
        from repro.core.faults import FaultPlan

        con, ext = _setup(ivm_con, fault_plan=FaultPlan(seed=1))
        con.execute("INSERT INTO t VALUES ('a', 1)")
        report = ext.health()
        assert report["queue"]["depth_rows"] == 1
        (view,) = report["views"]
        assert view["view"] == "q"
        assert view["rung_name"] == "native"
        assert view["needs_recompute"] is False
        assert report["faults"] == []  # a plan with no specs
        assert report["durability"] is None

    def test_shutdown_drains_residue(self, ivm_con):
        con, ext = _setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 1)")
        assert ext.queue.depth() == 1
        ext.shutdown()
        assert ext.queue.depth() == 0
        ext.shutdown()  # idempotent


class TestAsyncDaemon:
    def test_background_refresher_drains_without_explicit_refresh(
        self, ivm_con
    ):
        con, ext = _setup(
            ivm_con,
            queue_async=True,
            queue_deadline=0.01,
            queue_capacity=64,
        )
        try:
            assert ext._daemon is not None
            con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2)")
            deadline = time.monotonic() + 5.0
            while ext.queue.depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ext.queue.depth() == 0
        finally:
            ext.shutdown()
        # The drained rows reached ΔT as pending changes (or were
        # already refreshed); either way the read converges.
        assert_view_matches(con, RECOMPUTE, "q")

    def test_high_watermark_wakes_the_daemon(self, ivm_con):
        con, ext = _setup(
            ivm_con,
            queue_async=True,
            queue_capacity=10,
            queue_high_watermark=0.3,
            queue_low_watermark=0.1,
        )
        try:
            con.execute(
                "INSERT INTO t VALUES ('a', 1), ('a', 2), ('a', 3), ('a', 4)"
            )
            deadline = time.monotonic() + 5.0
            while ext.queue.depth() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ext.queue.depth() == 0
        finally:
            ext.shutdown()
        assert_view_matches(con, RECOMPUTE, "q")

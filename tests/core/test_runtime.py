"""Unit tests for the async ingestion runtime (``repro.core.runtime``):
the bounded :class:`IngestQueue` under all three backpressure policies,
watermark/deadline drain triggers, admission counters, the
:class:`DegradationLadder` state machine, and the :class:`RefreshDaemon`
lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.runtime import (
    RUNG_NATIVE,
    RUNG_RECOMPUTE,
    RUNG_SQL,
    DegradationLadder,
    IngestQueue,
    RefreshDaemon,
)
from repro.errors import BackpressureError


def rows(n, start=0, sign=True):
    """n single-column delta rows (value, multiplicity)."""
    return [(float(start + i), sign) for i in range(n)]


class TestEnqueueDrain:
    def test_enqueue_then_drain_preserves_order_and_rows(self):
        q = IngestQueue(capacity=100)
        q.enqueue("t", rows(3))
        q.enqueue("u", rows(2, start=10, sign=False))
        assert q.depth() == 5
        batches = q.drain()
        assert [(b.table, b.rows) for b in batches] == [
            ("t", rows(3)),
            ("u", rows(2, start=10, sign=False)),
        ]
        assert q.depth() == 0
        # Drain on an empty queue is a no-op, not an error.
        assert q.drain() == []

    def test_empty_batch_is_ignored(self):
        q = IngestQueue(capacity=10)
        q.enqueue("t", [])
        assert q.depth() == 0
        assert q.counters["enqueued_batches"] == 0

    def test_counters_track_admission_and_depth(self):
        q = IngestQueue(capacity=100, high_watermark=0.5)
        q.enqueue("t", rows(30))
        q.enqueue("t", rows(40))  # 70 >= high watermark (50)
        snap = q.snapshot()
        assert snap["enqueued_batches"] == 2
        assert snap["enqueued_rows"] == 70
        assert snap["max_depth_rows"] == 70
        assert snap["high_watermark_hits"] == 1
        assert snap["depth_rows"] == 70
        q.drain()
        snap = q.snapshot()
        assert snap["drained_batches"] == 2
        assert snap["drained_rows"] == 70
        assert snap["depth_rows"] == 0

    def test_snapshot_reports_configuration(self):
        q = IngestQueue(
            capacity=200, policy="shed", high_watermark=0.9, low_watermark=0.1
        )
        snap = q.snapshot()
        assert snap["capacity_rows"] == 200
        assert snap["policy"] == "shed"
        assert snap["high_watermark_rows"] == 180
        assert snap["low_watermark_rows"] == 20


class TestShedPolicy:
    def test_overflow_sheds_with_typed_error(self):
        q = IngestQueue(capacity=10, policy="shed")
        q.enqueue("t", rows(8))
        with pytest.raises(BackpressureError):
            q.enqueue("t", rows(5))
        # The queued rows survive; only the overflowing batch was shed.
        assert q.depth() == 8
        assert q.counters["shed_batches"] == 1
        assert q.counters["shed_rows"] == 5

    def test_batch_that_fits_is_admitted_after_a_shed(self):
        q = IngestQueue(capacity=10, policy="shed")
        q.enqueue("t", rows(8))
        with pytest.raises(BackpressureError):
            q.enqueue("t", rows(5))
        q.enqueue("t", rows(2))
        assert q.depth() == 10


class TestBlockPolicy:
    def test_inline_drain_when_no_background_drainer(self):
        q = IngestQueue(capacity=10, policy="block")
        q.drain_callback = q.drain
        q.enqueue("t", rows(8))
        q.enqueue("t", rows(6))  # forces an inline drain of the first 8
        assert q.depth() == 6
        assert q.counters["inline_drains"] == 1
        assert q.counters["blocked_enqueues"] == 1

    def test_oversized_batch_admitted_once_queue_is_empty(self):
        # A batch bigger than the whole queue can never fit; block must
        # drain what it can and then admit it rather than loop forever.
        drains = []
        q = IngestQueue(capacity=4, policy="block")
        q.drain_callback = lambda: drains.append(q.drain())
        q.enqueue("t", rows(3))
        q.enqueue("t", rows(6, start=10))
        assert drains and len(drains[0]) == 1  # the 3-row batch drained
        assert q.depth() == 6  # the oversized batch was admitted whole
        assert q.counters["inline_drains"] == 1

    def test_no_drainer_and_no_callback_sheds(self):
        q = IngestQueue(capacity=10, policy="block")
        q.enqueue("t", rows(8))
        with pytest.raises(BackpressureError):
            q.enqueue("t", rows(5))
        assert q.counters["shed_batches"] == 1

    def test_blocked_writer_waits_for_background_drain(self):
        q = IngestQueue(capacity=10, policy="block", block_timeout=5.0)
        q.attach_drainer()
        q.enqueue("t", rows(10))
        admitted = threading.Event()

        def writer():
            q.enqueue("t", rows(4))
            admitted.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert not admitted.wait(timeout=0.1)  # genuinely blocked
        q.drain()
        assert admitted.wait(timeout=2.0)
        thread.join(timeout=2.0)
        assert q.depth() == 4
        assert q.counters["blocked_enqueues"] >= 1

    def test_blocked_writer_times_out_with_typed_error(self):
        q = IngestQueue(capacity=10, policy="block", block_timeout=0.05)
        q.attach_drainer()  # a drainer that never actually drains
        q.enqueue("t", rows(10))
        with pytest.raises(BackpressureError):
            q.enqueue("t", rows(1))

    def test_detach_drainer_wakes_blocked_writers(self):
        q = IngestQueue(capacity=10, policy="block", block_timeout=5.0)
        q.drain_callback = q.drain
        q.attach_drainer()
        q.enqueue("t", rows(10))
        admitted = threading.Event()

        def writer():
            q.enqueue("t", rows(4))
            admitted.set()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert not admitted.wait(timeout=0.1)
        # Detaching flips the writer over to the inline-drain path.
        q.detach_drainer()
        assert admitted.wait(timeout=2.0)
        thread.join(timeout=2.0)


class TestCoalescePolicy:
    def test_opposite_sign_rows_annihilate(self):
        q = IngestQueue(capacity=10, policy="coalesce")
        q.enqueue("t", rows(6, sign=True))
        # The retraction of the same 6 rows cancels everything.
        q.enqueue("t", rows(6, sign=False))
        assert q.depth() == 0
        assert q.counters["coalesced_rows"] == 12

    def test_partial_cancellation_keeps_net_rows(self):
        q = IngestQueue(capacity=10, policy="coalesce")
        q.enqueue("t", rows(8, sign=True))
        q.enqueue("t", rows(4, sign=False))  # cancels 4 of 8
        assert q.depth() == 4
        batches = q.drain()
        assert len(batches) == 1
        assert all(row[-1] is True for row in batches[0].rows)

    def test_coalesce_preserves_net_multiset_across_tables(self):
        q = IngestQueue(capacity=10, policy="coalesce")
        q.enqueue("a", rows(5, sign=True))
        q.enqueue("b", rows(5, start=100, sign=True))
        q.enqueue("a", rows(5, sign=False))
        assert q.depth() == 5
        (batch,) = q.drain()
        assert batch.table == "b"
        assert sorted(batch.rows) == sorted(rows(5, start=100, sign=True))

    def test_uncoalescable_overflow_falls_back_to_block(self):
        q = IngestQueue(capacity=10, policy="coalesce")
        q.drain_callback = q.drain
        q.enqueue("t", rows(8, sign=True))
        # All distinct inserts: nothing cancels, so the policy degrades
        # to block (here: inline drain).
        q.enqueue("t", rows(6, start=100, sign=True))
        assert q.depth() == 6
        assert q.counters["inline_drains"] == 1

    def test_duplicate_inserts_never_silently_dropped(self):
        # Same-sign duplicates accumulate multiplicity — coalescing must
        # never cancel them.  12 net rows exceed capacity, so the policy
        # degrades to block; with no drainer attached and no callback the
        # batch sheds with the typed error, and the queue keeps its rows.
        q = IngestQueue(capacity=10, policy="coalesce")
        q.enqueue("t", rows(6, sign=True))
        with pytest.raises(BackpressureError):
            q.enqueue("t", rows(6, sign=True))
        assert q.depth() == 6
        (batch,) = q.drain()
        assert sorted(batch.rows) == sorted(rows(6, sign=True))


class TestDrainTriggers:
    def test_drain_due_on_batch_rows(self):
        q = IngestQueue(capacity=100)
        q.enqueue("t", rows(5))
        assert not q.drain_due(batch_rows=6)
        assert q.drain_due(batch_rows=5)

    def test_drain_due_on_high_watermark(self):
        q = IngestQueue(capacity=100, high_watermark=0.1)
        q.enqueue("t", rows(10))
        assert q.drain_due()  # no batch/deadline trigger needed

    def test_drain_due_on_deadline(self):
        now = [0.0]
        q = IngestQueue(capacity=100, clock=lambda: now[0])
        q.enqueue("t", rows(1))
        assert not q.drain_due(deadline=1.0)
        now[0] = 2.0
        assert q.oldest_age() == 2.0
        assert q.drain_due(deadline=1.0)

    def test_empty_queue_never_due(self):
        q = IngestQueue(capacity=10)
        assert not q.drain_due(batch_rows=1, deadline=0.001)
        assert q.oldest_age() == 0.0

    def test_wake_callback_fires_at_high_watermark(self):
        woke = []
        q = IngestQueue(capacity=10, high_watermark=0.5)
        q.wake_callback = lambda: woke.append(True)
        q.enqueue("t", rows(2))
        assert woke == []
        q.enqueue("t", rows(4))
        assert woke == [True]


class TestDegradationLadder:
    def test_demotes_one_rung_per_failure_bounded_at_recompute(self):
        ladder = DegradationLadder()
        assert ladder.rung == RUNG_NATIVE
        assert ladder.note_failure() == (RUNG_NATIVE, RUNG_SQL)
        assert ladder.note_failure() == (RUNG_SQL, RUNG_RECOMPUTE)
        assert ladder.note_failure() == (RUNG_RECOMPUTE, RUNG_RECOMPUTE)
        assert ladder.demotions == 2  # the bounded repeat does not count
        assert ladder.rung_name == "recompute"

    def test_heals_one_rung_after_n_consecutive_cleans(self):
        ladder = DegradationLadder(heal_after=2)
        ladder.note_failure()
        ladder.note_failure()  # rung 2
        assert ladder.note_clean() is None
        assert ladder.note_clean() == (RUNG_RECOMPUTE, RUNG_SQL)
        assert ladder.note_clean() is None
        assert ladder.note_clean() == (RUNG_SQL, RUNG_NATIVE)
        assert ladder.heals == 2
        # At the top rung cleans are a no-op.
        assert ladder.note_clean() is None
        assert ladder.rung == RUNG_NATIVE

    def test_failure_resets_the_clean_streak(self):
        ladder = DegradationLadder(heal_after=2)
        ladder.note_failure()
        assert ladder.note_clean() is None
        ladder.note_failure()  # streak gone, rung 2 now
        assert ladder.note_clean() is None
        assert ladder.note_clean() == (RUNG_RECOMPUTE, RUNG_SQL)

    def test_snapshot_shape(self):
        ladder = DegradationLadder(heal_after=4)
        ladder.note_failure()
        snap = ladder.snapshot()
        assert snap == {
            "rung": RUNG_SQL,
            "rung_name": "sql",
            "consecutive_clean": 0,
            "demotions": 1,
            "heals": 0,
        }


class TestRefreshDaemon:
    def test_daemon_drains_on_wake_and_stops_cleanly(self):
        q = IngestQueue(capacity=100, high_watermark=0.1)
        drained = threading.Event()

        def pump():
            q.drain()
            drained.set()

        daemon = RefreshDaemon(q, pump, tick=0.01)
        daemon.start()
        try:
            assert q._has_drainer is True
            q.enqueue("t", rows(20))  # crosses the watermark → wake
            assert drained.wait(timeout=2.0)
            deadline = time.monotonic() + 2.0
            while q.depth() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert q.depth() == 0
        finally:
            daemon.stop()
        assert q._has_drainer is False
        assert daemon._thread is None
        # Idempotent stop.
        daemon.stop()

    def test_pump_errors_are_counted_not_fatal(self):
        q = IngestQueue(capacity=100)
        calls = []

        def pump():
            calls.append(True)
            if len(calls) == 1:
                raise RuntimeError("injected pump failure")
            q.drain()

        daemon = RefreshDaemon(q, pump, tick=0.005)
        daemon.start()
        try:
            q.enqueue("t", rows(1))
            deadline = time.monotonic() + 2.0
            while q.depth() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert q.depth() == 0
        finally:
            daemon.stop()
        assert daemon.errors >= 1

"""The async ingestion runtime: bounded queue, backpressure, degradation.

This module is the overload-and-partial-failure layer in front of the
IVM capture path:

* :class:`IngestQueue` — a bounded, thread-safe queue of captured delta
  batches.  The AFTER triggers enqueue (instead of writing WAL + ΔT
  synchronously); the refresher drains on batch-size, deadline, and
  high-watermark triggers.  Overflow is governed by a pluggable
  backpressure policy:

  - ``block``: the writer waits for the drainer to pull the queue below
    the low watermark — or, when no background refresher is attached,
    pays for the drain itself (inline), which is backpressure in its
    purest form.  A blocked writer gives up with
    :class:`~repro.errors.BackpressureError` after
    ``queue_block_timeout`` seconds so a dead drainer cannot deadlock
    the write path.
  - ``shed``: the batch is rejected with a typed
    :class:`~repro.errors.BackpressureError`.  The caller (the
    extension's capture trigger) flags the watching views for full
    recompute, because the base mutation has already been applied — shed
    load trades refresh work for bounded memory, never correctness.
  - ``coalesce``: opposite-sign rows already queued annihilate (an
    insert and its later delete cancel before ever reaching ΔT), which
    absorbs churny burst patterns in place; if compaction cannot get
    under capacity the policy degrades to ``block``.

* :class:`DegradationLadder` — the escalating response to repeated
  refresh failures: ``native → sql → recompute``, one rung per
  failure, healing one rung back after N consecutive clean refreshes.
  Every demotion and heal is recorded as a structured event in
  :class:`~repro.core.propagate.RefreshStats`.

* :class:`RefreshDaemon` — the optional background refresher thread
  (``CompilerFlags.queue_async``): wakes on the deadline tick or a
  high-watermark signal and runs the extension's pump under its runtime
  lock.  Off by default; the synchronous pump path (piggybacked on the
  next statement) is deterministic and is what the tests drive.

Fault injection: ``queue.enqueue`` is a named site of
:class:`~repro.core.faults.FaultPlan`; an injected admission fault is
indistinguishable from a shed to the caller.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import BackpressureError
from repro.storage.keys import encode_key

# Degradation-ladder rungs, mildest to most degraded.
RUNG_NATIVE = 0  # the compiled plan: native steps, SQL where they lack
RUNG_SQL = 1  # the compiled SQL script alone (native steps disabled)
RUNG_RECOMPUTE = 2  # every refresh is a full recompute
RUNG_NAMES = ("native", "sql", "recompute")


@dataclass
class DeltaBatch:
    """One captured delta batch waiting in the ingest queue."""

    table: str
    # Full delta rows: base columns + trailing boolean multiplicity.
    rows: list
    enqueued_at: float = 0.0


class IngestQueue:
    """Bounded admission control in front of the capture path.

    ``drain_callback`` is invoked (without the queue lock) when a
    blocked writer must relieve the queue itself — the extension wires
    its drain-to-ΔT routine here.  ``wake_callback`` pokes the
    background refresher (when one is attached) on high-watermark
    crossings.
    """

    def __init__(
        self,
        capacity: int = 4096,
        policy: str = "block",
        high_watermark: float = 0.8,
        low_watermark: float = 0.5,
        block_timeout: float = 5.0,
        drain_callback: Callable[[], Any] | None = None,
        wake_callback: Callable[[], None] | None = None,
        fault_plan: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.capacity = int(capacity)
        self.policy = policy
        self.high_rows = max(1, int(self.capacity * high_watermark))
        self.low_rows = max(0, int(self.capacity * low_watermark))
        self.block_timeout = float(block_timeout)
        self.drain_callback = drain_callback
        self.wake_callback = wake_callback
        self.fault_plan = fault_plan
        self.clock = clock
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._batches: deque[DeltaBatch] = deque()
        self._rows = 0
        # True while a background refresher owns draining; blocked
        # writers then wait instead of draining inline.
        self._has_drainer = False
        # Admission-control counters (all monotone; snapshot() copies).
        self.counters = {
            "enqueued_batches": 0,
            "enqueued_rows": 0,
            "drained_batches": 0,
            "drained_rows": 0,
            "shed_batches": 0,
            "shed_rows": 0,
            "coalesced_rows": 0,
            "blocked_enqueues": 0,
            "inline_drains": 0,
            "high_watermark_hits": 0,
            "max_depth_rows": 0,
        }

    # -- producer side ---------------------------------------------------

    def enqueue(self, table: str, rows) -> None:
        """Admit one delta batch, applying the backpressure policy.

        Raises :class:`~repro.errors.BackpressureError` when the policy
        sheds the batch (or a blocked writer times out) — the caller is
        responsible for the recompute self-heal of the watching views.
        """
        if self.fault_plan is not None:
            self.fault_plan.check("queue.enqueue", table=table)
        rows = list(rows)
        if not rows:
            return
        deadline = self.clock() + self.block_timeout
        with self._not_full:
            while self._rows + len(rows) > self.capacity:
                if self.policy == "shed":
                    self.counters["shed_batches"] += 1
                    self.counters["shed_rows"] += len(rows)
                    raise BackpressureError(
                        f"ingest queue over capacity ({self._rows} rows "
                        f"queued, capacity {self.capacity}); batch of "
                        f"{len(rows)} rows for {table!r} shed"
                    )
                if self.policy == "coalesce":
                    if self._coalesce_locked(table, rows):
                        return  # admitted via joint compaction
                if self._rows == 0 and len(rows) > self.capacity:
                    # A single batch larger than the whole queue can
                    # never fit; once the queue has drained empty, admit
                    # it anyway — capacity bounds *accumulation*, and
                    # waiting forever would wedge the block/coalesce
                    # policies (shed keeps its hard bound and raised
                    # above).
                    break
                # block (and coalesce-after-compaction): wait for the
                # drainer, or drain inline when none is attached.
                self.counters["blocked_enqueues"] += 1
                if self._has_drainer:
                    remaining = deadline - self.clock()
                    if remaining <= 0 or not self._not_full.wait(
                        timeout=min(remaining, 0.05)
                    ):
                        if self.clock() >= deadline:
                            self.counters["shed_batches"] += 1
                            self.counters["shed_rows"] += len(rows)
                            raise BackpressureError(
                                f"writer blocked longer than "
                                f"{self.block_timeout}s waiting for the "
                                f"queue drainer; batch for {table!r} shed"
                            )
                    continue
                if self.drain_callback is None:
                    self.counters["shed_batches"] += 1
                    self.counters["shed_rows"] += len(rows)
                    raise BackpressureError(
                        "ingest queue full and no drainer attached; "
                        f"batch for {table!r} shed"
                    )
                self.counters["inline_drains"] += 1
                self._not_full.release()
                try:
                    self.drain_callback()
                finally:
                    self._not_full.acquire()
            self._admit_locked(table, rows)
        if self.wake_callback is not None and self._rows >= self.high_rows:
            self.wake_callback()

    def _admit_locked(self, table: str, rows: list) -> None:
        self._batches.append(
            DeltaBatch(table=table, rows=rows, enqueued_at=self.clock())
        )
        self._rows += len(rows)
        self.counters["enqueued_batches"] += 1
        self.counters["enqueued_rows"] += len(rows)
        if self._rows > self.counters["max_depth_rows"]:
            self.counters["max_depth_rows"] = self._rows
        if self._rows >= self.high_rows:
            self.counters["high_watermark_hits"] += 1

    def _coalesce_locked(self, table: str, rows: list) -> bool:
        """Compact the queue *jointly with the incoming batch* by
        cancelling opposite-sign rows per table.

        Rows are grouped per table by the memcomparable encoding of
        their value columns; the signed multiplicities sum, and a key
        whose net count is zero vanishes entirely.  Z-set semantics make
        this exact: ΔT order never matters, only the signed multiset.

        Returns True when the compacted whole (queue + incoming batch)
        fits under capacity and has been installed — the incoming batch
        is then admitted.  Otherwise the queue alone is compacted
        in place and False is returned (caller falls back to blocking).
        """
        incoming = DeltaBatch(table=table, rows=rows, enqueued_at=self.clock())
        compacted, total = self._merge(list(self._batches) + [incoming])
        admitted = total <= self.capacity
        if admitted:
            cancelled = (self._rows + len(rows)) - total
            self.counters["enqueued_batches"] += 1
            self.counters["enqueued_rows"] += len(rows)
        else:
            compacted, total = self._merge(list(self._batches))
            cancelled = self._rows - total
        self._batches = deque(compacted)
        self._rows = total
        self.counters["coalesced_rows"] += cancelled
        if self._rows > self.counters["max_depth_rows"]:
            self.counters["max_depth_rows"] = self._rows
        return admitted

    @staticmethod
    def _merge(batches: list) -> tuple[list, int]:
        """Net out the signed row multiset of ``batches`` per table.
        Returns (compacted batch list, total surviving rows)."""
        merged: dict[str, dict[bytes, list]] = {}
        order: list[str] = []
        oldest: dict[str, float] = {}
        for batch in batches:
            per_table = merged.setdefault(batch.table, {})
            if batch.table not in oldest:
                order.append(batch.table)
                oldest[batch.table] = batch.enqueued_at
            for row in batch.rows:
                key = encode_key(tuple(row[:-1]))
                entry = per_table.get(key)
                if entry is None:
                    per_table[key] = [row, 1 if row[-1] else -1]
                else:
                    entry[1] += 1 if row[-1] else -1
        out: list[DeltaBatch] = []
        total = 0
        for table in order:
            survivors: list = []
            for row, net in merged[table].values():
                if net == 0:
                    continue
                values = tuple(row[:-1]) + (net > 0,)
                survivors.extend([values] * abs(net))
            if survivors:
                out.append(
                    DeltaBatch(
                        table=table, rows=survivors, enqueued_at=oldest[table]
                    )
                )
                total += len(survivors)
        return out, total

    # -- consumer side ---------------------------------------------------

    def drain(self) -> list[DeltaBatch]:
        """Pop every queued batch (enqueue order) and release blocked
        writers.  The caller moves the rows to WAL + ΔT."""
        with self._not_full:
            batches = list(self._batches)
            self._batches.clear()
            self.counters["drained_batches"] += len(batches)
            self.counters["drained_rows"] += self._rows
            self._rows = 0
            self._not_full.notify_all()
        return batches

    def attach_drainer(self) -> None:
        """Mark that a background refresher owns draining (blocked
        writers wait for it instead of draining inline)."""
        self._has_drainer = True

    def detach_drainer(self) -> None:
        with self._not_full:
            self._has_drainer = False
            self._not_full.notify_all()

    # -- triggers & introspection ----------------------------------------

    def depth(self) -> int:
        """Queued rows right now."""
        return self._rows

    def oldest_age(self) -> float:
        """Seconds the oldest queued batch has waited (0.0 when empty)."""
        with self._lock:
            if not self._batches:
                return 0.0
            return max(0.0, self.clock() - self._batches[0].enqueued_at)

    def drain_due(self, batch_rows: int = 0, deadline: float = 0.0) -> bool:
        """Should the refresher drain now?  True when the queued rows
        reach ``batch_rows`` (0 disables), the oldest batch is older
        than ``deadline`` seconds (0 disables), or the high watermark
        has been crossed."""
        if self._rows == 0:
            return False
        if batch_rows > 0 and self._rows >= batch_rows:
            return True
        if self._rows >= self.high_rows:
            return True
        return deadline > 0 and self.oldest_age() >= deadline

    def snapshot(self) -> dict:
        """JSON-shaped admission-control counters + current depth."""
        with self._lock:
            out = dict(self.counters)
            out["depth_rows"] = self._rows
            out["depth_batches"] = len(self._batches)
        out["capacity_rows"] = self.capacity
        out["policy"] = self.policy
        out["high_watermark_rows"] = self.high_rows
        out["low_watermark_rows"] = self.low_rows
        return out


@dataclass
class DegradationLadder:
    """Escalating refresh degradation with heal-back.

    One failed refresh demotes one rung; ``heal_after`` consecutive
    clean refreshes at a demoted rung heal one rung back.  The extension
    translates the rung into a plan: rung 0 runs the compiled plan
    (native steps, SQL for the steps they do not cover), rung 1
    disables the native steps entirely (the compiled SQL script is the
    always-available fallback), and rung 2 rebuilds the view from the
    base tables every round.  Demotions and heals are appended to the
    view's RefreshStats event log by the caller.
    """

    heal_after: int = 3
    rung: int = RUNG_NATIVE
    consecutive_clean: int = 0
    demotions: int = 0
    heals: int = 0

    @property
    def rung_name(self) -> str:
        return RUNG_NAMES[self.rung]

    def note_failure(self) -> tuple[int, int]:
        """One refresh failed: demote (bounded at the recompute rung).
        Returns ``(from_rung, to_rung)``."""
        previous = self.rung
        self.rung = min(self.rung + 1, RUNG_RECOMPUTE)
        self.consecutive_clean = 0
        if self.rung != previous:
            self.demotions += 1
        return previous, self.rung

    def note_clean(self) -> tuple[int, int] | None:
        """One refresh succeeded; heal one rung after ``heal_after``
        consecutive cleans.  Returns ``(from_rung, to_rung)`` when a
        heal happened, else None."""
        if self.rung == RUNG_NATIVE:
            self.consecutive_clean = 0
            return None
        self.consecutive_clean += 1
        if self.consecutive_clean < self.heal_after:
            return None
        previous = self.rung
        self.rung -= 1
        self.consecutive_clean = 0
        self.heals += 1
        return previous, self.rung

    def snapshot(self) -> dict:
        return {
            "rung": self.rung,
            "rung_name": self.rung_name,
            "consecutive_clean": self.consecutive_clean,
            "demotions": self.demotions,
            "heals": self.heals,
        }


class RefreshDaemon:
    """Background refresher: drains the queue on deadline ticks and
    high-watermark wakes, serialized through ``pump`` (the extension's
    drain-and-refresh entry, which takes the runtime lock).

    Lifecycle: ``start()`` attaches it as the queue's drainer;
    ``stop()`` joins the thread and detaches.  Errors from ``pump`` are
    counted and swallowed — a background refresh failure must not kill
    the drainer; the degradation ladder and recompute self-heal handle
    the view-side consequences.
    """

    def __init__(
        self,
        queue: IngestQueue,
        pump: Callable[[], Any],
        tick: float = 0.01,
    ) -> None:
        self.queue = queue
        self.pump = pump
        self.tick = float(tick)
        self.errors = 0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self.queue.attach_drainer()
        self.queue.wake_callback = self._wake.set
        self._thread = threading.Thread(
            target=self._run, name="ivm-refresher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.queue.detach_drainer()
        self.queue.wake_callback = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.tick)
            self._wake.clear()
            if self._stop.is_set():
                break
            if self.queue.depth() == 0:
                continue
            try:
                self.pump()
            except Exception:
                self.errors += 1

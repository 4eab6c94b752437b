"""Closed-loop runner for one workload: set-up, warm-up, timed window,
oracle, recompute samples and (for the durable workload) crash recovery.

One client, one thread.  A *cycle* is timed from issuing its first write
statement to the view SELECT returning; the answer is checked against
the generator's shadow copy after the clock has stopped.
"""

from __future__ import annotations

import gc
import math
import os
import pathlib
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

from gen import Cycle, OrdersModel
from workloads import TAIL_BURSTS, Workload, durable_burst

from repro import CompilerFlags, Connection, load_ivm

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
WARMUP_SHARE = 0.05
# At --scale tiny: enough cycles to exercise every code path, no more.
TINY_CYCLES = 10
# A traced pass runs the same cycles as an untraced one, so its counts
# repeat; the stop applies only after this many times --seconds.
TRACED_STOP_FACTOR = 3


@dataclass
class PassResult:
    """What one pass over a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    fresh_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    idle_read_ms: list[float] = field(default_factory=list)
    recompute_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    rows: int = 0
    # perf_counter at the window's start, then at the end of every cycle.
    ticks: list[float] = field(default_factory=list)
    wal_bytes: int = 0
    checkpoint_bytes: int = 0
    queue_depth_max: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def window_s(self) -> float:
        return self.ticks[-1] - self.ticks[0]

    @property
    def cycle_s(self) -> list[float]:
        """Wall seconds per timed cycle, idle read and checks included."""
        return [end - start for start, end in zip(self.ticks, self.ticks[1:])]

    @property
    def durable_bytes_per_row(self) -> float:
        return (self.wal_bytes + self.checkpoint_bytes) / self.rows

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _set_up(workload: Workload, scale: str, seed: int, durable_dir):
    """Schema, bulk load and view population through ``execute``; returns
    the shadow model, the connection, the extension and the seconds."""
    customers, orders = workload.sizes[scale]
    model = OrdersModel(seed, customers, workload.zipf)
    statements = model.load_statements(orders)
    statements += [view.create for view in workload.views]
    started = time.perf_counter()
    con = Connection()
    ext = load_ivm(con, CompilerFlags(**workload.flags), durability_dir=durable_dir)
    for sql in statements:
        con.execute(sql)
    if workload.durable:
        # The image every later recovery starts from.
        ext.checkpoint()
    return model, con, ext, time.perf_counter() - started


def _check_views(con, workload: Workload, result: PassResult) -> float:
    """The oracle: every view equals the recompute of its defining query
    and every ΔT / ΔV / cascade feed is empty.  Returns the seconds the
    recomputes took (a refresh_vs_recompute_ratio denominator sample)."""
    recompute = 0.0
    for view in workload.views:
        started = time.perf_counter()
        want = con.execute(view.query)
        recompute += time.perf_counter() - started
        got = con.execute(view.read)
        result.attempted += 1
        if got.sorted() != want.sorted():
            result.fail(f"{view.name} differs from its recompute")
    for name in con.catalog.table_names():
        if name.lower().startswith("delta_"):
            result.attempted += 1
            if len(con.table(name)):
                result.fail(f"{name} is not empty after refresh")
    return recompute


def _run_cycle(con, ext, cycle: Cycle, result: PassResult):
    """Returns ``(write_s, fresh_s, idle_read_s or None)``."""
    clock = time.perf_counter
    result.attempted += (
        len(cycle.writes) + len(cycle.reads) + bool(cycle.refresh) + bool(cycle.idle_read)
    )
    started = clock()
    for sql in cycle.writes:
        con.execute(sql)
    written = clock()
    if cycle.refresh == "all":
        ext.refresh_all()
    elif cycle.refresh:
        ext.refresh(cycle.refresh)
    answers = [con.execute(read.sql).rows for read in cycle.reads]
    fresh = clock()
    idle = None
    if cycle.idle_read:
        con.execute(cycle.idle_read)
        idle = clock() - fresh
    for read, rows in zip(cycle.reads, answers):
        result.attempted += 1
        if not read.expect(rows):
            result.fail(f"stale or wrong answer: {read.sql[:80]}")
    return written - started, fresh - started, idle


def _run_cycles(con, ext, cycles, result: PassResult, tracer, seconds=None,
                after_cycle=None):
    """Run ``cycles`` back to back.  With ``seconds`` the cycles are the
    timed window: samples are recorded and the loop stops early once the
    time is up.  A statement that raises fails its cycle, not the run."""
    clock = time.perf_counter
    timed = seconds is not None
    if timed:
        result.ticks.append(clock())
    for index, cycle in enumerate(cycles):
        if tracer is not None and timed:
            tracer.cycle = index
        try:
            write_s, fresh_s, idle_s = _run_cycle(con, ext, cycle, result)
        except Exception:  # the run must go on to report the failure
            result.fail(traceback.format_exc(limit=3))
            continue
        if after_cycle is not None:
            after_cycle()
        if timed:
            result.write_ms.append(write_s * 1e3)
            result.fresh_ms.append(fresh_s * 1e3)
            if idle_s is not None:
                result.idle_read_ms.append(idle_s * 1e3)
            result.rows += cycle.rows
            result.ticks.append(clock())
            if result.window_s >= seconds:
                break
    if tracer is not None:
        tracer.cycle = -1


class _DiskMeter:
    """Bytes the durable path has written: the WAL's size plus every
    checkpoint image ever seen.  Old images are pruned, so ``poll`` runs
    after every cycle."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = directory
        self.images: dict[str, int] = {}

    def poll(self) -> None:
        for entry in os.scandir(self.directory):
            if entry.name.endswith(".ckpt") and entry.name not in self.images:
                self.images[entry.name] = entry.stat().st_size

    def written(self) -> tuple[int, int]:
        """``(WAL bytes, checkpoint bytes)`` so far."""
        self.poll()
        return (self.directory / "wal.log").stat().st_size, sum(self.images.values())


def _crash_and_recover(con, ext, model, workload, scale, directory, result,
                       recoveries: int):
    """Write a WAL tail with no refresh, abandon the connection without
    ``shutdown()``, and time ``Connection.recover`` on ``recoveries``
    copies of the directory until the views answer."""
    for _ in range(TAIL_BURSTS[scale]):
        for sql in durable_burst(model):
            result.attempted += 1
            con.execute(sql)
    orders_before = con.execute("SELECT COUNT(*) FROM orders").rows[0][0]
    # Rows still parked in the ingest queue were never logged: the stated
    # policy makes them the only writes a crash may lose.
    unlogged = ext.queue.depth() if ext.queue is not None else 0
    copies = []
    try:
        for sample in range(recoveries):
            copy = directory.with_name(f"{directory.name}-copy{sample}")
            shutil.copytree(directory, copy)
            copies.append(copy)
            started = time.perf_counter()
            recovered = Connection.recover(copy)
            for view in workload.views:
                recovered.execute(view.read)
            result.recover_s.append(time.perf_counter() - started)
            _check_views(recovered, workload, result)
            orders_after = recovered.execute("SELECT COUNT(*) FROM orders").rows[0][0]
            result.attempted += 1
            if not 0 <= orders_before - orders_after <= unlogged:
                result.fail(
                    f"recovery lost {orders_before - orders_after} orders, "
                    f"{unlogged} delta rows were unlogged"
                )
            recovered.extensions.loaded("openivm").shutdown()
    finally:
        for copy in copies:
            shutil.rmtree(copy, ignore_errors=True)


def run_pass(workload: Workload, seed: int, seconds: float, scale: str, setups: int,
             recoveries: int, tracer=None) -> PassResult:
    """Set up ``setups`` times, then warm up, measure, verify, and (the
    durable workload) crash and recover ``recoveries`` times."""
    result = PassResult()
    OUT_DIR.mkdir(exist_ok=True)
    directory = OUT_DIR / f"durable-{workload.name}-{seed}-{os.getpid()}"
    ext = None
    try:
        for _ in range(setups):
            if ext is not None:
                ext.shutdown()
                con = ext = model = None
                gc.collect()
            shutil.rmtree(directory, ignore_errors=True)
            model, con, ext, setup_s = _set_up(
                workload, scale, seed, directory if workload.durable else None
            )
            result.setup_s.append(setup_s)

        if scale == "tiny":
            timed = TINY_CYCLES
        else:
            timed = max(200, round(workload.cycles_per_second * seconds))
        warm = max(1, math.ceil(timed * WARMUP_SHARE))
        cycles = workload.build_cycles(model, warm + timed)

        disk = _DiskMeter(directory) if workload.durable else None
        after_cycle = disk.poll if disk else None
        _run_cycles(con, ext, cycles[:warm], result, tracer, after_cycle=after_cycle)
        result.recompute_s.append(_check_views(con, workload, result))
        wal_before, images_before = disk.written() if disk else (0, 0)
        # GC stays enabled inside the window: users pay for it.
        gc.collect()
        _run_cycles(
            con, ext, cycles[warm:], result, tracer,
            seconds=seconds * (TRACED_STOP_FACTOR if tracer else 1),
            after_cycle=after_cycle,
        )
        if disk:
            wal_after, images_after = disk.written()
            result.wal_bytes = wal_after - wal_before
            result.checkpoint_bytes = images_after - images_before

        for _ in range(workload.oracle_rounds):
            result.recompute_s.append(_check_views(con, workload, result))
        if ext.queue is not None:
            result.queue_depth_max = ext.queue.snapshot()["max_depth_rows"]
        if workload.durable:
            _crash_and_recover(
                con, ext, model, workload, scale, directory, result, recoveries
            )
    finally:
        if ext is not None:
            ext.shutdown()
        shutil.rmtree(directory, ignore_errors=True)
    return result


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    return sorted(values)[math.ceil(0.95 * len(values)) - 1]


# Every statistic of the timed window is taken over this many consecutive
# blocks of cycles and the median block is reported: a stretch in which the
# machine was slow spoils the blocks it touches and not the result.
BLOCKS = 5


def steady(values: list, stat=statistics.median) -> float:
    size = len(values) // BLOCKS
    if size == 0:
        return stat(values)
    return statistics.median(
        stat(values[b * size : (b + 1) * size]) for b in range(BLOCKS)
    )


def end_to_end(result: PassResult, peak_rss_mb: float) -> dict[str, float]:
    follow_ms = [f - w for f, w in zip(result.fresh_ms, result.write_ms)]
    rows_per_cycle = result.rows / len(result.fresh_ms)
    return {
        "setup_s": statistics.median(result.setup_s),
        "write_to_fresh_ms_p50": steady(result.fresh_ms),
        "write_to_fresh_ms_p95": steady(result.fresh_ms, p95),
        "write_stmt_ms_p50": steady(result.write_ms),
        "write_stmt_ms_p95": steady(result.write_ms, p95),
        "view_read_ms_p50": steady(result.idle_read_ms),
        "ingest_rows_per_s": steady(
            result.cycle_s, lambda block: rows_per_cycle * len(block) / sum(block)
        ),
        "refresh_vs_recompute_ratio": (
            steady(follow_ms) / 1e3 / statistics.median(result.recompute_s)
        ),
        "peak_rss_mb": peak_rss_mb,
    }

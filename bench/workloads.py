"""The four workloads: data sizes, views, engine flags and cycle shapes.

Why each workload exists (which layer it loads and which optimisation it
would expose or bypass) is recorded in ``bench/README.md`` and, one line
each, in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from gen import Cycle, OrdersModel, Read, REGION_FLOOR

_JOIN = "FROM orders o JOIN customers c ON o.cust_id = c.cust_id"


@dataclass(frozen=True)
class View:
    """A materialized view, how the client reads it, and its recompute."""

    name: str
    query: str  # the defining SELECT; also the oracle's recompute
    columns: str

    @property
    def create(self) -> str:
        return f"CREATE MATERIALIZED VIEW {self.name} AS {self.query}"

    @property
    def read(self) -> str:
        return f"SELECT {self.columns} FROM {self.name}"


REV_CUST = View(
    "rev_cust",
    f"SELECT o.cust_id, SUM(o.amount) AS revenue, COUNT(*) AS n {_JOIN} "
    "GROUP BY o.cust_id",
    "cust_id, revenue, n",
)
PX_CUST = View(
    "px_cust",
    f"SELECT o.cust_id, MIN(o.amount) AS lo, MAX(o.amount) AS hi, "
    f"COUNT(*) AS n {_JOIN} GROUP BY o.cust_id",
    "cust_id, lo, hi, n",
)
REV_REGION = View(
    "rev_region",
    f"SELECT c.region, SUM(o.amount) AS revenue, COUNT(*) AS n {_JOIN} "
    f"WHERE o.amount > {REGION_FLOOR} GROUP BY c.region",
    "region, revenue, n",
)
# The 3-level chain of benchmarks/bench_join_ivm.py's view_dag section …
DAG1 = View("dag1", REV_CUST.query, "cust_id, revenue, n")
DAG2 = View(
    "dag2", "SELECT cust_id, revenue FROM dag1 WHERE revenue > 0", "cust_id, revenue"
)
DAG3 = View(
    "dag3", "SELECT SUM(revenue) AS grand, COUNT(*) AS nc FROM dag2", "grand, nc"
)
# … and the diamond of tests/properties/test_dag_oracle.py: one base
# change reaches ``joined`` through both arms and must apply once.
ARM_SUM = View(
    "arm_sum", "SELECT cust_id, SUM(amount) AS s FROM orders GROUP BY cust_id",
    "cust_id, s",
)
ARM_CNT = View(
    "arm_cnt", "SELECT cust_id, COUNT(*) AS n FROM orders GROUP BY cust_id",
    "cust_id, n",
)
JOINED = View(
    "joined",
    "SELECT arm_sum.cust_id, SUM(arm_sum.s) AS s, SUM(arm_cnt.n) AS n "
    "FROM arm_sum JOIN arm_cnt ON arm_sum.cust_id = arm_cnt.cust_id "
    "GROUP BY arm_sum.cust_id",
    "cust_id, s, n",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    views: tuple[View, ...]
    # (customers, orders) per --scale.
    sizes: dict
    # Timed cycles per second of --seconds at full scale (at least 200
    # cycles), probed on this checkout so that the timed window fills
    # half of --seconds for the two workloads with millisecond cycles and
    # three quarters for the two with 50 ms cycles; the runner stops at
    # --seconds regardless.
    cycles_per_second: float
    build_cycles: Callable[[OrdersModel, int], list[Cycle]]
    zipf: float = 0.0
    flags: dict = field(default_factory=dict)
    # Set-ups per run (the median is reported) and oracle rounds after
    # the timed window (each a recompute sample); fewer for the workload
    # where one of either takes 11 s and 2.6 s.
    setup_repeats: int = 3
    oracle_rounds: int = 6

    @property
    def durable(self) -> bool:
        return bool(self.flags.get("durability"))


def _point_read(cust: str) -> str:
    return f"SELECT revenue, n FROM rev_cust WHERE cust_id = '{cust}'"


# 70 % INSERT, 15 % UPDATE, 15 % DELETE, exact in every 20 cycles and
# shuffled within them: a PK UPDATE or DELETE costs 60 times an INSERT,
# so a mix drawn per cycle would move the mean cycle by 3 % between seeds.
_OLTP_MIX = ["insert"] * 14 + ["update"] * 3 + ["delete"] * 3


def _oltp_cycles(model: OrdersModel, count: int) -> list[Cycle]:
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(_OLTP_MIX)
        model.rng.shuffle(block)
        kinds += block
    cycles = []
    for i in range(count):
        if kinds[i] == "insert":
            sql, custs = model.insert(1)
            cust = custs[0]
        elif kinds[i] == "update":
            sql, cust = model.update_one()
        else:
            sql, cust = model.delete_one()
        read = _point_read(cust)
        cycles.append(
            Cycle(
                writes=[sql],
                rows=1,
                reads=[Read(read, model.expect_customer(cust))],
                idle_read=read if i % 10 == 9 else None,
            )
        )
    return cycles


BATCH_ROWS = 250
REPLACE_SHARE = 0.2


def _batch_cycles(model: OrdersModel, count: int) -> list[Cycle]:
    cycles = []
    for i in range(count):
        sql = model.upsert(BATCH_ROWS, REPLACE_SHARE)
        orders, total = len(model.live), model.total_amount
        kept_revenue, kept = model.over_floor
        cycles.append(
            Cycle(
                writes=[sql],
                rows=BATCH_ROWS,
                refresh="all",
                reads=[
                    Read(REV_CUST.read, model.expect_totals((1, total), (2, orders))),
                    Read(PX_CUST.read, model.expect_totals((3, orders))),
                    Read(
                        REV_REGION.read,
                        model.expect_totals((1, kept_revenue), (2, kept)),
                    ),
                ],
                idle_read=REV_CUST.read if i % 5 == 4 else None,
            )
        )
    return cycles


CASCADE_ROWS = 10


def _cascade_cycles(model: OrdersModel, count: int) -> list[Cycle]:
    cycles = []
    for i in range(count):
        sql, _ = model.insert(CASCADE_ROWS)
        orders, total = len(model.live), model.total_amount
        groups = len(model.per_cust)
        cycles.append(
            Cycle(
                writes=[sql],
                rows=CASCADE_ROWS,
                # Both leaves: the chain's scalar and the diamond's join.
                reads=[
                    Read(DAG3.read, model.expect_rows((total, groups))),
                    Read(JOINED.read, model.expect_totals((1, total), (2, orders))),
                ],
                # The interior view, fresh by now: a read beside writes
                # through the snapshot / copy-on-write path.
                idle_read=DAG2.read if i % 5 == 4 else None,
            )
        )
    return cycles


BURST_STATEMENTS = 10
BURST_ROWS = 25
# Bursts written after the timed window with no refresh, so that recovery
# has a WAL tail of TAIL_BURSTS × 250 rows to replay.
TAIL_BURSTS = {"full": 20, "tiny": 2}


def durable_burst(model: OrdersModel) -> list[str]:
    return [model.upsert(BURST_ROWS, REPLACE_SHARE) for _ in range(BURST_STATEMENTS)]


def _durable_cycles(model: OrdersModel, count: int) -> list[Cycle]:
    cycles = []
    for i in range(count):
        writes = durable_burst(model)
        orders, total = len(model.live), model.total_amount
        cycles.append(
            Cycle(
                writes=writes,
                rows=BURST_STATEMENTS * BURST_ROWS,
                refresh="rev_cust",
                reads=[
                    Read(REV_CUST.read, model.expect_totals((1, total), (2, orders)))
                ],
                idle_read=REV_CUST.read if i % 5 == 4 else None,
            )
        )
    return cycles


_SMALL = {"full": (200, 15_000), "tiny": (20, 300)}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oltp_trickle",
            why="single-row DML then a point read: parse, bind, execute and "
            "trigger capture dominate, so a plan cache or PK-indexed DML shows "
            "here only",
            views=(REV_CUST,),
            sizes=_SMALL,
            cycles_per_second=155,
            build_cycles=_oltp_cycles,
        ),
        Workload(
            name="batch_refresh",
            why="250-row upserts over 100k Zipf-skewed orders and three views: "
            "IVM steps 1/2/2b/3 carry the cycle and statement cost is "
            "amortised, so a plan cache should not move it",
            views=(REV_CUST, PX_CUST, REV_REGION),
            sizes={"full": (2_000, 100_000), "tiny": (40, 1_000)},
            zipf=1.1,
            cycles_per_second=14,
            build_cycles=_batch_cycles,
            setup_repeats=1,
            oracle_rounds=2,
        ),
        Workload(
            name="cascade_dag",
            why="10-row inserts read at the leaves of a 3-level chain and a "
            "diamond: kernels are cheap, so the cascade hop (feed capture and "
            "re-read) dominates",
            views=(DAG1, DAG2, DAG3, ARM_SUM, ARM_CNT, JOINED),
            sizes=_SMALL,
            cycles_per_second=90,
            build_cycles=_cascade_cycles,
        ),
        Workload(
            name="durable_ingest",
            why="the same capture path through ingest queue, WAL and periodic "
            "checkpoints, then crash recovery: a capture gain that costs the "
            "durable path shows here",
            views=(REV_CUST,),
            sizes=_SMALL,
            cycles_per_second=12.5,
            build_cycles=_durable_cycles,
            # Flush policy: wal_sync off (process-kill durability only),
            # the same on every commit measured.
            flags=dict(
                durability=True,
                wal_sync=False,
                checkpoint_every=8,
                ingest_queue=True,
                queue_policy="block",
            ),
        ),
    )
}

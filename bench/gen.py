"""Seeded workload generator: everything the program sees is SQL text.

The generator keeps a shadow copy of the two base tables (``customers``
and ``orders``) so that every UPDATE/DELETE targets a live row, every
``INSERT OR REPLACE`` knows which oids it replaces, and every cycle can
carry the answer the view must return once the write is visible.  Only
the standard-library ``random.Random(seed)`` is used, so one seed gives
one statement sequence on every machine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

SCHEMA = (
    "CREATE TABLE customers (cust_id VARCHAR PRIMARY KEY, region VARCHAR);"
    "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust_id VARCHAR, "
    "product VARCHAR, amount INTEGER)"
)
REGIONS = [f"region_{c}" for c in "abcdefgh"]
PRODUCTS = [f"prod_{i:03d}" for i in range(30)]
MAX_AMOUNT = 500
# rev_region keeps only orders above this amount (the filtered view).
REGION_FLOOR = 100
# Rows per bulk-load INSERT statement.
LOAD_CHUNK = 500


@dataclass
class Read:
    """One view SELECT and the predicate its rows must satisfy."""

    sql: str
    expect: Callable[[list], bool]


@dataclass
class Cycle:
    """Write statement(s), then the view read(s) that must reflect them.

    ``idle_read`` repeats a view SELECT with nothing pending (the
    ``view_read_ms_p50`` sample); ``refresh`` names the explicit refresh
    the client issues between the writes and the reads (``"all"``, a
    view name, or None for a lazy refresh inside the SELECT).
    """

    writes: list[str]
    rows: int
    reads: list[Read]
    refresh: str | None = None
    idle_read: str | None = None


class OrdersModel:
    """Shadow of ``customers``/``orders`` that emits the DML text."""

    def __init__(self, seed: int, customers: int, zipf: float = 0.0) -> None:
        self.rng = random.Random(seed)
        self.customers = [
            (f"cust_{i:05d}", self.rng.choice(REGIONS)) for i in range(customers)
        ]
        # Zipf(s) over customer rank; the shuffle decouples rank from id.
        self._ranked = list(range(customers))
        self.rng.shuffle(self._ranked)
        self._cum_weights = (
            list(itertools.accumulate(1.0 / (r + 1) ** zipf for r in range(customers)))
            if zipf > 0
            else None
        )
        self.live: dict[int, tuple[str, int]] = {}  # oid -> (cust_id, amount)
        self._oids: list[int] = []  # live oids, for O(1) uniform picks
        self._slot: dict[int, int] = {}
        self.per_cust: dict[str, list[int]] = {}  # cust_id -> [revenue, n]
        self.total_amount = 0
        self.over_floor = [0, 0]  # [revenue, n] of orders rev_region keeps
        self.next_oid = 1

    # -- shadow bookkeeping -------------------------------------------------

    def _add(self, oid: int, cust: str, amount: int) -> None:
        self.live[oid] = (cust, amount)
        self._slot[oid] = len(self._oids)
        self._oids.append(oid)
        entry = self.per_cust.setdefault(cust, [0, 0])
        entry[0] += amount
        entry[1] += 1
        self.total_amount += amount
        if amount > REGION_FLOOR:
            self.over_floor[0] += amount
            self.over_floor[1] += 1

    def _remove(self, oid: int) -> tuple[str, int]:
        cust, amount = self.live.pop(oid)
        slot = self._slot.pop(oid)
        last = self._oids.pop()
        if last != oid:
            self._oids[slot] = last
            self._slot[last] = slot
        entry = self.per_cust[cust]
        entry[0] -= amount
        entry[1] -= 1
        if entry[1] == 0:
            del self.per_cust[cust]
        self.total_amount -= amount
        if amount > REGION_FLOOR:
            self.over_floor[0] -= amount
            self.over_floor[1] -= 1
        return cust, amount

    def _pick_customers(self, count: int) -> list[str]:
        if self._cum_weights is None:
            picks = [self.rng.randrange(len(self.customers)) for _ in range(count)]
        else:
            picks = [
                self._ranked[rank]
                for rank in self.rng.choices(
                    range(len(self.customers)), cum_weights=self._cum_weights, k=count
                )
            ]
        return [self.customers[i][0] for i in picks]

    def _new_rows(self, oids: list[int]) -> list[tuple[int, str, str, int]]:
        custs = self._pick_customers(len(oids))
        return [
            (oid, cust, self.rng.choice(PRODUCTS), self.rng.randint(1, MAX_AMOUNT))
            for oid, cust in zip(oids, custs)
        ]

    def _fresh_oids(self, count: int) -> list[int]:
        oids = list(range(self.next_oid, self.next_oid + count))
        self.next_oid += count
        return oids

    @staticmethod
    def _values(rows) -> str:
        return ",".join(f"({o},'{c}','{p}',{a})" for o, c, p, a in rows)

    # -- statements -----------------------------------------------------------

    def load_statements(self, orders: int) -> list[str]:
        """Schema plus the bulk load, as multi-row INSERT statements."""
        statements = [SCHEMA]
        for start in range(0, len(self.customers), LOAD_CHUNK):
            chunk = self.customers[start : start + LOAD_CHUNK]
            statements.append(
                "INSERT INTO customers VALUES "
                + ",".join(f"('{c}','{r}')" for c, r in chunk)
            )
        for start in range(0, orders, LOAD_CHUNK):
            statements.append(self.insert(min(LOAD_CHUNK, orders - start))[0])
        return statements

    def insert(self, count: int) -> tuple[str, list[str]]:
        """``count`` new orders; returns the SQL and the customers touched."""
        rows = self._new_rows(self._fresh_oids(count))
        for oid, cust, _, amount in rows:
            self._add(oid, cust, amount)
        return f"INSERT INTO orders VALUES {self._values(rows)}", [r[1] for r in rows]

    def upsert(self, count: int, replace_share: float) -> str:
        """``INSERT OR REPLACE`` of ``count`` rows, ``replace_share`` of
        which carry an oid that already exists (a retraction of the old
        row through the primary-key index, no table scan)."""
        replaced = min(int(count * replace_share), len(self._oids))
        old = self.rng.sample(self._oids, replaced)
        rows = self._new_rows(old + self._fresh_oids(count - replaced))
        self.rng.shuffle(rows)
        for oid in old:
            self._remove(oid)
        for oid, cust, _, amount in rows:
            self._add(oid, cust, amount)
        return f"INSERT OR REPLACE INTO orders VALUES {self._values(rows)}"

    def update_one(self) -> tuple[str, str]:
        """Single-row ``UPDATE … WHERE oid = k``; returns SQL and customer."""
        oid = self.rng.choice(self._oids)
        cust, _ = self._remove(oid)
        amount = self.rng.randint(1, MAX_AMOUNT)
        self._add(oid, cust, amount)
        return f"UPDATE orders SET amount = {amount} WHERE oid = {oid}", cust

    def delete_one(self) -> tuple[str, str]:
        """Single-row ``DELETE … WHERE oid = k``; returns SQL and customer."""
        oid = self.rng.choice(self._oids)
        cust, _ = self._remove(oid)
        return f"DELETE FROM orders WHERE oid = {oid}", cust

    # -- expected answers -------------------------------------------------------

    def expect_customer(self, cust: str) -> Callable[[list], bool]:
        """Rows of ``SELECT revenue, n FROM rev_cust WHERE cust_id = …``."""
        entry = self.per_cust.get(cust)
        return self.expect_rows(*([] if entry is None else [tuple(entry)]))

    @staticmethod
    def expect_rows(*want: tuple) -> Callable[[list], bool]:
        """Exactly these rows, in this order."""
        return lambda rows: [tuple(r) for r in rows] == list(want)

    @staticmethod
    def expect_totals(*columns: tuple[int, int]) -> Callable[[list], bool]:
        """Column sums of a whole-view read: ``(ordinal, wanted sum)``."""
        return lambda rows: all(
            sum(row[ordinal] for row in rows) == want for ordinal, want in columns
        )

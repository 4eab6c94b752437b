"""Deterministic cost guard for point DML: function calls per statement.

Counts the interpreter's call events (a count, not a clock, like
``tests/sql/test_parse_cost.py``) while ``UPDATE … WHERE pk = k`` and
``DELETE … WHERE pk = k`` run against a small and a large table.  Through
the primary-key ART a statement costs parse + bind + one search + the row
change, and table size adds only the tree's extra levels; the scan this
replaced made 12 calls per row in the table (240 000 on the large one).
"""

import sys

import pytest

from repro import Connection

SMALL, LARGE = 1_000, 20_000
# statement → (ceiling on its calls, what the row reads as afterwards)
STATEMENTS = {
    "UPDATE orders SET amount = 7": (600, [(7,)]),
    "DELETE FROM orders": (450, []),
}
MAX_GROWTH = 40  # calls the deeper tree may add


def _count_calls(function) -> int:
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def _orders(rows: int) -> Connection:
    con = Connection()
    con.execute(
        "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust_id VARCHAR, "
        "product VARCHAR, amount INTEGER)"
    )
    con.table("orders").insert_batch(
        [(i, f"c{i % 50}", "p", i % 500) for i in range(rows)]
    )
    return con


@pytest.mark.parametrize("statement", sorted(STATEMENTS))
def test_point_dml_cost_does_not_grow_with_the_table(statement):
    ceiling, afterwards = STATEMENTS[statement]
    calls = {}
    for rows in (SMALL, LARGE):
        con = _orders(rows)
        where = f"WHERE oid = {rows // 2}"
        calls[rows] = _count_calls(lambda: con.execute(f"{statement} {where}"))
        assert con.execute(f"SELECT amount FROM orders {where}").rows == afterwards
    assert calls[LARGE] <= ceiling
    assert abs(calls[LARGE] - calls[SMALL]) <= MAX_GROWTH

"""Deterministic cost guard for the front end: function calls per value.

Counts the interpreter's call events (Python frames and C functions
alike) while a 250-row literal ``VALUES`` statement is parsed — a count,
not a clock, so it is the same on every machine.  The character-loop
lexer and precedence-cascade parser this replaced made ~120 calls per
value; this front end makes 13.
"""

import sys

from repro.sql.parser import parse_script

ROWS, COLUMNS = 250, 4
MAX_CALLS_PER_VALUE = 15


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


def test_literal_values_statement_costs_a_few_calls_per_value():
    sql = "INSERT OR REPLACE INTO orders VALUES " + ",".join(
        f"({i},'cust_{i:05d}','prod_{i % 30:03d}',{i % 500 - 250})" for i in range(ROWS)
    )
    (statement,) = parse_script(sql)
    assert len(statement.values) == ROWS
    calls = _count_calls(lambda: parse_script(sql))
    assert calls / (ROWS * COLUMNS) <= MAX_CALLS_PER_VALUE

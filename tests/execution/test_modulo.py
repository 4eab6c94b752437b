"""Integer ``%`` takes the sign of the dividend, as in SQL engines.

Python's ``%`` floors (``-7 % 3 == 2``); DuckDB, PostgreSQL and SQLite
truncate (``-7 % 3 == -1``).  The row evaluator, the batch kernel, the
constant folder and ``MOD()`` share one helper, so each is checked here
against stdlib ``sqlite3`` on every sign combination, plus NULL and the
``% 0`` error.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import Connection
from repro.datatypes.types import INTEGER
from repro.errors import ExecutionError
from repro.execution.expression import (
    batch_eval,
    compile_batch_expression,
    compile_expression,
)
from repro.planner.expressions import BoundBinary, BoundColumn, BoundConstant
from repro.zset.batch import ZSetBatch

PAIRS = [(7, 3), (-7, 3), (7, -3), (-7, -3), (None, 3), (7, None)]


def _sqlite(lhs, rhs):
    with sqlite3.connect(":memory:") as con:
        return con.execute("SELECT ? % ?", (lhs, rhs)).fetchone()[0]


def _literal(value) -> str:
    return "NULL" if value is None else str(value)


def _column_mod():
    return BoundBinary(
        op="%",
        left=BoundColumn(index=0, type=INTEGER),
        right=BoundColumn(index=1, type=INTEGER),
    )


def test_sign_follows_the_dividend():
    assert [_sqlite(lhs, rhs) for lhs, rhs in PAIRS[:4]] == [1, -1, 1, -1]


@pytest.mark.parametrize("lhs,rhs", PAIRS)
def test_row_evaluator_matches_sqlite(lhs, rhs):
    row_eval = compile_expression(_column_mod())
    assert row_eval((lhs, rhs), None) == _sqlite(lhs, rhs)


def test_batch_kernel_matches_sqlite():
    batch = ZSetBatch.from_rows(PAIRS, arity=2)
    got = list(batch_eval(compile_batch_expression(_column_mod()), batch, None))
    assert got == [_sqlite(lhs, rhs) for lhs, rhs in PAIRS]


@pytest.mark.parametrize("lhs,rhs", PAIRS)
def test_sql_operator_and_mod_function_match_sqlite(lhs, rhs):
    con = Connection()
    want = _sqlite(lhs, rhs)
    # Literal operands: the optimizer folds the constant expression.
    assert con.execute(f"SELECT {_literal(lhs)} % {_literal(rhs)}").rows == [
        (want,)
    ]
    assert con.execute(
        f"SELECT MOD({_literal(lhs)}, {_literal(rhs)})"
    ).rows == [(want,)]
    con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    con.execute("INSERT INTO t VALUES (?, ?)", [lhs, rhs])
    assert con.execute("SELECT a % b FROM t").rows == [(want,)]


def test_modulo_by_zero_is_an_error():
    with pytest.raises(ExecutionError, match="modulo by zero"):
        compile_expression(_column_mod())((7, 0), None)
    batch = ZSetBatch.from_rows([(-7, 0)], arity=2)
    with pytest.raises(ExecutionError, match="modulo by zero"):
        batch_eval(compile_batch_expression(_column_mod()), batch, None)
    with pytest.raises(ExecutionError, match="modulo by zero"):
        compile_expression(
            BoundBinary(op="%", left=BoundConstant(7), right=BoundConstant(0))
        )((), None)
    with pytest.raises(ExecutionError, match="modulo by zero"):
        Connection().execute("SELECT 7 % 0")

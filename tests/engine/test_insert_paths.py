"""Differential oracle for the two ways a VALUES cell reaches storage.

A literal cell (``5``, ``-2.5e3``, ``'it''s'``, ``NULL``, ``TRUE``) is
taken straight from the AST; any other cell is bound, compiled and
evaluated.  Spelling the same value both ways — ``v`` against ``v + 0``,
``s`` against ``s || ''`` — must store identical rows and hand identical
payloads to the AFTER triggers, under OR REPLACE, column lists and ``?``
parameters alike.
"""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Connection
from repro.errors import ReproError

_DDL = (
    "CREATE TABLE t (k INTEGER PRIMARY KEY, i INTEGER, d DOUBLE, "
    "s VARCHAR, dt DATE, b BOOLEAN)"
)
_COLUMNS = ["k", "i", "d", "s", "dt", "b"]


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _cell(literal: str, general: str, parameter=None):
    """One value spelled for the literal path and for the general path;
    ``parameter`` set means both statements say ``?`` and bind it."""
    return (literal, general, parameter)


def _number(spelling: str):
    return _cell(spelling, f"{spelling} + 0")


def _string(text: str):
    return _cell(_quote(text), f"{_quote(text)} || ''")


_NULL_NUMBER = _cell("NULL", "NULL + 0")
_NULL_STRING = _cell("NULL", "NULL || ''")

_ints = st.integers(min_value=-(10**9), max_value=10**9)
_int_cells = _ints.map(lambda n: _number(str(n)))
_float_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        lambda f: _number(repr(float(f)))
    ),
    st.tuples(st.integers(-999, 999), st.integers(-9, 9)).map(
        lambda me: _number(f"{me[0]}E{me[1]:+d}")
    ),
    _int_cells,
)
_text = st.text(alphabet="ab' \n\"%é", max_size=6)
_dates = st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 12, 31)).map(
    lambda day: _string(day.isoformat())
)
_bools = st.sampled_from(
    [_cell("TRUE", "NOT FALSE"), _cell("FALSE", "NOT TRUE"), _cell("NULL", "NOT NULL")]
)


def _or_parameter(cells, values):
    """Some cells arrive as ``?`` with the value bound at execution."""
    return st.one_of(cells, values.map(lambda v: _cell("?", "?", parameter=(v,))))


_row = st.fixed_dictionaries(
    {
        # A narrow key range, so OR REPLACE replaces and plain INSERT collides.
        "k": st.integers(min_value=-3, max_value=6).map(lambda n: _number(str(n))),
        "i": _or_parameter(st.one_of(_int_cells, st.just(_NULL_NUMBER)), _ints),
        "d": st.one_of(_float_cells, st.just(_NULL_NUMBER)),
        "s": _or_parameter(st.one_of(_text.map(_string), st.just(_NULL_STRING)), _text),
        "dt": st.one_of(_dates, st.just(_NULL_STRING)),
        "b": _bools,
    }
)
_statement = st.fixed_dictionaries(
    {
        "rows": st.lists(_row, min_size=1, max_size=4),
        "or_replace": st.booleans(),
        # None: no column list; else the key plus a shuffled subset.
        "columns": st.none()
        | st.lists(st.sampled_from(_COLUMNS[1:]), unique=True).flatmap(
            lambda rest: st.permutations(["k", *rest])
        ),
    }
)


def _render(statement, spelling: int) -> tuple[str, list]:
    columns = statement["columns"] or _COLUMNS
    parameters: list = []
    rows = []
    for row in statement["rows"]:
        cells = [row[name] for name in columns]
        rows.append("(" + ", ".join(cell[spelling] for cell in cells) + ")")
        parameters.extend(cell[2][0] for cell in cells if cell[2] is not None)
    verb = "INSERT OR REPLACE" if statement["or_replace"] else "INSERT"
    column_list = f" ({', '.join(columns)})" if statement["columns"] else ""
    return f"{verb} INTO t{column_list} VALUES {', '.join(rows)}", parameters


def _engine():
    con = Connection()
    con.execute(_DDL)
    log: list = []
    for event in ("INSERT", "DELETE"):
        con.triggers.register(
            "log", "t", event, lambda _con, event, _table, rows: log.append((event, rows))
        )
    return con, log


def _typed(rows):
    return [[(type(value), value) for value in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.lists(_statement, min_size=1, max_size=4))
def test_literal_and_general_cells_store_and_report_the_same(statements):
    (literal, literal_log), (general, general_log) = _engine(), _engine()
    for statement in statements:
        outcomes = []
        for con, spelling in ((literal, 0), (general, 1)):
            sql, parameters = _render(statement, spelling)
            try:
                outcomes.append(con.execute(sql, parameters).rowcount)
            except ReproError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1]
        stored = [
            _typed(con.execute("SELECT * FROM t ORDER BY k").rows)
            for con in (literal, general)
        ]
        assert stored[0] == stored[1]
        assert [(e, _typed(rows)) for e, rows in literal_log] == [
            (e, _typed(rows)) for e, rows in general_log
        ]


def test_triggers_see_storage_coerced_rows_from_literal_cells():
    con, log = _engine()
    con.execute("INSERT INTO t VALUES (1, '7', 2, 3, '2024-02-29', 'yes')")
    assert log == [
        ("INSERT", [(1, 7, 2.0, "3", datetime.date(2024, 2, 29), True)])
    ]

"""Differential oracle for the access path: index probe vs table scan.

Every example builds one random table twice, in two connections: once
with its primary key / secondary index, once as a twin with neither, so
the twin can only scan.  The same SELECT, UPDATE or DELETE then runs on
both and must be indistinguishable: identical rows in identical order,
identical ``rowcount``, identical trigger payloads, identical table
contents slot by slot, and the identical exception type.

Key comparisons draw their literals from a pool that mixes storage
classes (``1.0``, ``'1'``, ``TRUE``, ISO date strings, ``-0.0``, NULL),
as text or as ``?`` parameters; the other conjuncts (a range on ``v``, an
``OR``) are ones that cannot raise, because the probe only evaluates
those on the rows it finds (see "Access paths" in docs/architecture.md).
"""

from __future__ import annotations

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Connection
from repro.datatypes.values import sql_format_literal

D1, D2, D3 = (datetime.date(2024, 1, d) for d in (1, 2, 3))
# Stored values per key type: few, so keys collide and probes hit.
STORED = {
    "INTEGER": [-1, 0, 1, 2, 3],
    "DOUBLE": [-0.0, 0.0, 1.0, 1.5, 2.0],
    "VARCHAR": ["1", "a", "b", "2024-01-01", ""],
    "DATE": [D1, D2, D3],
    "BOOLEAN": [True, False],
}
# What a predicate compares a key column with, whatever the column's type.
MIXED = [0, 1, 2, 7, 1.0, -0.0, 1.5, "1", "a", "2024-01-01", "", True, False, None, D1, D2]
LAYOUTS = ("pk", "composite", "secondary", "none")


def _literal(value) -> str:
    if isinstance(value, datetime.date):
        return f"CAST('{value.isoformat()}' AS DATE)"
    return sql_format_literal(value)


@st.composite
def tables(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    types = [draw(st.sampled_from(sorted(STORED))) for _ in range(2)]
    unique = {"pk": 1, "composite": 2}.get(layout, 0)  # leading PK columns
    rows, seen = [], set()
    for _ in range(draw(st.integers(0, 12))):
        keys = [
            draw(st.sampled_from(STORED[t] + ([None] if i >= unique else [])))
            for i, t in enumerate(types)
        ]
        identity = tuple(keys[:unique])  # -0.0 == 0.0: one key
        if unique and identity in seen:
            continue
        seen.add(identity)
        rows.append((*keys, draw(st.sampled_from([None, 0, 1, 2, 3]))))
    return layout, types, rows


KEY_KINDS = ["eq", "eq", "flipped", "in", "in"]
INDEXED = {"pk": ["k1"], "composite": ["k1", "k2"], "secondary": ["k1"], "none": []}


@st.composite
def conjuncts(draw, types, column=None):
    """One conjunct as ``(sql, parameters)``: any kind on either column,
    or a key comparison on ``column``."""
    params: list = []
    kinds = KEY_KINDS if column else KEY_KINDS + ["range", "or"]
    column = column or draw(st.sampled_from(["k1", "k2"]))
    own_class = STORED[types[column == "k2"]]

    def operand():
        # Mostly of the column's class (these probe), often not (these scan).
        value = draw(st.sampled_from(own_class if draw(st.integers(0, 5)) else MIXED))
        if draw(st.integers(0, 3)) == 0:
            params.append(value)
            return "?"
        return _literal(value)

    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        sql = f"{column} = {operand()}"
    elif kind == "flipped":
        sql = f"{operand()} = {column}"
    elif kind == "in":
        sql = f"{column} IN ({', '.join(operand() for _ in range(draw(st.integers(1, 4))))})"
    elif kind == "range":
        sql = draw(st.sampled_from(["v > 0", "v <= 2", "v IS NOT NULL", "v <> 1"]))
    else:  # same-class alternatives: an OR is never a key
        a, b = (_literal(draw(st.sampled_from(own_class))) for _ in range(2))
        sql = f"({column} = {a} OR {column} = {b})"
    return sql, params


@st.composite
def statements(draw, layout, types):
    # Usually a key comparison per indexed column, so that the index is
    # covered; then anything, in any order.
    parts = [
        draw(conjuncts(types, column))
        for column in INDEXED[layout]
        if draw(st.integers(0, 4))
    ]
    parts += draw(st.lists(conjuncts(types), max_size=2))
    parts = draw(st.permutations(parts)) or [draw(conjuncts(types))]
    where = " AND ".join(sql for sql, _ in parts)
    params = [p for _, ps in parts for p in ps]
    kind = draw(st.sampled_from(["SELECT", "SELECT", "UPDATE", "DELETE"]))
    if kind == "SELECT":
        return f"SELECT * FROM t WHERE {where}", params
    if kind == "DELETE":
        return f"DELETE FROM t WHERE {where}", params
    if layout in ("secondary", "none") and draw(st.booleans()):
        # Rewrites the indexed column itself (no uniqueness to violate).
        moved = _literal(draw(st.sampled_from(STORED[types[0]])))
        return f"UPDATE t SET k1 = {moved}, v = v + 1 WHERE {where}", params
    return f"UPDATE t SET v = v + 1 WHERE {where}", params


@st.composite
def cases(draw):
    layout, types, rows = draw(tables())
    return layout, types, rows, draw(
        st.lists(statements(layout, types), min_size=1, max_size=4)
    )


def _build(layout, types, rows, indexed: bool):
    con = Connection()
    key = {"pk": ", PRIMARY KEY (k1)", "composite": ", PRIMARY KEY (k1, k2)"}
    constraint = key.get(layout, "") if indexed else ""
    con.execute(
        f"CREATE TABLE t (k1 {types[0]}, k2 {types[1]}, v INTEGER{constraint})"
    )
    if indexed and layout == "secondary":
        con.execute("CREATE INDEX by_k1 ON t (k1)")
    con.table("t").insert_batch(rows)
    fired: list = []
    for event in ("INSERT", "UPDATE", "DELETE"):
        con.triggers.register(
            f"spy_{event}", "t", event,
            lambda _con, event, _table, payload: fired.append((event, list(payload))),
        )
    return con, fired


def _run(con, fired, sql, params):
    try:
        result = con.execute(sql, params)
        outcome = ("ok", result.rows, result.rowcount)
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        outcome = ("raised", type(error).__name__)
    return outcome, list(fired), list(con.table("t").scan_with_ids())


@settings(max_examples=500, deadline=None)
@given(cases())
def test_probe_and_scan_are_indistinguishable(case):
    layout, types, rows, script = case
    probing, probing_fired = _build(layout, types, rows, indexed=True)
    scanning, scanning_fired = _build(layout, types, rows, indexed=False)
    for sql, params in script:
        got = _run(probing, probing_fired, sql, params)
        want = _run(scanning, scanning_fired, sql, params)
        assert got == want, (layout, types, rows, sql, params)


def test_the_indexed_side_really_probes():
    """The property is vacuous if both sides scan: on each indexed layout
    a class-matched key predicate plans an INDEX_SCAN, and the twin a GET."""
    for layout, index in (("pk", "__pk__"), ("composite", "__pk__"), ("secondary", "by_k1")):
        probing, _ = _build(layout, ["INTEGER", "INTEGER"], [(1, 1, 1)], indexed=True)
        scanning, _ = _build(layout, ["INTEGER", "INTEGER"], [(1, 1, 1)], indexed=False)
        sql = "SELECT * FROM t WHERE k2 = 1 AND k1 IN (1, 2) AND v > 0"
        assert f"INDEX_SCAN t USING {index}" in probing.explain(sql)
        assert "INDEX_SCAN" not in scanning.explain(sql)

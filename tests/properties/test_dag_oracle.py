"""Two-engine differential oracle for cascaded (view-over-view) IVM.

The same seeded DML stream is replayed against three DAG topologies —
a 2-level chain, a 3-level chain, and a diamond (two aggregate views
over one base table joined back together) — on two engine
configurations: **sql** (pure SQL propagation) and **native**
(vectorized batch kernels). After every few steps each
DAG level is checked against a full recompute of its defining query
over its upstream's stored table, so an error introduced at level *k*
is caught at level *k* rather than smeared into the leaf.

The step budget across topologies × engines is asserted to stay at or
above 200 DML statements, mirroring the chaos-oracle budget test.
"""

from __future__ import annotations

import random

import pytest

from repro import CompilerFlags, Connection, PropagationMode, load_ivm

CHAIN2_STEPS = 36
CHAIN3_STEPS = 36
DIAMOND_STEPS = 36
VERIFY_EVERY = 3

ENGINES = [
    ("sql", dict(batch_kernels=False)),
    ("native", dict(batch_kernels=True)),
]

GROUPS = "abcdef"


def _engine(mode: PropagationMode, overrides: dict):
    con = Connection()
    ext = load_ivm(con, CompilerFlags(mode=mode, **overrides))
    con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
    # A pinned sentinel group keeps every level non-empty so scalar
    # aggregates never cross the empty-input edge mid-run.
    con.execute("INSERT INTO t VALUES ('zz', 1000), ('zz', 500)")
    for g in GROUPS:
        con.execute("INSERT INTO t VALUES (?, ?)", [g, 20])
    return con, ext


def _apply_step(con: Connection, rng: random.Random) -> None:
    kind = rng.choice(("insert", "insert", "insert", "delete", "update"))
    if kind == "insert":
        for _ in range(rng.randint(1, 3)):
            con.execute(
                "INSERT INTO t VALUES (?, ?)",
                [rng.choice(GROUPS), rng.randint(-50, 100)],
            )
    elif kind == "delete":
        con.execute(
            "DELETE FROM t WHERE g = ? AND v < ?",
            [rng.choice(GROUPS), rng.randint(-20, 40)],
        )
    else:
        con.execute(
            "UPDATE t SET v = v + ? WHERE g = ?",
            [rng.randint(-15, 15), rng.choice(GROUPS)],
        )


def _check_levels(con: Connection, levels: list[tuple[str, str]], label: str):
    """Each (view select, recompute select) pair must agree.

    The leaf is read first: under LAZY/BATCH that one read pulls the
    whole upstream closure fresh in topological order, so the per-level
    comparisons below see a converged DAG.
    """
    con.execute(levels[-1][0])
    for view_select, recompute_select in levels:
        got = con.execute(view_select).sorted()
        want = con.execute(recompute_select).sorted()
        assert got == want, (
            f"{label}: {view_select!r} diverged\n got={got}\nwant={want}"
        )


@pytest.mark.parametrize("label,overrides", ENGINES, ids=[e[0] for e in ENGINES])
def test_two_level_chain_matches_recompute(label, overrides):
    con, _ = _engine(PropagationMode.EAGER, overrides)
    con.execute(
        "CREATE MATERIALIZED VIEW v1 AS "
        "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW v2 AS SELECT g, s FROM v1 WHERE s > 10"
    )
    levels = [
        ("SELECT g, s, n FROM v1",
         "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g"),
        ("SELECT g, s FROM v2", "SELECT g, s FROM v1 WHERE s > 10"),
    ]
    rng = random.Random(1201)
    for step in range(CHAIN2_STEPS):
        _apply_step(con, rng)
        if step % VERIFY_EVERY == 0:
            _check_levels(con, levels, f"chain2/{label}/step{step}")
    _check_levels(con, levels, f"chain2/{label}/final")


@pytest.mark.parametrize("label,overrides", ENGINES, ids=[e[0] for e in ENGINES])
def test_three_level_chain_matches_recompute(label, overrides):
    con, ext = _engine(PropagationMode.LAZY, overrides)
    con.execute(
        "CREATE MATERIALIZED VIEW v1 AS "
        "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW v2 AS SELECT g, s FROM v1 WHERE s > 10"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW v3 AS "
        "SELECT SUM(s) AS grand, COUNT(*) AS ng FROM v2"
    )
    levels = [
        ("SELECT g, s, n FROM v1",
         "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g"),
        ("SELECT g, s FROM v2", "SELECT g, s FROM v1 WHERE s > 10"),
        ("SELECT grand, ng FROM v3", "SELECT SUM(s), COUNT(*) FROM v2"),
    ]
    rng = random.Random(1301)
    for step in range(CHAIN3_STEPS):
        _apply_step(con, rng)
        if step % VERIFY_EVERY == 0:
            _check_levels(con, levels, f"chain3/{label}/step{step}")
    _check_levels(con, levels, f"chain3/{label}/final")
    status = {entry["view"]: entry for entry in ext.status()}
    assert [status[v]["depth"] for v in ("v1", "v2", "v3")] == [0, 1, 2]


@pytest.mark.parametrize("label,overrides", ENGINES, ids=[e[0] for e in ENGINES])
def test_diamond_matches_recompute(label, overrides):
    """Two aggregate views over one base table, rejoined by a third: the
    join view sees the *same* base change through both arms and must not
    double-apply it."""
    con, _ = _engine(PropagationMode.BATCH, dict(overrides, batch_size=4))
    con.execute(
        "CREATE MATERIALIZED VIEW arm_sum AS "
        "SELECT g, SUM(v) AS s FROM t GROUP BY g"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW arm_cnt AS "
        "SELECT g, COUNT(*) AS n FROM t GROUP BY g"
    )
    con.execute(
        "CREATE MATERIALIZED VIEW joined AS "
        "SELECT arm_sum.g, SUM(arm_sum.s) AS s, SUM(arm_cnt.n) AS n "
        "FROM arm_sum JOIN arm_cnt ON arm_sum.g = arm_cnt.g "
        "GROUP BY arm_sum.g"
    )
    levels = [
        ("SELECT g, s FROM arm_sum", "SELECT g, SUM(v) FROM t GROUP BY g"),
        ("SELECT g, n FROM arm_cnt", "SELECT g, COUNT(*) FROM t GROUP BY g"),
        ("SELECT g, s, n FROM joined",
         "SELECT arm_sum.g, SUM(arm_sum.s), SUM(arm_cnt.n) "
         "FROM arm_sum JOIN arm_cnt ON arm_sum.g = arm_cnt.g "
         "GROUP BY arm_sum.g"),
    ]
    rng = random.Random(1401)
    for step in range(DIAMOND_STEPS):
        _apply_step(con, rng)
        if step % VERIFY_EVERY == 0:
            _check_levels(con, levels, f"diamond/{label}/step{step}")
    _check_levels(con, levels, f"diamond/{label}/final")


def test_dag_step_budget():
    """The DAG oracle replays at least 200 seeded DML statements."""
    per_engine = CHAIN2_STEPS + CHAIN3_STEPS + DIAMOND_STEPS
    assert per_engine * len(ENGINES) >= 200

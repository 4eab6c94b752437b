"""Differential-testing harness: recompute vs. SQL vs. mixed vs. native.

Randomized DML scripts (seeded, from :mod:`repro.workloads.generators`)
are replayed through three propagation engines for the same view:

(a) **pure SQL** — the compiled script end to end
    (``batch_kernels=False``), the row-at-a-time baseline;
(b) **mixed** — native step 1 (vectorized Z-set kernels, ART-indexed join
    state) with SQL steps 2–4 (``native_steps=(1,)``), the first batching
    milestone's shape;
(c) **full native** — the complete ``NativeStep`` pipeline: signed-collapse
    upsert, exact liveness delete, in-memory truncation (the default).

After *every* batch all three must agree with each other and with the
full recompute of the view query (the specification).  The scripts cover
all three propagation modes — eager, lazy, and batch — and total well
over the 200 randomized DML steps the milestone requires (asserted
explicitly at the bottom).
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CompilerFlags,
    Connection,
    MaterializationStrategy,
    PropagationMode,
    load_ivm,
)
from repro.workloads import generate_change_stream, generate_groups_rows
from repro.workloads.generators import generate_sales_workload

GROUPS_VIEW = (
    "CREATE MATERIALIZED VIEW q AS "
    "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n "
    "FROM groups GROUP BY group_index"
)
GROUPS_RECOMPUTE = (
    "SELECT group_index, SUM(group_value), COUNT(*) "
    "FROM groups GROUP BY group_index"
)

JOIN_VIEW = (
    "CREATE MATERIALIZED VIEW rev AS "
    "SELECT c.region, SUM(o.amount) AS revenue, COUNT(*) AS n "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)
JOIN_RECOMPUTE = (
    "SELECT c.region, SUM(o.amount), COUNT(*) "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)

ALL_MODES = [PropagationMode.EAGER, PropagationMode.LAZY, PropagationMode.BATCH]

# (flag overrides, expected status) per engine: pure SQL / mixed / native.
ENGINE_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("mixed", dict(batch_kernels=True, native_steps=(1,))),
    ("native", dict(batch_kernels=True)),
]


def _engines(schema_fn, view_sql, mode=PropagationMode.LAZY):
    """Three IVM engines (SQL / mixed / full native) over identical data."""
    engines = []
    for label, overrides in ENGINE_CONFIGS:
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=mode, **overrides))
        schema_fn(con)
        con.execute(view_sql)
        engines.append((label, con, ext))
    # The harness is only meaningful if the engines actually take the
    # three distinct propagation paths.
    by_label = {label: ext for label, _, ext in engines}
    assert by_label["sql"].status()[0]["native_steps"] == []
    assert by_label["mixed"].status()[0]["native_steps"] == ["step1"]
    native_steps = by_label["native"].status()[0]["native_steps"]
    assert "step2" in native_steps and "step3" in native_steps
    assert "step4" in native_steps
    return [con for _, con, _ in engines]


def _check_agreement(cons, view_name: str, columns: str, recompute_sql: str):
    """Every engine == its own recompute == every other engine (querying
    the view refreshes it under the lazy/batch policies)."""
    results = [
        (
            con.execute(f"SELECT {columns} FROM {view_name}").sorted(),
            con.execute(recompute_sql).sorted(),
        )
        for con in cons
    ]
    recomputes = [want for _, want in results]
    assert all(want == recomputes[0] for want in recomputes), (
        "engines diverged on base data"
    )
    for (label, _), (got, want) in zip(ENGINE_CONFIGS, results):
        assert got == want, f"{label} path diverged from recompute"


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
def test_groups_three_way_oracle(mode):
    """Single-table SUM/COUNT view over a mixed insert/delete stream, in
    every propagation mode."""
    initial = generate_groups_rows(300, num_groups=20, seed=9)

    def schema(con: Connection) -> None:
        con.execute(
            "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
        )
        table = con.table("groups")
        for row in initial:
            table.insert(row, coerce=False)

    cons = _engines(schema, GROUPS_VIEW, mode=mode)

    steps = 0
    stream = generate_change_stream(
        initial, batch_size=2, batches=35, num_groups=20, seed=13
    )
    for batch in stream:
        for row in batch.inserts:
            for con in cons:
                con.execute("INSERT INTO groups VALUES (?, ?)", list(row))
            steps += 1
        for row in batch.deletes:
            for con in cons:
                con.execute(
                    "DELETE FROM groups WHERE group_index = ? AND group_value = ?",
                    list(row),
                )
            steps += 1
        _check_agreement(
            cons, "q", "group_index, total_value, n", GROUPS_RECOMPUTE
        )
    assert steps >= 70


def test_join_three_way_oracle():
    """Two-table join-aggregation view: the ART-indexed state path for
    step 1 plus the native upsert/liveness/truncate steps."""
    workload = generate_sales_workload(
        num_customers=30, num_orders=200, num_regions=5, seed=23
    )

    def schema(con: Connection) -> None:
        con.execute(workload.SCHEMA)
        customers = con.table("customers")
        for row in workload.customers:
            customers.insert(row, coerce=False)
        orders = con.table("orders")
        for row in workload.orders:
            orders.insert(row, coerce=False)

    cons = _engines(schema, JOIN_VIEW)

    rng = random.Random(37)
    live_orders = [row[0] for row in workload.orders]
    next_oid = workload.next_order_id()
    next_cust = len(workload.customers)
    steps = 0
    for _ in range(90):
        roll = rng.random()
        if roll < 0.5 or not live_orders:
            # Insert an order (sometimes for a brand-new customer).
            if rng.random() < 0.15:
                cust = f"cust_{next_cust:05d}"
                next_cust += 1
                region = rng.choice(workload.regions)
                for con in cons:
                    con.execute(
                        "INSERT INTO customers VALUES (?, ?)", [cust, region]
                    )
                steps += 1
            else:
                cust = workload.customers[
                    rng.randrange(len(workload.customers))
                ][0]
            oid = next_oid
            next_oid += 1
            amount = rng.randint(1, 500)
            for con in cons:
                con.execute(
                    "INSERT INTO orders VALUES (?, ?, ?, ?)",
                    [oid, cust, "p", amount],
                )
            live_orders.append(oid)
            steps += 1
        elif roll < 0.85:
            victim = live_orders.pop(rng.randrange(len(live_orders)))
            for con in cons:
                con.execute("DELETE FROM orders WHERE oid = ?", [victim])
            steps += 1
        else:
            # Update an order's amount (captured as delete+insert).
            target = live_orders[rng.randrange(len(live_orders))]
            amount = rng.randint(1, 500)
            for con in cons:
                con.execute(
                    "UPDATE orders SET amount = ? WHERE oid = ?",
                    [amount, target],
                )
            steps += 1
        if steps % 3 == 0:
            _check_agreement(cons, "rev", "region, revenue, n", JOIN_RECOMPUTE)
    _check_agreement(cons, "rev", "region, revenue, n", JOIN_RECOMPUTE)
    assert steps >= 60


def test_float_sums_agree_given_precise_liveness():
    """Floating-point SUM views: the batch path consolidates before
    summing while SQL sums each sign partition separately, so float
    rounding may differ — but with a COUNT(*) liveness column (the
    precise step-3 form) group membership, counts, and recompute-level
    values all agree across all three engines.  This pins the documented
    equivalence boundary (docs/batching.md)."""
    rng = random.Random(51)

    def schema(con: Connection) -> None:
        con.execute("CREATE TABLE t (k VARCHAR, w DOUBLE)")

    view = (
        "CREATE MATERIALIZED VIEW f AS "
        "SELECT k, SUM(w) AS s, COUNT(*) AS n FROM t GROUP BY k"
    )
    cons = _engines(schema, view)
    live: list[tuple[str, float]] = []
    for step in range(60):
        if rng.random() < 0.6 or not live:
            row = (rng.choice("ab"), rng.uniform(-1, 1))
            live.append(row)
            for con in cons:
                con.execute("INSERT INTO t VALUES (?, ?)", list(row))
        else:
            row = live.pop(rng.randrange(len(live)))
            for con in cons:
                con.execute(
                    "DELETE FROM t WHERE k = ? AND w = ?", list(row)
                )
        results = [con.execute("SELECT k, s, n FROM f").sorted() for con in cons]
        # Group membership and counts are exact; float sums agree to
        # within accumulated rounding of the different summation orders.
        memberships = [[(k, n) for k, _, n in rows] for rows in results]
        assert all(m == memberships[0] for m in memberships)
        for rows in results[1:]:
            for (_, s1, _), (_, s2, _) in zip(results[0], rows):
                assert abs(s1 - s2) < 1e-9


def test_sum_only_liveness_exact_cancellation():
    """The step-3 fix: sum-only views (no stored liveness column) delete
    groups by exact weighted-count cancellation on the native pipeline.

    The paper's SQL fallback tests ``sum = 0``, which (a) deletes a live
    group whose values genuinely sum to zero and (b) keeps a dead group
    whose float sum carries residue.  The native pipeline matches the
    recompute specification in both cases; the pure-SQL engine keeps the
    paper's behaviour, which this test pins as the documented boundary.
    """

    def schema(con: Connection) -> None:
        con.execute("CREATE TABLE t (k VARCHAR, w DOUBLE)")

    view = "CREATE MATERIALIZED VIEW f AS SELECT k, SUM(w) AS s FROM t GROUP BY k"
    con_sql, _, con_native = _engines(schema, view)
    for con in (con_sql, con_native):
        # (a) live group, genuine zero sum.
        con.execute("INSERT INTO t VALUES ('zero', 5.0), ('zero', -5.0)")
        # (b) dead group, float-residue sum (0.1 + 0.2 - 0.3 != 0.0).
        con.execute("INSERT INTO t VALUES ('residue', 0.1), ('residue', 0.2)")
        con.execute("DELETE FROM t WHERE k = 'residue' AND w = 0.1")
        con.execute("DELETE FROM t WHERE k = 'residue' AND w = 0.2")

    recompute = "SELECT k, SUM(w) FROM t GROUP BY k"
    want = con_native.execute(recompute).sorted()
    got_native = con_native.execute("SELECT k, s FROM f").sorted()
    assert got_native == want == [("zero", 0.0)]
    # The paper's fallback deletes the zero-sum group (and would keep a
    # residue-carrying dead one): bug-compatible SQL, exact native.
    got_sql = con_sql.execute("SELECT k, s FROM f").sorted()
    assert got_sql == []


def test_combined_scripts_exceed_two_hundred_steps():
    """The milestone's acceptance bar: the randomized scripts above replay
    ≥ 200 DML steps in total (per engine trio).  Recomputed here so the
    bound is explicit and breaks loudly if someone shrinks the workloads."""
    groups_steps = sum(
        batch.size
        for batch in generate_change_stream(
            generate_groups_rows(300, num_groups=20, seed=9),
            batch_size=2, batches=35, num_groups=20, seed=13,
        )
    )
    join_steps = 90  # lower bound: each loop iteration issues ≥ 1 DML
    # The groups stream replays once per propagation mode.
    assert groups_steps * len(ALL_MODES) + join_steps >= 200


MINMAX_VIEW = (
    "CREATE MATERIALIZED VIEW mm AS "
    "SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS hi, "
    "COUNT(*) AS n FROM groups GROUP BY group_index"
)
MINMAX_RECOMPUTE = (
    "SELECT group_index, MIN(group_value), MAX(group_value), COUNT(*) "
    "FROM groups GROUP BY group_index"
)

# The MIN/MAX oracle adds a fourth engine: full native but with the
# step-2b rescan kept on SQL (native_minmax_rescan=False), so the
# persistent extrema state is differentially tested against the paper's
# base-table rescan as well as against pure SQL and recompute.
MINMAX_ENGINE_CONFIGS = ENGINE_CONFIGS + [
    ("native_sql_rescan", dict(batch_kernels=True, native_minmax_rescan=False)),
]


def test_minmax_retraction_heavy_oracle():
    """MIN/MAX view under a retraction-heavy schedule that repeatedly
    deletes the current extrema (the non-invertible case): the native
    rescan answered from the extrema state must agree with the SQL
    rescan, the pure-SQL script, and the recompute after every batch."""
    rng = random.Random(77)

    def schema(con: Connection) -> None:
        con.execute(
            "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
        )

    cons = []
    for label, overrides in MINMAX_ENGINE_CONFIGS:
        con = Connection()
        ext = load_ivm(
            con, CompilerFlags(mode=PropagationMode.LAZY, **overrides)
        )
        schema(con)
        con.execute(MINMAX_VIEW)
        if label == "native":
            assert "step2b" in ext.status()[0]["native_steps"]
        if label == "native_sql_rescan":
            assert "step2b" not in ext.status()[0]["native_steps"]
        cons.append(con)

    live: list[tuple[str, int]] = []
    steps = 0
    for round_index in range(45):
        # Deletion-heavy: ~60% deletes once rows exist, biased toward the
        # current extremum of a random group so retraction repair is the
        # dominant code path.
        if live and rng.random() < 0.6:
            group = rng.choice(sorted({g for g, _ in live}))
            members = [row for row in live if row[0] == group]
            extreme = max(members, key=lambda row: row[1]) if (
                rng.random() < 0.5
            ) else min(members, key=lambda row: row[1])
            victim = extreme if rng.random() < 0.7 else rng.choice(members)
            live.remove(victim)
            for con in cons:
                con.execute(
                    "DELETE FROM groups "
                    "WHERE group_index = ? AND group_value = ?",
                    list(victim),
                )
        else:
            row = (f"g{rng.randrange(6)}", rng.randint(-50, 50))
            live.append(row)
            for con in cons:
                con.execute("INSERT INTO groups VALUES (?, ?)", list(row))
        steps += 1
        if steps % 2 == 0 or round_index == 44:
            results = [
                (
                    con.execute(
                        "SELECT group_index, lo, hi, n FROM mm"
                    ).sorted(),
                    con.execute(MINMAX_RECOMPUTE).sorted(),
                )
                for con in cons
            ]
            for (label, _), (got, want) in zip(
                MINMAX_ENGINE_CONFIGS, results
            ):
                assert got == want, f"{label} diverged from recompute"
    assert steps >= 45


# ---------------------------------------------------------------------------
# Strategy oracle: UNION-regroup / full-outer-join step 2 as native kernels
# ---------------------------------------------------------------------------

# Per strategy, three engines: the pure-SQL script, the native pipeline
# with the strategy's step-2 kernel disabled (SQL table rebuild between
# native steps 1/3/4), and the fully-native pipeline — so each new step-2
# kernel is differentially tested against its own SQL form as well as
# against the end-to-end SQL script and the recompute.
STRATEGY_ENGINE_CONFIGS = {
    MaterializationStrategy.UNION_REGROUP: [
        ("sql", dict(batch_kernels=False)),
        ("native_sql_step2", dict(native_union_step2=False)),
        ("native", dict()),
    ],
    MaterializationStrategy.FULL_OUTER_JOIN: [
        ("sql", dict(batch_kernels=False)),
        ("native_sql_step2", dict(native_foj_step2=False)),
        ("native", dict()),
    ],
}

STRATEGY_VIEW = (
    "CREATE MATERIALIZED VIEW q AS "
    "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n, "
    "AVG(group_value) AS a FROM groups GROUP BY group_index"
)
STRATEGY_RECOMPUTE = (
    "SELECT group_index, SUM(group_value), COUNT(*), AVG(group_value) "
    "FROM groups GROUP BY group_index"
)

# The strategy streams must total 200+ randomized DML steps (the
# tentpole's acceptance bar); asserted explicitly below.
STRATEGY_STREAM = dict(batch_size=2, batches=50, num_groups=12, seed=29)


def _strategy_stream_steps() -> int:
    initial = generate_groups_rows(200, num_groups=12, seed=17)
    return sum(
        batch.size
        for batch in generate_change_stream(initial, **STRATEGY_STREAM)
    )


@pytest.mark.parametrize(
    "strategy", sorted(STRATEGY_ENGINE_CONFIGS, key=lambda s: s.value),
    ids=lambda s: s.value,
)
def test_strategy_step2_three_way_oracle(strategy):
    """UNION-regroup and full-outer-join views over a mixed insert/delete
    stream (including group kills and rebirths): native step-2 kernel vs
    its SQL rebuild vs the pure-SQL script vs recompute, after every
    batch."""
    initial = generate_groups_rows(200, num_groups=12, seed=17)

    def schema(con: Connection) -> None:
        con.execute(
            "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
        )
        table = con.table("groups")
        for row in initial:
            table.insert(row, coerce=False)

    cons = []
    for label, overrides in STRATEGY_ENGINE_CONFIGS[strategy]:
        con = Connection()
        ext = load_ivm(
            con,
            CompilerFlags(
                mode=PropagationMode.LAZY, strategy=strategy, **overrides
            ),
        )
        schema(con)
        con.execute(STRATEGY_VIEW)
        native = ext.status()[0]["native_steps"]
        if label == "sql":
            assert native == []
        elif label == "native_sql_step2":
            assert "step2" not in native and "step1" in native
        else:
            assert native == ["step1", "step2", "step3", "step4"]
        cons.append(con)

    steps = 0
    for batch in generate_change_stream(initial, **STRATEGY_STREAM):
        for row in batch.inserts:
            for con in cons:
                con.execute("INSERT INTO groups VALUES (?, ?)", list(row))
            steps += 1
        for row in batch.deletes:
            for con in cons:
                con.execute(
                    "DELETE FROM groups "
                    "WHERE group_index = ? AND group_value = ?",
                    list(row),
                )
            steps += 1
        results = [
            (
                con.execute(
                    "SELECT group_index, total_value, n, a FROM q"
                ).sorted(),
                con.execute(STRATEGY_RECOMPUTE).sorted(),
            )
            for con in cons
        ]
        for (label, _), (got, want) in zip(
            STRATEGY_ENGINE_CONFIGS[strategy], results
        ):
            assert got == want, (
                f"{strategy.value}/{label} diverged from recompute"
            )
    assert steps >= 100


def test_strategy_streams_exceed_two_hundred_steps():
    """The tentpole's acceptance bar: the newly-native strategies are
    oracle-verified across 200+ randomized DML steps (one stream per
    strategy, both over the same generator schedule)."""
    per_strategy = _strategy_stream_steps()
    assert per_strategy * len(STRATEGY_ENGINE_CONFIGS) >= 200


EXPR_VIEW = (
    "CREATE MATERIALIZED VIEW e AS "
    "SELECT UPPER(group_index) AS gg, SUM(group_value + 1) AS s, "
    "COUNT(*) AS n FROM groups GROUP BY UPPER(group_index)"
)
EXPR_RECOMPUTE = (
    "SELECT UPPER(group_index), SUM(group_value + 1), COUNT(*) "
    "FROM groups GROUP BY UPPER(group_index)"
)

# sql / step-1-on-SQL (evaluator off) / fully native with batch_eval.
EXPR_ENGINE_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("no_expr_eval", dict(native_expr_eval=False)),
    ("native", dict()),
]


def test_expression_keyed_three_way_oracle():
    """Computed key + computed aggregate argument through batch_eval: the
    native pipeline must agree with the evaluator-off per-step fallback,
    the pure-SQL script, and the recompute on a mixed-case stream (keys
    collide under UPPER, so the computed key genuinely regroups rows)."""
    rng = random.Random(63)

    def schema(con: Connection) -> None:
        con.execute(
            "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
        )

    cons = []
    for label, overrides in EXPR_ENGINE_CONFIGS:
        con = Connection()
        ext = load_ivm(
            con, CompilerFlags(mode=PropagationMode.LAZY, **overrides)
        )
        schema(con)
        con.execute(EXPR_VIEW)
        native = ext.status()[0]["native_steps"]
        if label == "sql":
            assert native == []
        elif label == "no_expr_eval":
            assert "step1" not in native
        else:
            assert "step1" in native
        cons.append(con)

    live: list[tuple[str, int]] = []
    for step in range(60):
        if live and rng.random() < 0.45:
            victim = live.pop(rng.randrange(len(live)))
            for con in cons:
                con.execute(
                    "DELETE FROM groups "
                    "WHERE group_index = ? AND group_value = ?",
                    list(victim),
                )
        else:
            # Mixed-case keys: 'a' and 'A' fold into one computed group.
            key = rng.choice("aAbBcC")
            row = (key, rng.randint(-9, 9))
            live.append(row)
            for con in cons:
                con.execute("INSERT INTO groups VALUES (?, ?)", list(row))
        if step % 3 == 0 or step == 59:
            results = [
                (
                    con.execute("SELECT gg, s, n FROM e").sorted(),
                    con.execute(EXPR_RECOMPUTE).sorted(),
                )
                for con in cons
            ]
            for (label, _), (got, want) in zip(EXPR_ENGINE_CONFIGS, results):
                assert got == want, f"{label} diverged from recompute"


WHERE_VIEW = (
    "CREATE MATERIALIZED VIEW w AS "
    "SELECT group_index, SUM(group_value) AS s, COUNT(*) AS n "
    "FROM groups WHERE group_value > 10 GROUP BY group_index"
)
WHERE_RECOMPUTE = (
    "SELECT group_index, SUM(group_value), COUNT(*) "
    "FROM groups WHERE group_value > 10 GROUP BY group_index"
)


def test_where_filtered_three_way_oracle():
    """WHERE views now run step 1 natively (bound predicate through
    batch_filter); the filter must agree with the SQL WHERE on a mixed
    stream that straddles the predicate boundary."""
    rng = random.Random(91)

    def schema(con: Connection) -> None:
        con.execute(
            "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)"
        )

    cons = _engines(schema, WHERE_VIEW)
    live: list[tuple[str, int]] = []
    for step in range(60):
        if live and rng.random() < 0.45:
            victim = live.pop(rng.randrange(len(live)))
            for con in cons:
                con.execute(
                    "DELETE FROM groups "
                    "WHERE group_index = ? AND group_value = ?",
                    list(victim),
                )
        else:
            # Half the inserts land on or below the predicate boundary.
            row = (f"g{rng.randrange(4)}", rng.randint(-5, 25))
            live.append(row)
            for con in cons:
                con.execute("INSERT INTO groups VALUES (?, ?)", list(row))
        if step % 3 == 0 or step == 59:
            _check_agreement(
                cons, "w", "group_index, s, n", WHERE_RECOMPUTE
            )


# ---------------------------------------------------------------------------
# Sharded refresh oracle: hash-partitioned state vs the per-step pipeline
# ---------------------------------------------------------------------------

import sys
import threading

from repro.workloads.generators import zipf_group_keys

SHARDED_VIEW = (
    "CREATE MATERIALIZED VIEW sh AS "
    "SELECT c.region, COUNT(*) AS n, SUM(o.amount) AS revenue, "
    "MIN(o.amount) AS lo, MAX(o.amount) AS hi, AVG(o.amount) AS mean "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)
SHARDED_RECOMPUTE = (
    "SELECT c.region, COUNT(*), SUM(o.amount), MIN(o.amount), "
    "MAX(o.amount), AVG(o.amount) "
    "FROM orders o JOIN customers c ON o.cust_id = c.cust_id "
    "GROUP BY c.region"
)

# Four engines: the pure-SQL script, the unsharded per-step pipeline, and
# the sharded single-step refresh at 2 shards (serial workers) and
# 4 shards (ThreadPoolExecutor workers), so both execution modes of the
# sharded path are differentially tested against the unsharded engines.
SHARDED_ENGINE_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("native", dict()),
    ("sharded2", dict(shard_count=2, parallel_refresh=False)),
    ("sharded4", dict(shard_count=4, parallel_refresh=True)),
]

# The milestone's acceptance bar for the sharded oracle alone.
SHARDED_STEPS = 220


def test_sharded_refresh_four_way_oracle():
    """Join-aggregation view with every fold kind (COUNT/SUM/MIN/MAX/AVG)
    under a Zipf-skewed DML stream — most activity lands on a few hot
    customers, so shard routing, per-shard extrema repair, and liveness
    deletes all run against unbalanced shards.  All four engines must
    agree with each other and with the recompute throughout."""
    workload = generate_sales_workload(
        num_customers=40, num_orders=150, num_regions=6, seed=41
    )

    def schema(con: Connection) -> None:
        con.execute(workload.SCHEMA)
        customers = con.table("customers")
        for row in workload.customers:
            customers.insert(row, coerce=False)
        orders = con.table("orders")
        for row in workload.orders:
            orders.insert(row, coerce=False)

    cons = []
    for label, overrides in SHARDED_ENGINE_CONFIGS:
        con = Connection()
        ext = load_ivm(
            con, CompilerFlags(mode=PropagationMode.LAZY, **overrides)
        )
        schema(con)
        con.execute(SHARDED_VIEW)
        native = ext.status()[0]["native_steps"]
        if label == "sql":
            assert native == []
        elif label == "native":
            assert "step1" in native and "sharded" not in native
        else:
            # The whole pipeline collapsed into the one sharded step.
            assert native == ["sharded"]
        cons.append(con)

    # Zipf-skewed customer picks: ~90% of the stream hits a handful of
    # hot customers (hash-routed to a minority of the shards).
    hot_picks = [
        int(key[1:]) for key in zipf_group_keys(
            SHARDED_STEPS * 2, num_groups=40, skew=1.3, seed=43
        )
    ]
    rng = random.Random(47)
    live: dict[int, None] = {row[0]: None for row in workload.orders}
    next_oid = workload.next_order_id()
    pick = iter(hot_picks)
    steps = 0
    for _ in range(SHARDED_STEPS):
        roll = rng.random()
        if roll < 0.55 or not live:
            cust = workload.customers[next(pick)][0]
            amount = rng.randint(-200, 500)
            for con in cons:
                con.execute(
                    "INSERT INTO orders VALUES (?, ?, ?, ?)",
                    [next_oid, cust, "p", amount],
                )
            live[next_oid] = None
            next_oid += 1
        elif roll < 0.85:
            victim = rng.choice(sorted(live))
            del live[victim]
            for con in cons:
                con.execute("DELETE FROM orders WHERE oid = ?", [victim])
        else:
            target = rng.choice(sorted(live))
            amount = rng.randint(-200, 500)
            for con in cons:
                con.execute(
                    "UPDATE orders SET amount = ? WHERE oid = ?",
                    [amount, target],
                )
        steps += 1
        if steps % 5 == 0 or steps == SHARDED_STEPS:
            results = [
                (
                    con.execute(
                        "SELECT region, n, revenue, lo, hi, mean FROM sh"
                    ).sorted(),
                    con.execute(SHARDED_RECOMPUTE).sorted(),
                )
                for con in cons
            ]
            recomputes = [want for _, want in results]
            assert all(w == recomputes[0] for w in recomputes)
            for (label, _), (got, want) in zip(
                SHARDED_ENGINE_CONFIGS, results
            ):
                assert got == want, f"{label} diverged from recompute"
    assert steps >= 200


# ---------------------------------------------------------------------------
# Snapshot reads: a reader racing the refresher never sees a torn epoch
# ---------------------------------------------------------------------------


def test_snapshot_reads_never_observe_torn_refresh():
    """Reader/refresher stress for the epoch-pinned view table.

    The writer thread (this test's main thread) inserts exactly one
    order per region per statement; under the EAGER policy each insert
    refreshes the view before returning, so every *committed* epoch has
    identical COUNT(*) across all regions.  A reader thread scans the
    view continuously (EAGER views are never refreshed by SELECT, so the
    reader only ever reads).  If a scan could observe a half-applied
    refresh — some regions upserted, others not — it would see unequal
    counts; with snapshot reads the pinned epoch makes that impossible.

    The reader also reads one region through the view's primary-key index
    (``WHERE region = 'r3'``).  The ART is not parked with the rows, and a
    refresh replaces a view row by delete + insert, so a probe racing it
    could find no row at all; a reader of a parked epoch scans instead and
    must always see exactly one whole row, never older than the last
    full read.
    """
    num_regions = 8
    con = Connection()
    load_ivm(
        con,
        CompilerFlags(
            mode=PropagationMode.EAGER, shard_count=2, snapshot_reads=True
        ),
    )
    con.execute(
        "CREATE TABLE customers (cust_id VARCHAR PRIMARY KEY, region VARCHAR)"
    )
    con.execute(
        "CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust_id VARCHAR, "
        "product VARCHAR, amount INTEGER)"
    )
    for g in range(num_regions):
        con.execute(f"INSERT INTO customers VALUES ('c{g}', 'r{g}')")
    con.execute(SHARDED_VIEW)
    # Seed epoch 1 so the reader always sees all regions.
    seed = ", ".join(f"({g}, 'c{g}', 'p', {g + 1})" for g in range(num_regions))
    con.execute(f"INSERT INTO orders VALUES {seed}")

    errors: list = []
    stop = threading.Event()

    def reader() -> None:
        try:
            while not stop.is_set():
                problem = read_once()
                if problem is not None:
                    errors.append(problem)
                    return
        except Exception as error:  # noqa: BLE001 - a raising read is a failure
            errors.append(("reader raised", repr(error)))
        finally:
            stop.set()

    def read_once():
        rows = con.execute("SELECT region, n FROM sh").rows
        counts = {n for _, n in rows}
        if len(rows) != num_regions:
            return ("missing regions", rows)
        if len(counts) != 1:
            return ("torn epoch", sorted(rows))
        point = con.execute("SELECT n, revenue FROM sh WHERE region = 'r3'").rows
        # Region 3 starts at amount 4 and gains 5 per epoch.
        if (
            len(point) != 1
            or point[0][0] < min(counts)
            or point[0][1] != 4 + 5 * (point[0][0] - 1)
        ):
            return ("point read", point)
        return None

    thread = threading.Thread(target=reader)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # force frequent interleaving
    thread.start()
    try:
        oid = num_regions
        for _ in range(120):
            if stop.is_set():
                break
            values = ", ".join(
                f"({oid + g}, 'c{g}', 'p', {g + 2})"
                for g in range(num_regions)
            )
            oid += num_regions
            con.execute(f"INSERT INTO orders VALUES {values}")
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(old_interval)
    assert not errors, errors[0]
    # The view really advanced through the epochs while being read.
    final = con.execute("SELECT n FROM sh").rows
    assert {n for (n,) in final} == {121}

"""Failure-path regression tests: a refresh that dies mid-pipeline must
release its snapshot pin, leave the pre-refresh rows visible, and heal
through a full recompute on the next refresh — never serve half-applied
state.  Covers a failure in the first native step and one injected at
the ``refresh.step`` fault site after step 1 has already integrated its
join and extrema states."""

import pytest

from repro.core.faults import FaultPlan, FaultSpec
from repro.errors import FaultInjectedError
from tests.conftest import assert_view_matches


class InjectedStepFailure(RuntimeError):
    pass


def _patch_first_claiming_step(state):
    """Make the view's first label-claiming native step raise."""
    step = next(s for s in state.compiled.native_steps if s.replaces)

    def boom(connection):
        raise InjectedStepFailure("injected native-step failure")

    step.run = boom
    return step


class TestFailedRefresh:
    def _setup(self, ivm_con, **flags):
        con, ext = ivm_con(**flags)
        con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
        con.execute(
            "CREATE MATERIALIZED VIEW q AS "
            "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
        )
        con.execute("INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3)")
        ext.refresh("q")
        return con, ext

    def test_snapshot_pin_released_and_rows_rolled_back(self, ivm_con):
        con, ext = self._setup(ivm_con)
        table = con.catalog.table("q")
        before = sorted(table.scan())
        con.execute("INSERT INTO t VALUES ('a', 10), ('c', 5)")
        state = ext.view_state("q")
        step = _patch_first_claiming_step(state)
        with pytest.raises(InjectedStepFailure):
            ext.refresh("q")
        # The pin is gone (no leaked snapshot epoch) and the stored rows
        # are the pre-refresh epoch, not a half-applied refresh.  (Read
        # via scan: a SELECT would trigger the lazy self-heal refresh.)
        assert table._snapshot_pinned is False
        assert table._snapshot_rows is None
        assert sorted(table.scan()) == before
        assert state.needs_recompute is True
        status = {entry["view"]: entry for entry in ext.status()}
        assert status["q"]["needs_recompute"] is True

    def test_next_refresh_recomputes_and_clears_flag(self, ivm_con):
        con, ext = self._setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('a', 10), ('c', 5)")
        state = ext.view_state("q")
        step = _patch_first_claiming_step(state)
        with pytest.raises(InjectedStepFailure):
            ext.refresh("q")
        del step.run  # restore the real step
        ext.refresh("q")
        assert state.needs_recompute is False
        assert_view_matches(
            con, "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g", "q"
        )
        # Incremental maintenance keeps working after the recompute.
        con.execute("DELETE FROM t WHERE v = 10")
        con.execute("INSERT INTO t VALUES ('b', 7)")
        ext.refresh("q")
        assert_view_matches(
            con, "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g", "q"
        )

    def test_refresh_all_heals_flagged_views(self, ivm_con):
        con, ext = self._setup(ivm_con)
        con.execute("INSERT INTO t VALUES ('z', 9)")
        state = ext.view_state("q")
        step = _patch_first_claiming_step(state)
        with pytest.raises(InjectedStepFailure):
            ext.refresh("q")
        del step.run
        # needs_recompute alone (even with no new pending changes) must
        # make refresh_all pick the view up.
        ext.refresh_all()
        assert state.needs_recompute is False
        assert_view_matches(
            con, "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g", "q"
        )


class TestPartialRefreshFailure:
    QUERY = (
        "SELECT c.region, SUM(o.amount) AS s, MAX(o.amount) AS hi, "
        "COUNT(*) AS n FROM orders o JOIN customers c ON o.cust = c.id "
        "GROUP BY c.region"
    )

    def _setup(self, ivm_con):
        plan = FaultPlan(seed=1)
        # One clean round heals the ladder, so the rounds after the
        # recompute run natively again on the reseeded states.
        con, ext = ivm_con(fault_plan=plan, degradation_heal_after=1)
        con.execute(
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, "
            "amount INTEGER)"
        )
        con.execute(
            "CREATE TABLE customers (id INTEGER PRIMARY KEY, region VARCHAR)"
        )
        con.execute(f"CREATE MATERIALIZED VIEW q AS {self.QUERY}")
        con.execute(
            "INSERT INTO customers VALUES (1,'eu'), (2,'us'), (3,'apac'), "
            "(4,'latam')"
        )
        con.execute(
            "INSERT INTO orders VALUES (1,1,10), (2,2,20), (3,3,30), "
            "(4,4,40), (5,1,50), (6,2,60)"
        )
        ext.refresh("q")
        state = ext.view_state("q")
        names = [step.name for step in state.compiled.native_steps]
        assert names[:2] == ["step1", "step2"]
        # The next refresh fails at its second native step: step 1 has
        # then integrated the round into the join and extrema states.
        plan.add(FaultSpec("refresh.step", times=1, after=1))
        return con, ext, state, plan

    def test_late_step_failure_rolls_back_and_flags_recompute(self, ivm_con):
        con, ext, state, plan = self._setup(ivm_con)
        table = con.catalog.table("q")
        before = sorted(table.scan())
        con.execute("INSERT INTO orders VALUES (7,1,70), (8,3,80), (9,4,90)")
        con.execute("DELETE FROM orders WHERE id = 2")
        with pytest.raises(FaultInjectedError):
            ext.refresh("q")
        assert plan.fired("refresh.step") == 1
        # The view rolled back to its pre-refresh epoch and is flagged:
        # the join state holds the round, the stored rows do not.
        assert sorted(table.scan()) == before
        assert table._snapshot_pinned is False
        assert state.needs_recompute is True

    def test_recompute_reseeds_every_state(self, ivm_con):
        con, ext, state, plan = self._setup(ivm_con)
        con.execute("INSERT INTO orders VALUES (7,1,70), (8,3,80), (9,4,90)")
        with pytest.raises(FaultInjectedError):
            ext.refresh("q")
        ext.refresh("q")
        assert state.needs_recompute is False
        assert state.ladder.rung_name == "native"
        assert_view_matches(con, self.QUERY, "q")
        # The reseeded states stay consistent through further
        # incremental rounds, including MAX retractions.
        con.execute("DELETE FROM orders WHERE amount >= 80")
        con.execute("INSERT INTO orders VALUES (10,2,-5), (11,4,100)")
        ext.refresh("q")
        assert_view_matches(con, self.QUERY, "q")

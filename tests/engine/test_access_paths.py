"""Boundaries of the index access path (docs/architecture.md, "Access
paths"): what probes, what declines, what a probe must not change, and
the atomic UPDATE that rides along."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConstraintError, ExecutionError, TypeError_
from repro.storage.table import Table
from tests.conftest import assert_view_matches

MV = "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"


@pytest.fixture
def keyed(ivm_con):
    """``t(id PK, g, v)`` with ids 1, 2, 5, 6 and an aggregate view."""
    con, ext = ivm_con()
    con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g VARCHAR, v INTEGER)")
    con.execute("INSERT INTO t VALUES (1,'a',10), (2,'a',20), (5,'b',1), (6,'b',2)")
    con.execute(f"CREATE MATERIALIZED VIEW mv AS {MV}")
    return con, ext


@pytest.fixture
def scans(monkeypatch):
    """Names of the full-scan entry points called while the fixture is live."""
    calls: list[str] = []
    for name in ("scan", "scan_with_ids"):
        original = getattr(Table, name)

        def spy(self, _original=original, _name=name):
            calls.append(f"{self.schema.name}.{_name}")
            return _original(self)

        monkeypatch.setattr(Table, name, spy)
    return calls


# -- what probes ---------------------------------------------------------------


def test_point_statements_never_scan(keyed, scans):
    con, _ = keyed
    assert con.execute("UPDATE t SET v = 11 WHERE id = 1").rowcount == 1
    assert con.execute("DELETE FROM t WHERE id = 5").rowcount == 1
    # The SELECT refreshes the view first (LAZY), then reads one row of it.
    assert con.execute("SELECT s, n FROM mv WHERE g = 'a'").rows == [(31, 2)]
    assert con.execute("SELECT s, n FROM mv WHERE g = 'b'").rows == [(2, 1)]
    assert scans == []
    assert con.execute("SELECT id FROM t WHERE v = 2").rows == [(6,)]
    assert scans == ["t.scan"]  # no index on v


def test_explain_names_the_index_or_the_scan(con):
    con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g VARCHAR, v INTEGER)")
    con.execute("CREATE INDEX by_g ON t (g)")
    con.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, w INTEGER)")

    def lines(sql):
        return [line.strip() for line in con.explain(sql).split("\n")]

    assert lines("SELECT v FROM t WHERE 3 = id AND v > 1")[-1] == (
        "INDEX_SCAN t USING __pk__ -> [id, g, v]"
    )
    assert lines("SELECT v FROM t x WHERE g IN ('a', ?)")[-1] == (
        "INDEX_SCAN t AS x USING by_g -> [id, g, v]"
    )
    # Declined: a range, an OR, a key that depends on the row.
    for predicate in ("id > 3", "id = 1 OR id = 2", "id = v", "id NOT IN (1, 2)"):
        assert lines(f"SELECT v FROM t WHERE {predicate}")[-1] == (
            "GET t -> [id, g, v]"
        )
    # Below a join, on the side the filter was pushed to.
    joined = lines("SELECT t.v FROM t JOIN u ON t.v = u.w WHERE u.id = 7")
    assert "INDEX_SCAN u USING __pk__ -> [id, w]" in joined
    assert "GET t -> [id, g, v]" in joined
    statement = con.execute("EXPLAIN SELECT v FROM t WHERE id = 3")
    assert statement.rows[-1] == ("    INDEX_SCAN t USING __pk__ -> [id, g, v]",)


def test_index_preference_is_primary_then_unique_then_any(con):
    con.execute("CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER, PRIMARY KEY (a, b))")
    con.execute("CREATE INDEX any_b ON t (b)")
    con.execute("CREATE UNIQUE INDEX uniq_c ON t (c)")
    con.execute("INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (2, 2, 30)")
    for predicate, index, rows in (
        ("b = 2 AND a = 1 AND c = 20", "__pk__", [(1, 2, 20)]),
        ("b = 2 AND c = 30", "uniq_c", [(2, 2, 30)]),
        ("b = 2", "any_b", [(1, 2, 20), (2, 2, 30)]),
        ("a IN (2, 1) AND b IN (2, 2)", "__pk__", [(1, 2, 20), (2, 2, 30)]),
    ):
        sql = f"SELECT * FROM t WHERE {predicate}"
        assert f"USING {index} " in con.explain(sql)
        assert con.execute(sql).rows == rows
    assert "INDEX_SCAN" not in con.explain("SELECT * FROM t WHERE a = 1")


# -- what a probe must not change -----------------------------------------------


def test_mismatched_key_class_scans_and_raises_as_before(keyed, scans):
    con, _ = keyed
    with pytest.raises(TypeError_, match="cannot compare 1 with '1'"):
        con.execute("UPDATE t SET v = 0 WHERE id = '1'")
    assert scans == ["t.scan_with_ids"]
    # Also when the mismatch is on a column the chosen index does not
    # cover: the probe would skip the rows that comparison raises on.
    with pytest.raises(TypeError_):
        con.execute("DELETE FROM t WHERE v = 'x' AND id = 99")
    assert con.execute("SELECT id FROM t WHERE id = TRUE").rows == [(1,)]
    assert con.execute("SELECT id FROM t WHERE id = 2.0").rows == [(2,)]
    assert len(con.table("t")) == 4


def test_null_key_matches_nothing_and_key_errors_are_the_scans(keyed, scans):
    con, _ = keyed
    assert con.execute("SELECT * FROM t WHERE id = NULL").rows == []
    assert con.execute("DELETE FROM t WHERE id IN (NULL, 2, NULL)").rowcount == 1
    assert scans == []
    # A key that cannot be evaluated is the scan's to raise, row by row:
    # on the rows it reaches, and not at all on an empty table.
    with pytest.raises(ExecutionError, match="division by zero"):
        con.execute("SELECT * FROM t WHERE id = 1 / 0")
    with pytest.raises(ExecutionError, match="requires at least 1 parameters"):
        con.execute("UPDATE t SET v = 0 WHERE id = ?")
    con.execute("CREATE TABLE empty (id INTEGER PRIMARY KEY)")
    assert con.execute("DELETE FROM empty WHERE id = 1 / 0").rowcount == 0


@pytest.mark.parametrize("key", ["PRIMARY KEY", ""])
def test_stored_nan_matches_only_a_nan_key_probed_or_scanned(con, key):
    con.execute(f"CREATE TABLE t (x DOUBLE {key}, v INTEGER)")
    con.execute("INSERT INTO t VALUES ('nan', 1), (5, 2)")
    assert con.execute("SELECT v FROM t WHERE x = 5").rows == [(2,)]
    assert con.execute("SELECT v FROM t WHERE x = CAST('nan' AS DOUBLE)").rows == [(1,)]
    assert con.execute("DELETE FROM t WHERE x IN (5, ?)", [float("nan")]).rowcount == 2


def test_update_that_rewrites_the_probed_key(keyed):
    con, _ = keyed
    fired: list = []
    con.triggers.register(
        "spy", "t", "UPDATE", lambda _c, _e, _t, pairs: fired.extend(pairs)
    )
    # All targets are found first: the row moved to 11 is not met again.
    result = con.execute("UPDATE t SET id = id + 10 WHERE id IN (11, 6, 1, 1)")
    assert result.rowcount == 2
    assert fired == [((1, "a", 10), (11, "a", 10)), ((6, "b", 2), (16, "b", 2))]
    assert con.execute("SELECT id FROM t WHERE id IN (1, 6, 11, 16)").rows == [
        (11,), (16,),
    ]
    assert_view_matches(con, MV, "mv")


# -- atomic UPDATE ------------------------------------------------------------------


def test_failed_update_restores_rows_and_captures_nothing(keyed):
    """A multi-row UPDATE that fails part-way used to leave the earlier
    rows updated with no delta captured: every view over the table was
    wrong from then on."""
    con, _ = keyed
    before = list(con.table("t").scan_with_ids())
    with pytest.raises(ConstraintError):
        con.execute("UPDATE t SET v = v + 1, id = CASE WHEN id = 5 THEN 6 ELSE id END")
    assert list(con.table("t").scan_with_ids()) == before
    assert len(con.table("delta_t")) == 0
    assert_view_matches(con, MV, "mv")
    # Indexes went back too: every key still finds its row, and only it.
    for row_id, row in before:
        assert con.table("t").probe("__pk__", [[row[0]]]) == [(row_id, row)]
    con.execute("UPDATE t SET v = v + 1 WHERE id IN (1, 2)")
    assert_view_matches(con, MV, "mv")
    # A failing SET expression on a later row rolls back the same way.
    with pytest.raises(ExecutionError, match="division by zero"):
        con.execute("UPDATE t SET v = 100 / (id - 5)")
    assert_view_matches(con, MV, "mv")
    assert con.execute("SELECT v FROM t WHERE id = 1").rows == [(11,)]


# -- snapshot readers ---------------------------------------------------------------


def _in_thread(function):
    """Run ``function`` on another thread; returns (thread, result box)."""
    box: list = []
    thread = threading.Thread(target=lambda: box.append(function()))
    thread.start()
    return thread, box


def test_reader_of_a_parked_epoch_sees_the_pre_refresh_row(con, scans):
    """The ARTs are not parked with the rows: while another thread holds
    the snapshot pin, a point SELECT scans the parked epoch."""
    con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    con.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    point = "SELECT v FROM t WHERE id = 1"
    scans.clear()  # building the primary key scanned the (empty) table
    con.begin_table_snapshot("t")  # this thread is the refresher
    con.upsert_rows("t", [(1, 11)])
    con.delete_keys("t", [[2]])
    thread, seen = _in_thread(
        lambda: [con.execute(sql).rows for sql in (point, "SELECT v FROM t WHERE id = 2")]
    )
    thread.join()
    assert seen == [[[(10,)], [(20,)]]]
    assert scans == ["t.scan", "t.scan"]
    assert con.execute(point).rows == [(11,)]  # the refresher reads its own writes
    con.commit_table_snapshot("t")
    thread, seen = _in_thread(lambda: con.execute(point).rows)
    thread.join()
    assert seen == [[(11,)]]
    assert scans == ["t.scan", "t.scan"]  # and every thread probes again


def test_no_pinned_refresh_starts_under_a_probe(con, monkeypatch):
    """A refresh that began between a reader's epoch check and its ART
    search would change the tree under the search (the stress test in
    tests/properties/test_batch_oracle.py met an IndexError inside it).
    The probe therefore holds, from check to result, the lock a pinned
    refresh's first write needs to park the epoch."""
    import repro.storage.table as table_module

    con.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    con.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    searching, checked = threading.Event(), threading.Event()
    encode_key = table_module.encode_key

    def encode_then_wait(values):
        if threading.current_thread() is not threading.main_thread():
            searching.set()
            assert checked.wait(10)
        return encode_key(values)

    monkeypatch.setattr(table_module, "encode_key", encode_then_wait)
    thread, seen = _in_thread(lambda: con.execute("SELECT v FROM t WHERE id = 1").rows)
    assert searching.wait(10)
    lock = con.table("t")._cache_lock  # what _maybe_cow takes
    free = lock.acquire(blocking=False)
    if free:
        lock.release()
    checked.set()
    thread.join()
    assert not free
    assert seen == [[(10,)]]

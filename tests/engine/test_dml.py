"""DDL and DML execution tests: create/drop, insert/update/delete, upsert."""

import pytest

from repro import Connection
from repro.errors import (
    BinderError,
    CatalogError,
    ConstraintError,
    ExecutionError,
    UnsupportedError,
)


class TestCreateDrop:
    def test_create_and_describe(self, con):
        con.execute("CREATE TABLE t (a VARCHAR(10), b DECIMAL(8, 2), c BOOL)")
        schema = con.table("t").schema
        assert [str(c.type) for c in schema.columns] == [
            "VARCHAR(10)",
            "DOUBLE",
            "BOOLEAN",
        ]

    def test_duplicate_create_raises(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")  # ok

    def test_create_table_as(self, con):
        con.execute("CREATE TABLE src (a INTEGER)")
        con.execute("INSERT INTO src VALUES (1), (2)")
        con.execute("CREATE TABLE dst AS SELECT a * 2 AS doubled FROM src")
        assert con.execute("SELECT doubled FROM dst ORDER BY 1").rows == [(2,), (4,)]

    def test_drop_table(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            con.execute("SELECT * FROM t")
        con.execute("DROP TABLE IF EXISTS t")  # no error
        with pytest.raises(CatalogError):
            con.execute("DROP TABLE t")

    def test_create_drop_index(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("CREATE INDEX idx ON t (a)")
        assert con.table("t").has_index("idx")
        con.execute("DROP INDEX idx")
        assert not con.table("t").has_index("idx")

    def test_drop_table_drops_its_indexes(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("CREATE INDEX idx ON t (a)")
        con.execute("DROP TABLE t")
        with pytest.raises(CatalogError):
            con.catalog.index("idx")

    def test_plain_view(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (5)")
        con.execute("CREATE VIEW big AS SELECT a FROM t WHERE a > 2")
        assert con.execute("SELECT * FROM big").rows == [(5,)]
        con.execute("INSERT INTO t VALUES (9)")
        assert len(con.execute("SELECT * FROM big").rows) == 2  # not materialized
        con.execute("DROP VIEW big")
        with pytest.raises(CatalogError):
            con.execute("SELECT * FROM big")


class TestInsert:
    def test_values_multiple_rows(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        result = con.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2

    def test_column_list_reorders_and_fills_nulls(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c DOUBLE)")
        con.execute("INSERT INTO t (b, a) VALUES ('x', 1)")
        assert con.execute("SELECT * FROM t").rows == [(1, "x", None)]

    def test_insert_select(self, con):
        con.execute("CREATE TABLE src (a INTEGER)")
        con.execute("CREATE TABLE dst (a INTEGER)")
        con.execute("INSERT INTO src VALUES (1), (2), (3)")
        result = con.execute("INSERT INTO dst SELECT a FROM src WHERE a > 1")
        assert result.rowcount == 2

    def test_insert_coerces(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES ('42')")
        assert con.execute("SELECT a FROM t").scalar() == 42

    def test_arity_mismatch(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(ExecutionError):
            con.execute("INSERT INTO t VALUES (1)")

    def test_column_list_arity_mismatch(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(ExecutionError, match="2 names but 1 values"):
            con.execute("INSERT INTO t (b, a) VALUES (1)")

    def test_unknown_column_in_column_list(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BinderError, match="'zz'"):
            con.execute("INSERT INTO t (b, a, zz) VALUES (1, 2, 3)")
        assert con.execute("SELECT * FROM t").rows == []

    def test_duplicate_column_in_column_list(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BinderError, match="more than once"):
            con.execute("INSERT INTO t (b, a, A) VALUES (1, 2, 3)")
        with pytest.raises(BinderError, match="more than once"):
            con.execute("INSERT INTO t (a, a) SELECT 1, 2")
        assert con.execute("SELECT * FROM t").rows == []

    def test_signed_and_computed_cells(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR)")
        con.execute("INSERT INTO t VALUES (-1, +2.5, 'x' || 'y'), (1 - 3, -1e2, NULL)")
        assert con.execute("SELECT * FROM t").rows == [
            (-1, 2.5, "xy"),
            (-2, -100.0, None),
        ]

    def test_insert_with_parameters(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        con.execute("INSERT INTO t VALUES (?, ?)", [5, "param"])
        assert con.execute("SELECT * FROM t").rows == [(5, "param")]


class TestUpsert:
    def test_insert_or_replace(self, con):
        con.execute("CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
        con.execute("INSERT INTO t VALUES ('a', 1)")
        con.execute("INSERT OR REPLACE INTO t VALUES ('a', 2), ('b', 3)")
        assert con.execute("SELECT * FROM t ORDER BY k").rows == [("a", 2), ("b", 3)]

    def test_upsert_requires_pk(self, con):
        con.execute("CREATE TABLE t (k VARCHAR)")
        with pytest.raises(ExecutionError):
            con.execute("INSERT OR REPLACE INTO t VALUES ('a')")

    def test_pk_violation_on_plain_insert(self, con):
        con.execute("CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
        con.execute("INSERT INTO t VALUES ('a', 1)")
        with pytest.raises(ConstraintError):
            con.execute("INSERT INTO t VALUES ('a', 2)")

    def test_upsert_from_select(self, con):
        con.execute("CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
        con.execute("CREATE TABLE s (k VARCHAR, v INTEGER)")
        con.execute("INSERT INTO t VALUES ('a', 1)")
        con.execute("INSERT INTO s VALUES ('a', 10), ('b', 20)")
        con.execute("INSERT OR REPLACE INTO t SELECT k, v FROM s")
        assert con.execute("SELECT * FROM t ORDER BY k").rows == [("a", 10), ("b", 20)]


class TestDeleteUpdate:
    def test_delete_where(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        result = con.execute("DELETE FROM t WHERE a >= 2")
        assert result.rowcount == 2
        assert con.execute("SELECT * FROM t").rows == [(1,)]

    def test_delete_all(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2)")
        assert con.execute("DELETE FROM t").rowcount == 2
        assert len(con.table("t")) == 0

    def test_update_with_expression(self, con):
        con.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        con.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        result = con.execute("UPDATE t SET b = b + a WHERE a = 2")
        assert result.rowcount == 1
        assert con.execute("SELECT b FROM t ORDER BY a").rows == [(10,), (22,)]

    def test_update_all_rows(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2)")
        con.execute("UPDATE t SET a = 0")
        assert con.execute("SELECT DISTINCT a FROM t").rows == [(0,)]

    def test_update_pk_column(self, con):
        con.execute("CREATE TABLE t (k VARCHAR PRIMARY KEY, v INTEGER)")
        con.execute("INSERT INTO t VALUES ('a', 1)")
        con.execute("UPDATE t SET k = 'b' WHERE k = 'a'")
        assert con.table("t").pk_lookup(["b"]) == ("b", 1)
        assert con.table("t").pk_lookup(["a"]) is None


class TestMisc:
    def test_pragma_roundtrip(self, con):
        con.execute("PRAGMA ivm_chunked_index_build = TRUE")
        assert con.pragmas["ivm_chunked_index_build"] is True

    def test_begin_commit_are_noops(self, con):
        con.execute("BEGIN")
        con.execute("COMMIT")

    def test_rollback_unsupported(self, con):
        with pytest.raises(UnsupportedError):
            con.execute("ROLLBACK")

    def test_matview_requires_extension(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(Exception):
            con.execute("CREATE MATERIALIZED VIEW v AS SELECT a FROM t")

    def test_refresh_requires_extension(self, con):
        with pytest.raises(UnsupportedError):
            con.execute("REFRESH MATERIALIZED VIEW v")

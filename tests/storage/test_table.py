"""Row-store table tests: constraints, upserts, index maintenance."""

from collections import Counter

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.datatypes import INTEGER, VARCHAR
from repro.errors import BinderError, ConstraintError, ExecutionError
from repro.storage.table import Table


def make_table(primary_key=None) -> Table:
    schema = TableSchema(
        "t",
        [Column("k", VARCHAR), Column("v", INTEGER)],
        primary_key=primary_key or [],
    )
    return Table(schema)


class TestSchema:
    def test_column_index_case_insensitive(self):
        table = make_table()
        assert table.schema.column_index("K") == 0
        assert table.schema.column_index("v") == 1

    def test_missing_column_raises(self):
        with pytest.raises(BinderError):
            make_table().schema.column_index("nope")

    def test_bad_primary_key_raises(self):
        with pytest.raises(BinderError):
            TableSchema("t", [Column("a", INTEGER)], primary_key=["missing"])


class TestInsertDelete:
    def test_insert_and_scan(self):
        table = make_table()
        table.insert(["a", 1])
        table.insert(["b", 2])
        assert list(table.scan()) == [("a", 1), ("b", 2)]
        assert len(table) == 2

    def test_insert_coerces_types(self):
        table = make_table()
        table.insert(["a", "42"])
        assert list(table.scan()) == [("a", 42)]

    def test_wrong_arity_raises(self):
        with pytest.raises(ExecutionError):
            make_table().insert(["a"])

    def test_delete_row_reuses_slot(self):
        table = make_table()
        rid = table.insert(["a", 1])
        table.insert(["b", 2])
        table.delete_row(rid)
        assert len(table) == 1
        new_rid = table.insert(["c", 3])
        assert new_rid == rid  # slot reuse
        assert sorted(table.scan()) == [("b", 2), ("c", 3)]

    def test_truncate(self):
        table = make_table(primary_key=["k"])
        table.insert(["a", 1])
        assert table.truncate() == 1
        assert len(table) == 0
        table.insert(["a", 2])  # PK index was reset too
        assert table.pk_lookup(["a"]) == ("a", 2)


class TestPrimaryKey:
    def test_duplicate_pk_rejected(self):
        table = make_table(primary_key=["k"])
        table.insert(["a", 1])
        with pytest.raises(ConstraintError):
            table.insert(["a", 2])
        assert len(table) == 1

    def test_pk_lookup(self):
        table = make_table(primary_key=["k"])
        table.insert(["a", 1])
        assert table.pk_lookup(["a"]) == ("a", 1)
        assert table.pk_lookup(["z"]) is None

    def test_upsert_inserts_then_replaces(self):
        table = make_table(primary_key=["k"])
        table.upsert_batch([["a", 1]])
        table.upsert_batch([["a", 99]])
        assert len(table) == 1
        assert table.pk_lookup(["a"]) == ("a", 99)

    def test_upsert_requires_pk(self):
        with pytest.raises(ExecutionError):
            make_table().upsert_batch([["a", 1]])

    def test_null_pk_values_group_as_equal(self):
        # IVM-generated tables rely on NULL keys colliding (Z-set grouping).
        table = make_table(primary_key=["k"])
        table.insert([None, 1])
        with pytest.raises(ConstraintError):
            table.insert([None, 2])
        table.upsert_batch([[None, 3]])
        assert table.pk_lookup([None]) == (None, 3)


class TestNotNull:
    def test_not_null_enforced(self):
        schema = TableSchema("t", [Column("a", INTEGER, not_null=True)])
        table = Table(schema)
        with pytest.raises(ConstraintError):
            table.insert([None])


class TestSecondaryIndexes:
    def test_add_index_populates_existing_rows(self):
        table = make_table()
        table.insert(["a", 1])
        table.insert(["b", 1])
        table.add_index("by_v", [1])
        assert sorted(table.lookup("by_v", [1])) == [("a", 1), ("b", 1)]

    def test_index_maintained_on_mutations(self):
        table = make_table()
        table.add_index("by_v", [1])
        rid = table.insert(["a", 1])
        table.insert(["b", 2])
        assert table.lookup("by_v", [1]) == [("a", 1)]
        table.update_row(rid, ["a", 5])
        assert table.lookup("by_v", [1]) == []
        assert table.lookup("by_v", [5]) == [("a", 5)]
        table.delete_row(rid)
        assert table.lookup("by_v", [5]) == []

    def test_chunked_index_build_matches(self):
        table = make_table()
        for i in range(500):
            table.insert([f"k{i}", i % 13])
        plain = table.add_index("plain", [1])
        chunked = table.add_index("chunked", [1], chunked=True, chunk_size=64)
        assert list(plain.items()) == list(chunked.items())

    def test_unique_index_rollback_on_conflict(self):
        table = make_table(primary_key=["k"])
        table.add_index("by_v", [1], unique=True)
        table.insert(["a", 1])
        with pytest.raises(ConstraintError):
            table.insert(["b", 1])  # secondary unique violation
        # The PK index entry for 'b' must have been rolled back:
        assert table.pk_lookup(["b"]) is None
        table.insert(["b", 2])  # now fine

    def test_update_rollback_on_conflict(self):
        table = make_table(primary_key=["k"])
        table.insert(["a", 1])
        rid = table.insert(["b", 2])
        with pytest.raises(ConstraintError):
            table.update_row(rid, ["a", 9])  # PK collision with 'a'
        assert table.pk_lookup(["b"]) == ("b", 2)  # old state restored


class TestScanColumnsCache:
    def test_scan_columns_matches_scan_order(self):
        table = make_table()
        table.insert(["a", 1])
        table.insert(["b", 2])
        assert table.scan_columns() == [["a", "b"], [1, 2]]

    def test_cache_extends_on_tail_append(self):
        table = make_table()
        table.insert(["a", 1])
        first = table.scan_columns()
        table.insert(["b", 2])
        second = table.scan_columns()
        # Publish-then-swap: the handed-out lists stay frozen; the
        # append published fresh lists carrying the extension.
        assert first == [["a"], [1]]
        assert second == [["a", "b"], [1, 2]]

    def test_cache_appends_in_place_between_handouts(self):
        table = make_table()
        table.insert(["a", 1])
        table.scan_columns()
        table.insert(["b", 2])
        third = table.scan_columns()
        table.insert(["c", 3])  # third was handed out → fresh lists
        assert third == [["a", "b"], [1, 2]]
        assert table.scan_columns() == [["a", "b", "c"], [1, 2, 3]]

    def test_cache_invalidated_by_delete_and_slot_reuse(self):
        table = make_table()
        rid = table.insert(["a", 1])
        table.insert(["b", 2])
        table.scan_columns()
        table.delete_row(rid)
        assert table.scan_columns() == [["b"], [2]]
        table.insert(["c", 3])  # reuses the freed slot
        assert table.scan_columns() == [
            [row[0] for row in table.scan()],
            [row[1] for row in table.scan()],
        ]

    def test_concurrent_handout_and_append_never_torn(self):
        """Regression for the scan_columns race: the old in-place extend
        could leave a reader holding column lists of unequal lengths
        mid-append.  Publish-then-swap freezes handed-out lists, so a
        reader thread hammering scan_columns during a writer's append
        storm must always see rectangular columns."""
        import sys
        import threading

        table = make_table()
        table.insert(["seed", 0])
        errors: list = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                cols = table.scan_columns()
                if len(cols[0]) != len(cols[1]):
                    errors.append((len(cols[0]), len(cols[1])))
                    stop.set()
                    return

        thread = threading.Thread(target=reader)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        thread.start()
        try:
            for i in range(4000):
                table.insert([f"k{i}", i])
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(old_interval)
        assert not errors
        assert table.scan_columns()[0][0] == "seed"

    def test_cache_invalidated_by_update_and_truncate(self):
        table = make_table()
        rid = table.insert(["a", 1])
        table.scan_columns()
        table.update_row(rid, ["a", 9])
        assert table.scan_columns() == [["a"], [9]]
        table.truncate()
        assert table.scan_columns() == [[], []]
        table.insert(["z", 0])
        assert table.scan_columns() == [["z"], [0]]


# ---------------------------------------------------------------------------
# Batch-vs-row ingestion equivalence (hypothesis)
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

_row = st.tuples(st.text(max_size=6), st.integers(-1000, 1000))


@given(st.lists(_row, max_size=40))
@settings(max_examples=80, deadline=None)
def test_insert_batch_equals_sequential_inserts(rows):
    """One insert_batch call leaves exactly the state a row-at-a-time
    insert loop does: same scan order, same columnar mirror, same
    secondary-index answers."""
    sequential = make_table()
    batched = make_table()
    sequential.add_index("by_v", [1])
    batched.add_index("by_v", [1])
    for row in rows:
        sequential.insert(row, coerce=False)
    assert batched.insert_batch(rows, coerce=False) == len(rows)
    assert list(batched.scan()) == list(sequential.scan())
    assert batched.scan_columns() == sequential.scan_columns()
    for _, value in rows:
        assert sorted(batched.lookup("by_v", [value])) == sorted(
            sequential.lookup("by_v", [value])
        )


@given(st.lists(_row, min_size=1, max_size=40, unique_by=lambda r: r[0]))
@settings(max_examples=60, deadline=None)
def test_insert_batch_unique_keys_match_sequential(rows):
    sequential = make_table(primary_key=["k"])
    batched = make_table(primary_key=["k"])
    for row in rows:
        sequential.insert(row, coerce=False)
    batched.insert_batch(rows, coerce=False)
    assert sorted(batched.scan()) == sorted(sequential.scan())
    for key, _ in rows:
        assert batched.pk_lookup([key]) == sequential.pk_lookup([key])


def make_keyed_table() -> Table:
    """PK ``k``, a unique secondary index ``by_v`` on ``v``, and a NOT
    NULL column ``w`` — every way a replace can fail."""
    schema = TableSchema(
        "t",
        [
            Column("k", VARCHAR),
            Column("v", INTEGER),
            Column("w", INTEGER, not_null=True),
        ],
        primary_key=["k"],
    )
    table = Table(schema)
    table.add_index("by_v", [1], unique=True)
    return table


def image(table: Table):
    """Rows by slot, the free list, and every index's entries."""
    return (
        list(table.scan_with_ids()),
        list(table._free_slots),
        {
            name: [(key, list(ids)) for key, ids in table.index(name).items()]
            for name in table.index_names()
        },
    )


def signed(replaced, stored) -> Counter:
    """The stored-row delta a trigger reports, as one signed multiset."""
    delta = Counter(stored)
    delta.subtract(replaced)
    return +delta


_keyed_row = st.tuples(
    st.sampled_from("abcde"),
    st.one_of(st.none(), st.integers(0, 6)),
    st.sampled_from([1, 2, 3, None]),
)


@given(
    st.lists(_keyed_row, max_size=12),
    st.sets(st.sampled_from("abcde")),
    st.lists(_keyed_row, min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_upsert_batch_equals_sequential_upserts(seed, deletes, batch):
    """One upsert_batch of a block matches single-row upsert_batch calls:
    rows, slot layout, free list, index entries, trigger payloads and
    the exception.  Single rows can fail where the block is consistent
    as a whole (two rows swap their ``by_v`` keys); then the block must
    equal the last-row-wins table.  A failed block changes nothing."""
    tables = []
    for _ in range(2):
        table = make_keyed_table()
        for row in seed:
            try:
                table.upsert_batch([row])
            except ConstraintError:
                pass
        for key in sorted(deletes):
            table.delete_by_key([key])
        tables.append(table)
    batched, single = tables
    before = image(batched)
    replaced: list = []
    stored: list = []
    try:
        batched.upsert_batch(batch, replaced_out=replaced, survivors_out=stored)
        error = None
    except ConstraintError as exc:
        error = type(exc)
    ref_replaced: list = []
    ref_stored: list = []
    ref_error = None
    for row in batch:
        try:
            single.upsert_batch(
                [row], replaced_out=ref_replaced, survivors_out=ref_stored
            )
        except ConstraintError as exc:
            ref_error = type(exc)
            break
    if error is not None:
        assert error is ref_error
        assert image(batched) == before
        assert replaced == stored == []
    elif ref_error is None:
        assert image(batched) == image(single)
        assert signed(replaced, stored) == signed(ref_replaced, ref_stored)
        if len({row[0] for row in batch}) == len(batch):
            assert (replaced, stored) == (ref_replaced, ref_stored)
    else:
        expected = {row[0]: row for _, row in before[0]}
        expected.update((row[0], row) for row in batch)
        assert sorted(batched.scan()) == sorted(expected.values())
        slots = {row[0]: row_id for row_id, row in before[0]}
        for row_id, row in batched.scan_with_ids():
            assert slots.get(row[0], row_id) == row_id  # replaced in place
            assert batched.lookup("by_v", [row[1]]) == [row]
            assert batched.pk_lookup([row[0]]) == row


def test_failed_upsert_leaves_the_table_unchanged():
    """A replace whose new row collides on a secondary unique index must
    not lose the row it was replacing."""
    table = make_table(primary_key=["k"])
    table.add_index("by_v", [1], unique=True)
    table.insert(["a", 1])
    table.insert(["b", 2])
    before = image(table)
    with pytest.raises(ConstraintError):
        table.upsert_batch([["a", 2]])
    assert image(table) == before


def test_upsert_batch_swaps_secondary_keys():
    table = make_table(primary_key=["k"])
    table.add_index("by_v", [1], unique=True)
    table.insert(["a", 1])
    table.insert(["b", 2])
    table.upsert_batch([["a", 2], ["b", 1]])
    assert list(table.scan_with_ids()) == [(0, ("a", 2)), (1, ("b", 1))]
    assert table.lookup("by_v", [1]) == [("b", 1)]


def test_insert_batch_rolls_back_atomically_on_duplicate():
    table = make_table(primary_key=["k"])
    table.insert(["kept", 0])
    with pytest.raises(ConstraintError):
        table.insert_batch([("a", 1), ("b", 2), ("a", 3)])
    with pytest.raises(ConstraintError):
        table.insert_batch([("x", 1), ("kept", 2)])
    # Nothing from either failed batch survived, in rows or indexes.
    assert sorted(table.scan()) == [("kept", 0)]
    assert table.pk_lookup(["a"]) is None
    assert table.pk_lookup(["x"]) is None


def test_insert_batch_secondary_unique_rollback():
    table = make_table(primary_key=["k"])
    table.add_index("by_v", [1], unique=True)
    table.insert(["a", 1])
    with pytest.raises(ConstraintError):
        table.insert_batch([("b", 2), ("c", 1)])  # c collides on by_v
    assert sorted(table.scan()) == [("a", 1)]
    assert table.pk_lookup(["b"]) is None
    assert table.lookup("by_v", [2]) == []


def test_upsert_batch_restores_replaced_rows_on_failure():
    table = make_table(primary_key=["k"])
    table.add_index("by_v", [1], unique=True)
    table.insert(["a", 1])
    table.insert(["b", 2])
    with pytest.raises(ConstraintError):
        # 'a' is replaced first, then ('c', 2) collides with 'b' on by_v.
        table.upsert_batch([("a", 5), ("c", 2)])
    assert sorted(table.scan()) == [("a", 1), ("b", 2)]  # nothing lost
    assert table.pk_lookup(["a"]) == ("a", 1)
    assert table.lookup("by_v", [1]) == [("a", 1)]


def test_upsert_batch_rejects_bad_arity_before_replacing():
    table = make_table(primary_key=["k"])
    table.insert(["a", 1])
    with pytest.raises(ExecutionError):
        table.upsert_batch([("a", 5), ("short",)])
    assert table.pk_lookup(["a"]) == ("a", 1)  # nothing was replaced

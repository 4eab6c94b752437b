"""Hash-keyed IVM state and in-place replace: live-key memory, call counts
and order-independent checkpoint images.

Counts, not clocks (like ``tests/engine/test_dml_cost.py``): the refresh
path makes point lookups only, so the join state must not touch an
``ARTIndex`` at all, and replacing existing keys must not delete and
re-insert rows or index entries.
"""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.datatypes import INTEGER
from repro.storage.art import ARTIndex
from repro.storage.table import Table
from repro.zset.batch import ZSetBatch
from repro.zset.incremental import (
    GroupExtremaState,
    IndexedJoinState,
    ShardedJoinState,
)

ART_METHODS = ("search", "insert", "delete", "items", "first_item", "last_item")


@pytest.fixture
def calls(monkeypatch):
    """Per-method call counts of every ``ARTIndex`` point operation and
    of ``Table.delete_row``."""
    counts = {name: 0 for name in ART_METHODS + ("delete_row",)}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ART_METHODS:
        counting(ARTIndex, name)
    counting(Table, "delete_row")
    return counts


def _batch(rows, weight):
    return ZSetBatch.from_rows(rows, [weight] * len(rows))


def _key_count(state) -> int:
    sides = (
        state._lefts + state._rights
        if isinstance(state, ShardedJoinState)
        else [state._left, state._right]
    )
    return sum(len(side._buckets) for side in sides)


@pytest.mark.parametrize(
    "state",
    [IndexedJoinState([0], [0]), ShardedJoinState([0], [0], shard_count=3)],
    ids=["unsharded", "sharded"],
)
def test_retracted_keys_leave_the_join_state(state):
    rows = [(i, f"r{i}") for i in range(1000)]
    empty = ZSetBatch.empty(2)
    state.apply(_batch(rows, 1), empty)
    assert state.left_rows == 1000 and _key_count(state) == 1000
    state.apply(_batch(rows, -1), empty)
    assert state.left_rows == 0
    assert _key_count(state) == 0


def test_upsert_of_existing_keys_moves_no_index_entry(calls):
    table = Table(
        TableSchema(
            "t", [Column("k", INTEGER), Column("v", INTEGER)], primary_key=["k"]
        )
    )
    table.insert_batch([(k, 0) for k in range(200)])
    for name in calls:
        calls[name] = 0
    replaced: list = []
    table.upsert_batch([(k, 1) for k in range(200)], replaced_out=replaced)
    assert len(replaced) == 200
    assert calls["insert"] == calls["delete"] == calls["delete_row"] == 0
    assert calls["search"] == 200  # one __pk__ probe per key
    assert sorted(table.scan()) == [(k, 1) for k in range(200)]


def test_join_apply_makes_no_art_call(calls):
    state = IndexedJoinState([0], [0])
    state.load_left([(i % 50, i) for i in range(500)])
    state.load_right([(i, f"c{i}") for i in range(50)])
    for name in calls:
        calls[name] = 0
    out = state.apply(
        _batch([(i % 50, 1000 + i) for i in range(100)], 1),
        _batch([(7, "c7")], -1),
    )
    assert len(out) > 0
    assert sum(calls.values()) == 0


def test_dump_does_not_depend_on_insertion_order():
    keys = [(k * 7919) % 300 for k in range(300)]  # a permutation
    images = []
    for order in (keys, keys[::-1]):
        join = IndexedJoinState([0], [0])
        for k in order:
            join.apply(_batch([(k, f"a{k}")], 1), _batch([(k, f"b{k}")], 1))
        extrema = GroupExtremaState()
        extrema.apply([(k % 17,) for k in order], order, [1] * len(order))
        images.append((join.dump(), extrema.dump()))
    assert images[0] == images[1]
    assert [row for _, row, _ in images[0][0][:2]] == [(0, "a0"), (1, "a1")]

"""Property tests for the durability codecs.

Round-trips, under Hypothesis:

* WAL records — ``encode_record`` → file bytes → ``read_records`` gives
  back the same tables and codec-normalized rows; truncating anywhere
  yields a clean prefix (never an error, never a partial record);
  flipping a byte inside a complete record raises :class:`WALError`.
* Checkpoint files — ``write_checkpoint`` → ``read_checkpoint`` returns
  the same LSN, meta and normalized sections; any single-byte corruption
  makes the reader skip the file (return None), never crash.
* Incremental-state images — ``GroupLivenessState``,
  ``GroupExtremaState`` and ``IndexedJoinState`` ``dump()`` images,
  re-``load``-ed, answer identically to the original state (including
  the ``-0.0`` vs ``0`` collapse the memcomparable codec performs, and
  empty states).
"""

from __future__ import annotations

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WALError
from repro.storage.keys import decode_key, encode_key
from repro.storage.wal import HEADER_SIZE, WriteAheadLog, read_records
from repro.storage.checkpoint import (
    Checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.zset.incremental import (
    GroupExtremaState,
    GroupLivenessState,
    IndexedJoinState,
)

# Values the memcomparable codec accepts.  Doubles are constrained to
# what encode_key allows (no NaN; integers only up to 2**53).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
    st.dates(
        min_value=datetime.date(1, 1, 1), max_value=datetime.date(9999, 12, 28)
    ),
)
rows = st.lists(scalars, min_size=1, max_size=5).map(tuple)


def normalize_row(row):
    """What one codec round-trip does to a row (the states and replay
    paths are built to treat these values as the same address)."""
    return tuple(decode_key(encode_key(row)))


# -- WAL ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.lists(rows, max_size=4)),
        max_size=6,
    )
)
def test_wal_roundtrip(tmp_path_factory, batches):
    tmp_path = tmp_path_factory.mktemp("wal")
    path = tmp_path / "wal.log"
    wal = WriteAheadLog.open(path)
    for table, table_rows in batches:
        wal.append(table, table_rows)
    wal.close()
    records, valid_size = read_records(path)
    assert valid_size == path.stat().st_size
    assert [r.table for r in records] == [table for table, _ in batches]
    assert [r.lsn for r in records] == list(range(1, len(batches) + 1))
    for record, (_, table_rows) in zip(records, batches):
        assert record.rows == [normalize_row(row) for row in table_rows]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(rows, max_size=3), min_size=1, max_size=4),
    st.data(),
)
def test_wal_truncation_yields_prefix(tmp_path_factory, batches, data):
    tmp_path = tmp_path_factory.mktemp("wal-trunc")
    path = tmp_path / "wal.log"
    wal = WriteAheadLog.open(path)
    for i, table_rows in enumerate(batches):
        wal.append(f"t{i}", table_rows)
    wal.close()
    size = path.stat().st_size
    cut = data.draw(st.integers(min_value=0, max_value=size))
    with open(path, "r+b") as handle:
        handle.truncate(cut)
    records, valid_size = read_records(path)
    assert valid_size <= cut
    # Records form a strict prefix of the original batches.
    assert len(records) <= len(batches)
    for i, record in enumerate(records):
        assert record.table == f"t{i}"
        assert record.lsn == i + 1
    # Re-opening resumes cleanly after the prefix.
    reopened = WriteAheadLog.open(path)
    assert reopened.last_lsn == len(records)
    assert path.stat().st_size == max(valid_size, HEADER_SIZE)
    reopened.close()


@settings(max_examples=40, deadline=None)
@given(rows, st.data())
def test_wal_corruption_raises(tmp_path_factory, row, data):
    tmp_path = tmp_path_factory.mktemp("wal-corrupt")
    path = tmp_path / "wal.log"
    wal = WriteAheadLog.open(path)
    wal.append("t", [row])
    wal.close()
    blob = bytearray(path.read_bytes())
    # Flip one byte inside the record (past the file magic).  Flipping
    # inside the record *header* may instead read as a torn/short record;
    # either way it must never produce a record silently.
    position = data.draw(
        st.integers(min_value=HEADER_SIZE, max_value=len(blob) - 1)
    )
    original = blob[position]
    blob[position] ^= 0xFF
    path.write_bytes(bytes(blob))
    try:
        records, valid_size = read_records(path)
    except WALError:
        return  # CRC (or structure) caught it
    # A length-field flip can make the record look torn: then we must
    # have recovered nothing, not a mangled record.
    assert records == []
    assert valid_size == HEADER_SIZE


# -- checkpoint files --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**63 - 1),
    st.dictionaries(
        st.text(min_size=1, max_size=8), st.integers(-100, 100), max_size=4
    ),
    st.dictionaries(
        st.text(min_size=1, max_size=10),
        st.lists(rows, max_size=4),
        max_size=4,
    ),
)
def test_checkpoint_roundtrip(tmp_path_factory, lsn, meta, sections):
    tmp_path = tmp_path_factory.mktemp("ckpt")
    path = tmp_path / "checkpoint-00000001.ckpt"
    write_checkpoint(path, lsn, meta, sections)
    loaded = read_checkpoint(path)
    assert isinstance(loaded, Checkpoint)
    assert loaded.lsn == lsn
    assert loaded.meta == meta
    assert loaded.sections == {
        name: [normalize_row(row) for row in section_rows]
        for name, section_rows in sections.items()
    }


@settings(max_examples=40, deadline=None)
@given(st.lists(rows, min_size=1, max_size=4), st.data())
def test_checkpoint_corruption_is_skipped(tmp_path_factory, section_rows, data):
    tmp_path = tmp_path_factory.mktemp("ckpt-corrupt")
    path = tmp_path / "checkpoint-00000001.ckpt"
    write_checkpoint(path, 7, {"v": 1}, {"rows:t": section_rows})
    blob = bytearray(path.read_bytes())
    position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[position] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert read_checkpoint(path) is None
    # Truncation anywhere is likewise a skip, not a crash.
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with open(path, "r+b") as handle:
        handle.truncate(cut)
    assert read_checkpoint(path) is None or cut == len(blob)


# -- incremental-state images ------------------------------------------------

group_keys = st.lists(scalars, min_size=1, max_size=2).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(group_keys, st.integers(min_value=1, max_value=50)),
        max_size=10,
        unique_by=lambda kv: encode_key(kv[0]),
    )
)
def test_liveness_dump_load(entries):
    state = GroupLivenessState()
    state.load(entries)
    image = state.dump()
    reloaded = GroupLivenessState()
    reloaded.load(image)
    assert sorted(reloaded.dump(), key=lambda kv: encode_key(kv[0])) == sorted(
        image, key=lambda kv: encode_key(kv[0])
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            group_keys,
            st.one_of(
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.text(max_size=6),
                st.dates(
                    min_value=datetime.date(1970, 1, 1),
                    max_value=datetime.date(2100, 1, 1),
                ),
            ),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=12,
    )
)
def test_extrema_dump_load(entries):
    state = GroupExtremaState()
    state.load(entries)
    image = state.dump()
    reloaded = GroupExtremaState()
    reloaded.load(image)
    assert reloaded.dump() == image
    # Every group answers min and max identically after the round trip.
    for key, _, _ in image:
        for want_max in (False, True):
            assert reloaded.extremum(key, want_max) == state.extremum(
                key, want_max
            ), (key, want_max)


def test_extrema_negative_zero_collapses_with_zero():
    """-0.0 and 0 encode identically, so they are one cell — dump/load
    must preserve that collapse, not resurrect two cells."""
    state = GroupExtremaState()
    state.load([(("g",), -0.0, 1), (("g",), 0, 1)])
    image = state.dump()
    assert len(image) == 1
    (entry,) = image
    assert entry[2] == 2
    reloaded = GroupExtremaState()
    reloaded.load(image)
    assert reloaded.extremum(("g",), False) == state.extremum(("g",), False)


def test_empty_state_dumps_empty():
    assert GroupLivenessState().dump() == []
    assert GroupExtremaState().dump() == []
    assert IndexedJoinState([0], [0]).dump() == []


join_rows = st.lists(
    st.tuples(
        st.integers(0, 5),  # join key
        st.one_of(st.integers(-50, 50), st.text(max_size=4), st.none()),
    ).map(tuple),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(join_rows, join_rows)
def test_join_state_dump_load(left, right):
    state = IndexedJoinState([0], [0])
    state.load_left(left)
    state.load_right(right)
    image = state.dump()
    entry_key = lambda entry: (entry[0], encode_key(entry[1]), entry[2])
    reloaded = IndexedJoinState([0], [0])
    reloaded.load_dump(image)
    assert sorted(reloaded.dump(), key=entry_key) == sorted(image, key=entry_key)

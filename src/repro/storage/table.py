"""Row-store table with primary-key enforcement and index maintenance.

Rows are Python tuples stored in a slotted list; deleted slots are reused
lazily.  Each table maintains zero or more ART indexes; the primary key
(when declared) is a unique ART index, which is what makes `INSERT OR
REPLACE` (upsert) efficient — the same role DuckDB's ART plays in the
paper's aggregate-maintenance plans.  A replace writes the new row into
the old row's slot and touches an index only when that index's key
changed.  Table indexes stay ordered trees because the recompute and
range reads share them; the IVM state of :mod:`repro.zset.incremental`,
which needs only point access, hashes the same memcomparable keys.
"""

from __future__ import annotations

import threading
from typing import Any, Collection, Iterable, Iterator, Sequence

from repro.catalog.schema import TableSchema
from repro.datatypes.values import coerce_for_storage
from repro.errors import ConstraintError, ExecutionError
from repro.storage.art import ARTIndex
from repro.storage.keys import encode_key

Row = tuple


class Table:
    """Mutable table storage bound to a :class:`TableSchema`."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: list[Row | None] = []
        self._free_slots: list[int] = []
        self._live_count = 0
        self._indexes: dict[str, tuple[list[int], ARTIndex]] = {}
        # Columnar (struct-of-arrays) mirror of the live rows in scan
        # order, built lazily by scan_columns() and kept valid across
        # tail appends; any other mutation invalidates it (dirty bit via
        # None).  Tables never read columnarly never pay for it.
        self._columns_cache: list[list] | None = None
        # Guards the cache and the snapshot state below.  Cache lists
        # handed to a caller are never mutated afterwards: once
        # _cache_shared is set, the next tail append publishes fresh
        # list objects and swaps them in (publish-then-swap), so a
        # reader on another thread can never observe torn column
        # lengths mid-extend.
        self._cache_lock = threading.Lock()
        self._cache_shared = False
        # Snapshot-read state (epoch pinning).  While pinned, the first
        # mutation parks the current row list as the read epoch and
        # swaps self._rows for a shallow copy; readers on threads other
        # than the pinning owner scan the parked epoch and therefore
        # never see a half-applied refresh.  Slot ids stay valid for
        # both lists, so ART row ids keep working either way.
        self._snapshot_pinned = False
        self._snapshot_owner: int | None = None
        self._snapshot_rows: list[Row | None] | None = None
        self._snapshot_columns: list[list] | None = None
        # Parked alongside the rows at copy-on-write time so a failed
        # refresh can be aborted: restoring _rows without the matching
        # free list / live count would let a later insert overwrite a
        # live slot.
        self._snapshot_free_slots: list[int] | None = None
        self._snapshot_live_count = 0
        if schema.primary_key:
            self.add_index(
                "__pk__", schema.primary_key_indexes, unique=True
            )

    # -- row access --------------------------------------------------------

    def __len__(self) -> int:
        return self._live_count

    def scan(self) -> Iterator[Row]:
        """Yield live rows in slot order (the pinned epoch for readers
        racing a snapshot-pinned refresh)."""
        for row in self._reader_rows():
            if row is not None:
                yield row

    def scan_with_ids(self) -> Iterator[tuple[int, Row]]:
        for row_id, row in enumerate(self._reader_rows()):
            if row is not None:
                yield row_id, row

    def scan_columns(self) -> list[list]:
        """Live rows transposed into per-column value lists (struct-of-
        arrays order matches the schema).  The result is a cached mirror
        maintained incrementally across tail appends (the delta-table
        ingest pattern: append-heavy, truncated wholesale), so repeated
        refreshes don't re-transpose the whole table; deletes and
        updates invalidate it.  Callers must not mutate the returned
        lists; the lists they receive are frozen — a later append
        publishes fresh list objects instead of extending these."""
        with self._cache_lock:
            snapshot = self._snapshot_rows
            if (
                snapshot is not None
                and threading.get_ident() != self._snapshot_owner
            ):
                if self._snapshot_columns is None:
                    self._snapshot_columns = self._transpose(snapshot)
                return self._snapshot_columns
            if self._columns_cache is None:
                self._columns_cache = self._transpose(self._rows)
            self._cache_shared = True
            return self._columns_cache

    def _transpose(self, rows: Sequence[Row | None]) -> list[list]:
        columns: list[list] = [[] for _ in self.schema.columns]
        for row in rows:
            if row is not None:
                for j, value in enumerate(row):
                    columns[j].append(value)
        return columns

    def _reader_rows(self) -> list[Row | None]:
        """The row list this thread should scan: the parked snapshot
        epoch while a refresh on another thread holds the pin, else the
        live rows (the pinning thread always sees its own writes)."""
        snapshot = self._snapshot_rows
        if (
            snapshot is not None
            and threading.get_ident() != self._snapshot_owner
        ):
            return snapshot
        return self._rows

    # -- snapshot pinning ---------------------------------------------------

    def begin_refresh_snapshot(self) -> None:
        """Pin the current epoch for the calling (refresher) thread.

        Until :meth:`commit_refresh_snapshot`, the first mutation parks
        the pre-refresh row list; readers on other threads scan that
        parked epoch, so a refresh is invisible until it commits.  The
        copy is lazy — an unpinned or mutation-free refresh costs
        nothing."""
        with self._cache_lock:
            self._snapshot_pinned = True
            self._snapshot_owner = threading.get_ident()
            self._snapshot_rows = None
            self._snapshot_columns = None

    def commit_refresh_snapshot(self) -> None:
        """Publish the refreshed state: drop the parked epoch so all
        threads read the live rows again."""
        with self._cache_lock:
            self._snapshot_pinned = False
            self._snapshot_owner = None
            self._snapshot_rows = None
            self._snapshot_columns = None
            self._snapshot_free_slots = None
            self._snapshot_live_count = 0

    def abort_refresh_snapshot(self) -> None:
        """Throw away the refresh's writes and restore the pinned epoch.

        The inverse of :meth:`commit_refresh_snapshot` for a refresh that
        raised mid-pipeline: the parked row list, columnar mirror, free
        list, and live count become current again, so readers — and the
        next mutation — see the pre-refresh state instead of a
        half-applied one.  ART index entries added by the failed refresh
        are *not* rolled back (the indexes are not parked); the caller
        must schedule a full recompute of the table, whose
        :meth:`truncate` rebuilds every index from scratch.  Without a
        parked epoch (no mutation happened, or the table was never
        pinned) this just releases the pin."""
        with self._cache_lock:
            if self._snapshot_rows is not None:
                self._rows = self._snapshot_rows
                self._columns_cache = self._snapshot_columns
                if self._snapshot_free_slots is not None:
                    self._free_slots = self._snapshot_free_slots
                self._live_count = self._snapshot_live_count
            self._snapshot_pinned = False
            self._snapshot_owner = None
            self._snapshot_rows = None
            self._snapshot_columns = None
            self._snapshot_free_slots = None
            self._snapshot_live_count = 0

    def _maybe_cow(self) -> None:
        """Copy-on-first-write under a snapshot pin: park the current
        row list as the read epoch and mutate a shallow copy.  Slot ids
        are preserved, so index row ids resolve in both lists."""
        if not self._snapshot_pinned or self._snapshot_rows is not None:
            return
        with self._cache_lock:
            if not self._snapshot_pinned or self._snapshot_rows is not None:
                return
            # Freeze the columnar mirror alongside the rows: readers of
            # the parked epoch may reuse it, so later appends must
            # publish fresh lists rather than extend these.
            self._snapshot_columns = self._columns_cache
            self._cache_shared = True
            self._snapshot_rows = self._rows
            self._snapshot_free_slots = list(self._free_slots)
            self._snapshot_live_count = self._live_count
            self._rows = list(self._rows)

    def row(self, row_id: int) -> Row:
        row = self._rows[row_id]
        if row is None:
            raise ExecutionError(f"row id {row_id} is deleted")
        return row

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Sequence[Any], coerce: bool = True) -> int:
        """Insert one row; returns its row id.

        Coerces values to the declared column types and enforces NOT NULL
        and primary-key uniqueness.
        """
        columns = self.schema.columns
        if len(values) != len(columns):
            raise ExecutionError(
                f"table {self.schema.name!r} expects {len(columns)} values, "
                f"got {len(values)}"
            )
        if coerce:
            row = tuple(
                coerce_for_storage(value, column.type)
                for value, column in zip(values, columns)
            )
        else:
            row = tuple(values)
        self._check_not_null([row])
        self._maybe_cow()
        reused_slot = bool(self._free_slots)
        row_id = self._allocate_slot(row)
        try:
            self._index_insert(row_id, row)
        except ConstraintError:
            # Exact undo: a reused slot goes back on the free list (it
            # was popped from the tail, so appending restores the order),
            # a tail slot is truncated away rather than free-listed.
            if reused_slot:
                self._rows[row_id] = None
                self._free_slots.append(row_id)
            else:
                del self._rows[row_id:]
            raise
        self._live_count += 1
        self._cache_append(row, reused_slot)
        return row_id

    def insert_batch(
        self,
        rows: Sequence[Sequence[Any]],
        coerce: bool = True,
        stored_out: list | None = None,
    ) -> int:
        """Append a block of rows at once; returns how many were inserted.

        The columnar counterpart of :meth:`insert` and the write half of
        the engine's batched ingestion path: coercion and NOT NULL checks
        run column-at-a-time, slots are allocated in one extend, and each
        index is maintained with a single sorted pass over the batch's
        encoded keys instead of per-row inserts.  The batch is atomic —
        a constraint violation rolls back every row of it (per-row
        :meth:`insert` leaves the prefix in place instead).

        ``stored_out``, when given, receives the rows as stored (after
        coercion) — extended only on success, so a trigger-firing caller
        reports what the table holds, not what the statement spelled.
        """
        columns = self.schema.columns
        width = len(columns)
        prepared: list[Row] = []
        for values in rows:
            if len(values) != width:
                raise ExecutionError(
                    f"table {self.schema.name!r} expects {width} values, "
                    f"got {len(values)}"
                )
            prepared.append(tuple(values))
        if not prepared:
            return 0
        if coerce:
            cols = list(zip(*prepared))
            cols = [
                [coerce_for_storage(value, column.type) for value in col]
                for col, column in zip(cols, columns)
            ]
            prepared = list(zip(*cols))
        self._check_not_null(prepared)

        self._maybe_cow()
        reused_slots = bool(self._free_slots)
        tail_start = len(self._rows)
        row_ids = self._allocate_slots(prepared)
        inserted: list[tuple[str, list[tuple[bytes, int]]]] = []
        try:
            for name, (key_columns, index) in self._indexes.items():
                entries = [
                    (encode_key([row[i] for i in key_columns]), row_id)
                    for row, row_id in zip(prepared, row_ids)
                ]
                # One sorted pass per index: duplicate keys inside the
                # batch become adjacent (cheap unique pre-check) and the
                # ART is fed in key order.
                entries.sort(key=lambda entry: entry[0])
                if index.unique:
                    for (a, _), (b, _) in zip(entries, entries[1:]):
                        if a == b:
                            raise ConstraintError(
                                f"duplicate key violates unique constraint "
                                f"on {self.schema.name!r} ({name})"
                            )
                done: list[tuple[bytes, int]] = []
                try:
                    for key, row_id in entries:
                        index.insert(key, row_id)
                        done.append((key, row_id))
                except ConstraintError:
                    for key, row_id in done:
                        index.delete(key, row_id)
                    raise ConstraintError(
                        f"duplicate key violates unique constraint on "
                        f"{self.schema.name!r} ({name})"
                    ) from None
                inserted.append((name, entries))
        except ConstraintError:
            for name, entries in inserted:
                undo = self._indexes[name][1]
                for key, row_id in entries:
                    undo.delete(key, row_id)
            # Exact undo of _allocate_slots: truncate the tail extend
            # and re-free the reused slots in reverse pop order, so the
            # row list and free list match the pre-batch state
            # byte-for-byte (release-listing tail slots would leave
            # phantom None entries behind).
            del self._rows[tail_start:]
            for row_id in reversed(row_ids):
                if row_id < tail_start:
                    self._rows[row_id] = None
                    self._free_slots.append(row_id)
            raise
        self._live_count += len(prepared)
        with self._cache_lock:
            if self._columns_cache is not None:
                if reused_slots:
                    self._columns_cache = None
                else:
                    if self._cache_shared:
                        self._columns_cache = [
                            list(c) for c in self._columns_cache
                        ]
                        self._cache_shared = False
                    for j, cached in enumerate(self._columns_cache):
                        cached.extend(row[j] for row in prepared)
        if stored_out is not None:
            stored_out.extend(prepared)
        return len(prepared)

    def upsert_batch(
        self,
        rows: Sequence[Sequence[Any]],
        replaced_out: list | None = None,
        survivors_out: list | None = None,
    ) -> int:
        """INSERT OR REPLACE a block of rows over the primary key.

        Requires a primary key (DuckDB likewise requires an ART index for
        `INSERT OR REPLACE`, as the paper notes).  Later rows win on
        intra-batch key collisions.  A row whose key exists is written
        into that row's slot, moving only the secondary index entries
        whose key changed; the rest are appended through
        :meth:`insert_batch`.  Atomic: on any failure (NOT NULL, unique)
        the table and its indexes are left as they were.  Returns the
        number of input rows.

        ``replaced_out`` / ``survivors_out``, when given, receive the old
        rows this batch displaced and the deduped rows it stored —
        extended only on success, so trigger-firing callers can report
        the exact stored-row delta (retract replaced, insert survivors).
        """
        if not self.schema.primary_key:
            raise ExecutionError(
                f"INSERT OR REPLACE on {self.schema.name!r} requires a PRIMARY KEY"
            )
        columns = self.schema.columns
        key_columns, index = self._indexes["__pk__"]
        count = 0
        deduped: dict[bytes, Row] = {}
        for values in rows:
            if len(values) != len(columns):
                # Checked before any row is replaced (zip would silently
                # truncate and insert_batch would reject too late).
                raise ExecutionError(
                    f"table {self.schema.name!r} expects {len(columns)} "
                    f"values, got {len(values)}"
                )
            row = tuple(
                coerce_for_storage(value, column.type)
                for value, column in zip(values, columns)
            )
            deduped[encode_key([row[i] for i in key_columns])] = row
            count += 1
        search = index.search
        targets: list[tuple[int, Row]] = []
        fresh: list[Row] = []
        for key, row in deduped.items():
            found = search(key)
            if found:
                targets.append((found[0], row))
            else:
                fresh.append(row)
        self._check_not_null([row for _, row in targets])
        # The __pk__ entry of a target is the key it was just found by.
        replaced = self._overwrite(targets, skip="__pk__")
        try:
            self.insert_batch(fresh, coerce=False)
        except Exception:
            # The old rows coexisted before, so putting them back cannot
            # itself violate a constraint.
            self._overwrite(
                [(row_id, old) for (row_id, _), old in zip(targets, replaced)],
                skip="__pk__",
            )
            raise
        if replaced_out is not None:
            replaced_out.extend(replaced)
        if survivors_out is not None:
            survivors_out.extend(deduped.values())
        return count

    def delete_row(self, row_id: int) -> Row:
        """Delete by row id; returns the removed row."""
        row = self.row(row_id)
        self._maybe_cow()
        self._index_delete(row_id, row)
        self._release_slot(row_id)
        self._live_count -= 1
        self._invalidate_cache()
        return row

    def delete_by_key(self, key_values: Sequence[Any]) -> int:
        """Delete the row(s) matching a primary-key tuple; returns the
        count (0 when the key is absent).  Requires a primary key."""
        if "__pk__" not in self._indexes:
            raise ExecutionError(
                f"delete_by_key on {self.schema.name!r} requires a PRIMARY KEY"
            )
        victims = self.probe("__pk__", [key_values])
        for row_id, _ in victims:
            self.delete_row(row_id)
        return len(victims)

    def update_row(self, row_id: int, new_values: Sequence[Any]) -> tuple[Row, Row]:
        """Replace the row at ``row_id``; returns (old_row, new_row)."""
        old = self.row(row_id)
        new_row = tuple(
            coerce_for_storage(value, column.type)
            for value, column in zip(new_values, self.schema.columns)
        )
        self._check_not_null([new_row])
        self._overwrite([(row_id, new_row)])
        return old, new_row

    def truncate(self) -> int:
        """Remove all rows; returns how many were removed."""
        count = self._live_count
        self._maybe_cow()
        self._rows.clear()
        self._free_slots.clear()
        self._live_count = 0
        self._invalidate_cache()
        for name, (key_columns, index) in list(self._indexes.items()):
            self._indexes[name] = (key_columns, ARTIndex(unique=index.unique))
        return count

    # -- indexes ------------------------------------------------------------

    def add_index(
        self, name: str, key_columns: Sequence[int], unique: bool = False,
        chunked: bool = False, chunk_size: int = 2048,
    ) -> ARTIndex:
        """Create and populate an ART index over ``key_columns``.

        ``chunked=True`` uses the chunk-build-and-merge strategy.
        """
        entries = [
            (encode_key([row[i] for i in key_columns]), row_id)
            for row_id, row in self.scan_with_ids()
        ]
        if chunked:
            index = ARTIndex.build_chunked(entries, chunk_size=chunk_size, unique=unique)
        else:
            index = ARTIndex(unique=unique)
            for key, row_id in entries:
                index.insert(key, row_id)
        self._indexes[name] = (list(key_columns), index)
        return index

    def drop_index(self, name: str) -> None:
        self._indexes.pop(name, None)

    def index(self, name: str) -> ARTIndex:
        return self._indexes[name][1]

    def has_index(self, name: str) -> bool:
        return name in self._indexes

    def index_names(self) -> list[str]:
        return sorted(self._indexes)

    def lookup(self, name: str, key_values: Sequence[Any]) -> list[Row]:
        """Point lookup through a named index."""
        _, index = self._indexes[name]
        return [self.row(row_id) for row_id in index.search(encode_key(key_values))]

    def covering_index(
        self, columns: Collection[int]
    ) -> tuple[str, list[int]] | None:
        """The index to probe when ``columns`` (ordinals) are bound to
        values: the first whose key columns are all among them, primary
        key before unique before the rest.  Returns its name and key
        columns (the order probe keys are given in), or None."""
        covered = [
            (name != "__pk__", not index.unique, name, key_columns)
            for name, (key_columns, index) in self._indexes.items()
            if all(ordinal in columns for ordinal in key_columns)
        ]
        if not covered:
            return None
        *_, name, key_columns = min(covered)
        return name, key_columns

    def index_key_columns(self, name: str) -> list[int]:
        return list(self._indexes[name][0])

    def probe(
        self, name: str, keys: Iterable[Sequence[Any]]
    ) -> list[tuple[int, Row]] | None:
        """The index access path: ``(row_id, row)`` of every row stored
        under one of ``keys`` in index ``name``, each once, by ascending
        row id — the order a scan meets them in.  None when the calling
        thread reads a parked snapshot epoch: the indexes are not parked,
        so that reader scans.  The search holds the lock a refresh's
        first write takes to park the epoch, so no pinned refresh starts
        changing the index under it."""
        with self._cache_lock:
            rows = self._rows
            if self._reader_rows() is not rows:
                return None
            search = self._indexes[name][1].search
            row_ids = sorted(
                {row_id for key in keys for row_id in search(encode_key(key))}
            )
            return [(row_id, rows[row_id]) for row_id in row_ids]

    def lookup_row_ids(self, name: str, key_values: Sequence[Any]) -> list[int]:
        """Row ids matching ``key_values`` (given in the index's key order)."""
        _, index = self._indexes[name]
        return index.search(encode_key(key_values))

    def pk_lookup(self, key_values: Sequence[Any]) -> Row | None:
        """Primary-key point lookup (None when absent or no PK declared)."""
        if "__pk__" not in self._indexes:
            return None
        rows = self.lookup("__pk__", key_values)
        return rows[0] if rows else None

    # -- internals ------------------------------------------------------------

    def _invalidate_cache(self) -> None:
        with self._cache_lock:
            self._columns_cache = None

    def _cache_append(self, row: Row, reused_slot: bool) -> None:
        """Keep the columnar mirror valid across a single insert.

        Tail appends extend the cached columns in place (scan order is
        slot order, so a new tail slot lands at the end); a reused middle
        slot would reorder the mirror, so it is dropped instead.  If the
        current lists were handed to a caller, fresh copies are
        published first so the caller's reference stays frozen.
        """
        with self._cache_lock:
            if self._columns_cache is None:
                return
            if reused_slot:
                self._columns_cache = None
                return
            if self._cache_shared:
                self._columns_cache = [list(c) for c in self._columns_cache]
                self._cache_shared = False
            for column, value in zip(self._columns_cache, row):
                column.append(value)

    def _allocate_slot(self, row: Row) -> int:
        if self._free_slots:
            row_id = self._free_slots.pop()
            self._rows[row_id] = row
            return row_id
        self._rows.append(row)
        return len(self._rows) - 1

    def _allocate_slots(self, rows: Sequence[Row]) -> list[int]:
        """Place a block of rows: free slots first, then one tail extend."""
        row_ids: list[int] = []
        filled = 0
        while self._free_slots and filled < len(rows):
            row_id = self._free_slots.pop()
            self._rows[row_id] = rows[filled]
            row_ids.append(row_id)
            filled += 1
        if filled < len(rows):
            start = len(self._rows)
            self._rows.extend(rows[filled:])
            row_ids.extend(range(start, len(self._rows)))
        return row_ids

    def _release_slot(self, row_id: int) -> None:
        self._rows[row_id] = None
        self._free_slots.append(row_id)

    def _check_not_null(self, rows: Sequence[Row]) -> None:
        for j, column in enumerate(self.schema.columns):
            if column.not_null and any(row[j] is None for row in rows):
                raise ConstraintError(
                    f"NOT NULL constraint failed: "
                    f"{self.schema.name}.{column.name}"
                )

    def _overwrite(
        self, targets: Sequence[tuple[int, Row]], skip: str | None = None
    ) -> list[Row]:
        """Write each ``(row_id, new_row)`` into its slot; returns the old
        rows.  Only index entries whose encoded key changed move (index
        ``skip`` is left alone): every changed old key leaves before any
        new key enters, so keys swapped between targets do not collide.
        A unique violation puts every entry back and writes no row."""
        if not targets:
            return []
        olds = [self.row(row_id) for row_id, _ in targets]
        self._maybe_cow()
        moves: list[tuple[str, ARTIndex, list[tuple[int, bytes, bytes]]]] = []
        for name, (key_columns, index) in self._indexes.items():
            if name == skip:
                continue
            changed = []
            for (row_id, new), old in zip(targets, olds):
                old_key = encode_key([old[i] for i in key_columns])
                new_key = encode_key([new[i] for i in key_columns])
                if old_key != new_key:
                    changed.append((row_id, old_key, new_key))
            if changed:
                moves.append((name, index, changed))
        for _, index, changed in moves:
            for row_id, old_key, _ in changed:
                index.delete(old_key, row_id)
        entered: list[tuple[ARTIndex, int, bytes]] = []
        for name, index, changed in moves:
            for row_id, _, new_key in changed:
                try:
                    index.insert(new_key, row_id)
                except ConstraintError:
                    for undo, done_id, done_key in entered:
                        undo.delete(done_key, done_id)
                    for _, undo, back in moves:
                        for back_id, old_key, _ in back:
                            undo.insert(old_key, back_id)
                    raise ConstraintError(
                        f"duplicate key violates unique constraint on "
                        f"{self.schema.name!r} ({name})"
                    ) from None
                entered.append((index, row_id, new_key))
        for row_id, new in targets:
            self._rows[row_id] = new
        self._invalidate_cache()
        return olds

    def _index_insert(self, row_id: int, row: Row) -> None:
        inserted: list[tuple[str, bytes]] = []
        for name, (key_columns, index) in self._indexes.items():
            key = encode_key([row[i] for i in key_columns])
            try:
                index.insert(key, row_id)
            except ConstraintError:
                for done_name, done_key in inserted:
                    self._indexes[done_name][1].delete(done_key, row_id)
                raise ConstraintError(
                    f"duplicate key violates unique constraint on "
                    f"{self.schema.name!r} ({name})"
                ) from None
            inserted.append((name, key))

    def _index_delete(self, row_id: int, row: Row) -> None:
        for _, (key_columns, index) in self._indexes.items():
            key = encode_key([row[i] for i in key_columns])
            index.delete(key, row_id)

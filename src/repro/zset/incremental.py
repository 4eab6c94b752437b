"""Differentiation / integration, reference delta computations, and the
persistent indexed join state.

These are the D and I operators of DBSP as the paper states them:

    D:  ΔT = T' − T          and   ΔV = V' − V
    I:  T + ΔT = T'          and   V + ΔV = V'

:func:`delta_view` is the *specification* of IVM — compute the view on the
old and new integrated states and difference them.  The compiler's output
must produce exactly this ΔV effect on the materialized table, so tests
run both and compare.

:class:`IndexedJoinState` is the *implementation-grade* form of the
three-term join delta: instead of rescanning the full stored Z-set on
every propagation, each side keeps its integrated state in a hash map on
the memcomparable key encoding of :mod:`repro.storage.keys`, so a delta
batch only touches the keys it actually contains.
:class:`GroupLivenessState` and :class:`GroupExtremaState` are the same
idea for the two non-invertible maintenance questions — is a group still
alive, and what is its MIN/MAX after a retraction — each integrating
exactly the auxiliary per-group structure that answers its question
without a rescan.  Every lookup here is a point lookup; the one job that
needs order, the per-group value multiset behind MIN/MAX, keeps the ART
of :mod:`repro.storage.art`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.storage.art import ARTIndex
from repro.storage.keys import decode_key, encode_key
from repro.zset.batch import ZSetBatch
from repro.zset.zset import ZSet

Query = Callable[..., ZSet]


def delta_view(query: Query, tables: list[ZSet], deltas: list[ZSet]) -> ZSet:
    """ΔV = Q(T1+ΔT1, ..., Tn+ΔTn) − Q(T1, ..., Tn).

    Works for *any* query, linear or not — this is the brute-force
    differentiation that incremental plans must be equivalent to.
    """
    if len(tables) != len(deltas):
        raise ValueError("tables and deltas must align")
    new_tables = [t + d for t, d in zip(tables, deltas)]
    return query(*new_tables) - query(*tables)


def integrate(state: ZSet, delta: ZSet) -> ZSet:
    """I: fold a delta into the integrated state."""
    return state + delta


def incremental_join_delta(
    left: ZSet,
    delta_left: ZSet,
    right: ZSet,
    delta_right: ZSet,
    join: Callable[[ZSet, ZSet], ZSet],
) -> ZSet:
    """The three-term bilinear join delta (paper: "the incremental form of
    a join consists of three relational join operators").

    With OLD states on both sides:

        Δ(A ⋈ B) = ΔA ⋈ B  +  A ⋈ ΔB  +  ΔA ⋈ ΔB

    (Equivalently, with NEW states the last term is subtracted; the
    compiler emits the new-state form because base tables are updated
    before propagation runs.)
    """
    return (
        join(delta_left, right)
        + join(left, delta_right)
        + join(delta_left, delta_right)
    )


# ---------------------------------------------------------------------------
# Persistent group liveness state
# ---------------------------------------------------------------------------


class GroupLivenessState:
    """Exact per-group row counters — the I operator over COUNT(*) deltas.

    Views without a stored liveness column (a visible SUM, no COUNT(*))
    leave the SQL path only the paper's imprecise ``DELETE ... WHERE
    sum = 0`` test, which both deletes live groups whose values genuinely
    sum to zero and keeps dead groups whose float sums carry residue.
    This state integrates the *weighted count* of every group instead —
    an exact integer, so cancellation is exact — and reports the groups
    whose count reaches zero.  It is persistent across refreshes, like
    :class:`IndexedJoinState`, and is seeded from a COUNT(*) recompute at
    view-creation time.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def count(self, key: tuple) -> int:
        return self._counts.get(key, 0)

    def load(self, entries: Iterable[tuple[tuple, int]]) -> None:
        """Seed the counters with ``(key, count)`` pairs."""
        self._counts = {key: int(count) for key, count in entries}

    def dump(self) -> list[tuple[tuple, int]]:
        """Checkpoint image: every ``(key, count)`` pair.  ``load`` of a
        dump reproduces the state exactly."""
        return list(self._counts.items())

    def apply(
        self, keys: Sequence[tuple], nets: Sequence[int]
    ) -> list[tuple]:
        """Integrate one refresh round's per-group count deltas.

        Returns the keys whose integrated count dropped to zero (or below)
        this round — the groups step 3 must delete.  Dead groups are
        removed from the state so a later re-insert starts fresh.
        """
        dead: list[tuple] = []
        for key, net in zip(keys, nets):
            count = self._counts.get(key, 0) + int(net)
            if count <= 0:
                self._counts.pop(key, None)
                dead.append(key)
            else:
                self._counts[key] = count
        return dead


# ---------------------------------------------------------------------------
# Persistent per-group extrema state (MIN/MAX retraction)
# ---------------------------------------------------------------------------


class GroupExtremaState:
    """Ordered multiset of aggregate input values per group — the I
    operator over one MIN/MAX column's source values.

    MIN/MAX retraction is not invertible from the stored extremum alone:
    deleting the current extremum needs the runner-up, which the
    materialized row no longer carries.  The SQL fallback (step 2b)
    answers that with a full per-group rescan of the base tables —
    O(|base|) per touched group.  This state instead integrates the
    weighted count of every (group, value) pair: a hash map from the
    memcomparable group key to a per-group ART over the encoded value,
    whose leaves hold mutable ``[value, count]`` cells.  Only the inner
    tree needs order: the post-retraction extremum is one hash lookup
    plus one leftmost/rightmost edge walk — O(log n) per touched group.

    Like :class:`GroupLivenessState` it is persistent across refreshes,
    fed source-level deltas by the native step 1, and seeded from a
    ``GROUP BY key, value`` COUNT(*) recompute at view-creation time.
    NULL values never enter the state (SQL MIN/MAX skip NULLs), so an
    all-NULL group reads back as None — the SQL answer.
    """

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: dict[bytes, ARTIndex] = {}

    def __len__(self) -> int:
        """Number of groups currently holding at least one value."""
        return len(self._groups)

    def load(self, entries: Iterable[tuple[tuple, object, int]]) -> None:
        """Seed with ``(group_key, value, count)`` triples."""
        self._groups = {}
        for key, value, count in entries:
            self.apply([key], [value], [count])

    def dump(self) -> list[tuple[tuple, object, int]]:
        """Checkpoint image: ``(group_key, value, count)`` triples in
        (group, value) key order.  Group keys are rebuilt through
        :func:`~repro.storage.keys.decode_key`, so their numbers come
        back as floats — encoding-equivalent to the originals (the state
        addresses groups by encoded bytes), and ``load`` of a dump
        answers every ``extremum`` query identically.  Values keep their
        original objects: the inner cells store them verbatim."""
        out: list[tuple[tuple, object, int]] = []
        for group_encoded in sorted(self._groups):
            key = tuple(decode_key(group_encoded))
            for _, cells in self._groups[group_encoded].items():
                value, count = cells[0]
                out.append((key, value, count))
        return out

    def apply(self, keys: Sequence[tuple], values: Sequence, nets) -> None:
        """Integrate one refresh round's per-(group, value) count deltas.

        Counts that reach zero drop the value cell; groups left empty
        drop entirely, so a later re-insert starts fresh.
        """
        groups = self._groups
        for key, value, net in zip(keys, values, nets):
            net = int(net)
            if net == 0 or value is None:
                continue
            group_key = encode_key(key)
            bucket = groups.get(group_key)
            if bucket is None:
                if net < 0:
                    continue  # retraction of a value never integrated
                bucket = groups[group_key] = ARTIndex()
            value_key = encode_key((value,))
            cells = bucket.search(value_key)
            if cells:
                cell = cells[0]
                cell[1] += net
                if cell[1] <= 0:
                    bucket.delete(value_key)
            elif net > 0:
                bucket.insert(value_key, [value, net])
            if len(bucket) == 0:
                del groups[group_key]

    def extremum(self, key: tuple, want_max: bool):
        """Current MIN (or MAX) of ``key``'s multiset, or None when the
        group holds no non-NULL values."""
        bucket = self._groups.get(encode_key(key))
        if bucket is None:
            return None
        item = bucket.last_item() if want_max else bucket.first_item()
        if item is None:
            return None
        return item[1][0][0]  # (key, [cell]) -> cell -> original value


# ---------------------------------------------------------------------------
# Persistent indexed join state
# ---------------------------------------------------------------------------


class _SideIndex:
    """One join side's integrated Z-set, indexed by encoded join key.

    A hash map from each memcomparable key encoding to a mutable
    ``dict[row, weight]`` bucket: a point lookup is one ``dict.get``, and
    integrating a delta batch touches only the keys in the batch.  Keying
    by the encoding (not the key tuple) keeps SQL key equality — ``-0.0``
    equals ``0``, NaN equals NaN, ``TRUE`` differs from ``1``.  A bucket
    that empties is dropped, so the map holds only live keys.
    """

    __slots__ = ("key_ordinals", "_buckets", "_row_count")

    def __init__(self, key_ordinals: Sequence[int]) -> None:
        self.key_ordinals = list(key_ordinals)
        self._buckets: dict[bytes, dict[tuple, int]] = {}
        self._row_count = 0

    def __len__(self) -> int:
        return self._row_count

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[i] for i in self.key_ordinals)

    def lookup(self, key: tuple) -> dict[tuple, int]:
        """Rows stored under ``key`` (empty dict when absent)."""
        return self._buckets.get(encode_key(key), {})

    def integrate(self, groups: "dict[tuple, list[tuple[tuple, int]]]") -> None:
        """Fold delta entries grouped by join key (:func:`_route`) into
        the state (I operator): one key encoding and one lookup per
        *distinct* key (skewed deltas revisit the same few keys)."""
        buckets = self._buckets
        for key, entries in groups.items():
            encoded = encode_key(key)
            bucket = buckets.get(encoded)
            if bucket is None:
                bucket = buckets[encoded] = {}
            for row, weight in entries:
                new_weight = bucket.get(row, 0) + weight
                if new_weight == 0:
                    if row in bucket:
                        del bucket[row]
                        self._row_count -= 1
                else:
                    if row not in bucket:
                        self._row_count += 1
                    bucket[row] = new_weight
            if not bucket:
                del buckets[encoded]

    def bulk_load(self, rows: Iterable[tuple]) -> None:
        """Initial build from base rows (weight +1 each)."""
        self.load_weighted((row, 1) for row in rows)

    def load_weighted(self, entries: Iterable[tuple[tuple, int]]) -> None:
        """Build from ``(row, weight)`` pairs (the checkpoint image
        shape); zero-weight survivors are dropped like ``integrate``
        would."""
        buckets: dict[bytes, dict[tuple, int]] = {}
        for row, weight in entries:
            key = self.key_of(row)
            if any(v is None for v in key):
                continue
            bucket = buckets.setdefault(encode_key(key), {})
            new_weight = bucket.get(row, 0) + int(weight)
            if new_weight == 0:
                bucket.pop(row, None)
            else:
                bucket[row] = new_weight
        self._buckets = {k: b for k, b in buckets.items() if b}
        self._row_count = sum(len(b) for b in self._buckets.values())

    def dump(self) -> list[tuple[tuple, int]]:
        """Checkpoint image: every stored ``(row, weight)`` pair, in
        encoded-key order, so the image does not depend on the order keys
        arrived in.  ``load_weighted`` of a dump reproduces the state."""
        buckets = self._buckets
        return [
            entry
            for encoded in sorted(buckets)
            for entry in buckets[encoded].items()
        ]


class IndexedJoinState:
    """Incremental equi-join with hash-indexed per-key state on both sides.

    Maintains A and B (as Z-sets over their row tuples) and answers

        Δ(A ⋈ B) = ΔA ⋈ B  +  A ⋈ ΔB  +  ΔA ⋈ ΔB

    per update *without* rescanning A or B: the ΔA⋈B term probes B's index
    once per distinct key in ΔA (and symmetrically), so propagation cost is
    O(|Δ| · matches), independent of |A| + |B|.  After computing the output
    delta both deltas are integrated, keeping the state consistent for the
    next round.
    """

    def __init__(
        self,
        left_key: Sequence[int],
        right_key: Sequence[int],
        left_out: Sequence[int] | None = None,
        right_out: Sequence[int] | None = None,
    ) -> None:
        self._left = _SideIndex(left_key)
        self._right = _SideIndex(right_key)
        self._left_out = None if left_out is None else list(left_out)
        self._right_out = None if right_out is None else list(right_out)

    # -- state inspection -------------------------------------------------

    @property
    def left_rows(self) -> int:
        return len(self._left)

    @property
    def right_rows(self) -> int:
        return len(self._right)

    # -- loading -----------------------------------------------------------

    def load_left(self, rows: Iterable[tuple]) -> None:
        self._left.bulk_load(rows)

    def load_right(self, rows: Iterable[tuple]) -> None:
        self._right.bulk_load(rows)

    def dump(self) -> list[tuple[int, tuple, int]]:
        """Checkpoint image: ``(side, row, weight)`` triples (side 0 is
        left, 1 is right).  ``load_dump`` reproduces the state."""
        return [
            (side, row, weight)
            for side, index in ((0, self._left), (1, self._right))
            for row, weight in index.dump()
        ]

    def load_dump(self, entries: Iterable[tuple[int, tuple, int]]) -> None:
        """Rebuild both sides from a :meth:`dump` image."""
        sides: tuple[list, list] = ([], [])
        for side, row, weight in entries:
            sides[side].append((row, weight))
        self._left.load_weighted(sides[0])
        self._right.load_weighted(sides[1])

    def rewind(self, delta_left: ZSetBatch, delta_right: ZSetBatch) -> None:
        """Back the state out of deltas that are already *in* the loaded
        base rows but not yet propagated (pending ΔT at load time)."""
        self._left.integrate(_route(-delta_left, self._left.key_ordinals))
        self._right.integrate(_route(-delta_right, self._right.key_ordinals))

    # -- the three-term delta ----------------------------------------------

    def apply(
        self, delta_left: ZSetBatch, delta_right: ZSetBatch
    ) -> ZSetBatch:
        """Output delta for one round of input deltas, old-state
        semantics; integrates the deltas afterwards."""
        dl_groups = _route(delta_left, self._left.key_ordinals)
        dr_groups = _route(delta_right, self._right.key_ordinals)
        lrows: list[tuple] = []
        rrows: list[tuple] = []
        wprod: list[int] = []
        # ΔA ⋈ B and ΔA ⋈ ΔB: one stored-side lookup per distinct ΔA
        # key, shared by every ΔA entry under that key.
        for key, lentries in dl_groups.items():
            stored = self._right.lookup(key)
            fresh = dr_groups.get(key)
            if not stored and not fresh:
                continue
            for lrow, lweight in lentries:
                for rrow, rweight in stored.items():
                    lrows.append(lrow)
                    rrows.append(rrow)
                    wprod.append(lweight * rweight)
                if fresh:
                    for rrow, rweight in fresh:
                        lrows.append(lrow)
                        rrows.append(rrow)
                        wprod.append(lweight * rweight)
        # A ⋈ ΔB (old A — ΔA not yet folded), one lookup per ΔB key.
        for key, rentries in dr_groups.items():
            stored = self._left.lookup(key)
            if not stored:
                continue
            for rrow, rweight in rentries:
                for lrow, lweight in stored.items():
                    lrows.append(lrow)
                    rrows.append(rrow)
                    wprod.append(lweight * rweight)

        self._left.integrate(dl_groups)
        self._right.integrate(dr_groups)

        left_out, right_out = self._left_out, self._right_out
        if not lrows:
            return ZSetBatch.empty(
                (delta_left.arity if left_out is None else len(left_out))
                + (delta_right.arity if right_out is None else len(right_out))
            )
        left_batch = ZSetBatch.from_rows(lrows, wprod)
        right_batch = ZSetBatch.from_rows(
            rrows, np.ones(len(rrows), dtype=np.int64)
        )
        if left_out is None:
            left_out = range(left_batch.arity)
        if right_out is None:
            right_out = range(right_batch.arity)
        columns = [left_batch.columns[j] for j in left_out]
        columns += [right_batch.columns[j] for j in right_out]
        return ZSetBatch(columns, left_batch.weights).consolidate()


def _route(
    batch: ZSetBatch, key_ordinals: Sequence[int]
) -> "dict[tuple, list[tuple[tuple, int]]]":
    """Group a delta batch by join key into one ``key -> entries`` dict,
    consolidating it first, so each entry is materialized once.
    NULL-keyed entries are dropped — they can never join, so they are
    never stored either."""
    groups: dict[tuple, list[tuple[tuple, int]]] = {}
    batch = batch.consolidate()
    if len(batch) == 0:
        return groups
    columns = batch.columns
    key_columns = [columns[i] for i in key_ordinals]
    # One C-level pass: zip materializes the row tuples and key
    # tuples without a per-row Python comprehension.
    rows = zip(*columns)
    keys = (
        zip(*key_columns)
        if len(key_columns) != 1
        else ((value,) for value in key_columns[0])
    )
    for row, key, weight in zip(rows, keys, batch.weights.tolist()):
        bucket = groups.get(key)
        if bucket is None:
            if any(v is None for v in key):
                continue
            bucket = groups[key] = []
        bucket.append((row, weight))
    return groups

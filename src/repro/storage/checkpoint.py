"""Checkpoints and replay-on-restart for the durability subsystem.

A checkpoint is one self-describing file capturing everything a fresh
process needs to rebuild the engine at a quiescent point (no refresh in
flight, step-level pendings empty):

* the catalog of *plain* base tables (schemas + secondary indexes) —
  view-owned tables (the materialized table, ΔV, the ΔT delta tables and
  the ``_duckdb_ivm_views`` metadata table) are recreated by re-running
  each view's compiled DDL instead, so the stored image can never drift
  from what the compiler would emit;
* every table's rows, serialized with the memcomparable row codec of
  :mod:`repro.storage.keys` (the same codec the WAL uses);
* every view's ``CREATE MATERIALIZED VIEW`` statement, in creation
  order, plus its pending-change counter;
* the incremental states of :mod:`repro.zset.incremental` — indexed
  join sides, group-liveness counters, per-column extrema multisets —
  as flat ``dump()`` images;
* the WAL LSN the image covers.  Recovery replays only records past it.

File layout (all integers big-endian)::

    magic "IVMCKPT1" | u64 lsn | u32 meta_len | meta JSON
    | u32 nsections | section... | u32 crc32(everything before)

    section := u16 name_len | name utf8 | u32 nrows
               | (u32 row_len | encode_key(row))...

Files are named ``checkpoint-<seq:08d>.ckpt`` and written in one
``write_bytes`` call; a crash mid-write leaves a file whose trailing CRC
cannot match, and the reader simply skips it and falls back to the
previous sequence number.  Old checkpoints are pruned down to
:data:`KEEP_CHECKPOINTS`.

Decoded rows come back through :func:`repro.storage.keys.decode_key`,
which widens every number to float and dates to ordinal floats; restore
paths therefore coerce each value by the owning table schema
(:func:`coerce_decoded_row`) before it re-enters storage.

See ``docs/durability.md`` for the full protocol.
"""

from __future__ import annotations

import datetime
import enum
import json
import pathlib
import struct
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Iterable
from zlib import crc32

from repro.catalog.schema import Column, IndexSchema, TableSchema
from repro.core.flags import CompilerFlags, MaterializationStrategy, PropagationMode
from repro.datatypes.types import DataType, TypeId
from repro.datatypes.values import cast_value
from repro.errors import RecoveryError
from repro.storage.keys import decode_key, encode_key
from repro.storage.wal import WriteAheadLog, read_records

if TYPE_CHECKING:
    from repro.engine.connection import Connection
    from repro.extension.ivm_extension import IVMExtension

MAGIC = b"IVMCKPT1"
WAL_FILENAME = "wal.log"
CHECKPOINT_PATTERN = "checkpoint-*.ckpt"
KEEP_CHECKPOINTS = 3
METADATA_TABLE = "_duckdb_ivm_views"

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


# -- value coercion ---------------------------------------------------------


def coerce_decoded_value(value, dtype: DataType):
    """Undo the widening of the memcomparable codec for one value.

    ``decode_key`` returns every number as float and every date as its
    ordinal-as-float; ``cast_value`` recovers ints but will not cast a
    float back to DATE, so that case is handled here explicitly.
    """
    if value is None:
        return None
    if dtype.id is TypeId.DATE and isinstance(value, (int, float)):
        return datetime.date.fromordinal(int(value))
    return cast_value(value, dtype)


def coerce_decoded_row(row: tuple, schema: TableSchema) -> tuple:
    """Coerce a decoded row back to the column types of ``schema``."""
    return tuple(
        coerce_decoded_value(value, column.type)
        for value, column in zip(row, schema.columns)
    )


def restore_state_value(value, dtype: DataType | None):
    """Byte-identity-preserving restore for incremental-state entries.

    The states (join sides, liveness counters, extrema multisets) hold
    whatever the capture path carried — stored-typed objects from base
    scans and DELETE captures, *raw literals* (e.g. an ISO date string)
    from INSERT captures — and address entries by their memcomparable
    encoding, where both spellings coexist.  A full schema cast would
    merge a raw-string cell into the typed one and change its bytes, so
    only the codec's lossy decodes are undone: a float that was a date
    (identical encodings) or an int.  Everything else is kept verbatim.
    """
    if isinstance(value, float) and dtype is not None:
        if dtype.id is TypeId.DATE and value.is_integer():
            return datetime.date.fromordinal(int(value))
        if dtype.id in (TypeId.INTEGER, TypeId.BIGINT) and value.is_integer():
            return int(value)
    return value


def restore_state_row(row: tuple, schema: TableSchema) -> tuple:
    """Apply :func:`restore_state_value` columnwise; extra trailing values
    (beyond the schema) are kept verbatim."""
    restored = [
        restore_state_value(value, column.type)
        for value, column in zip(row, schema.columns)
    ]
    restored.extend(row[len(schema.columns):])
    return tuple(restored)


# -- flags (de)serialization ------------------------------------------------


def flags_to_json(flags: CompilerFlags) -> dict:
    out = {}
    for spec in dataclass_fields(flags):
        if spec.name == "fault_plan":
            continue  # a live object, not config — never persisted
        value = getattr(flags, spec.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[spec.name] = value
    return out


def flags_from_json(data: dict) -> CompilerFlags:
    known = {spec.name for spec in dataclass_fields(CompilerFlags)}
    kwargs = {name: value for name, value in data.items() if name in known}
    if "strategy" in kwargs:
        kwargs["strategy"] = MaterializationStrategy(kwargs["strategy"])
    if "mode" in kwargs:
        kwargs["mode"] = PropagationMode(kwargs["mode"])
    if "native_steps" in kwargs:
        kwargs["native_steps"] = tuple(kwargs["native_steps"])
    return CompilerFlags(**kwargs)


# -- checkpoint files -------------------------------------------------------


@dataclass
class Checkpoint:
    """One decoded checkpoint image."""

    lsn: int
    meta: dict
    sections: dict[str, list[tuple]]
    path: pathlib.Path | None = None


def encode_checkpoint(
    lsn: int,
    meta: dict,
    sections: dict[str, Iterable[tuple]],
) -> bytes:
    """Serialize one checkpoint image (payload + CRC trailer) to bytes."""
    parts: list[bytes] = [MAGIC, _U64.pack(lsn)]
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts.append(_U32.pack(len(meta_bytes)))
    parts.append(meta_bytes)
    parts.append(_U32.pack(len(sections)))
    for name, rows in sections.items():
        name_bytes = name.encode("utf-8")
        parts.append(_U16.pack(len(name_bytes)))
        parts.append(name_bytes)
        encoded = [encode_key(row) for row in rows]
        parts.append(_U32.pack(len(encoded)))
        for row_bytes in encoded:
            parts.append(_U32.pack(len(row_bytes)))
            parts.append(row_bytes)
    payload = b"".join(parts)
    return payload + _U32.pack(crc32(payload))


def write_checkpoint(
    path: pathlib.Path,
    lsn: int,
    meta: dict,
    sections: dict[str, Iterable[tuple]],
) -> None:
    """Serialize one checkpoint image to ``path`` in a single write."""
    path.write_bytes(encode_checkpoint(lsn, meta, sections))


def read_checkpoint(path: pathlib.Path) -> Checkpoint | None:
    """Decode ``path``; None when missing, torn, or corrupt.

    Invalid files are skipped rather than raised on: the previous
    checkpoint in the sequence is always a consistent fallback, which is
    what makes the non-atomic single-write protocol safe.
    """
    try:
        data = path.read_bytes()
    except OSError:
        return None
    if len(data) < len(MAGIC) + 8 + 4 + 4 + 4:
        return None
    if not data.startswith(MAGIC):
        return None
    payload, trailer = data[:-4], data[-4:]
    if crc32(payload) != _U32.unpack(trailer)[0]:
        return None
    try:
        offset = len(MAGIC)
        (lsn,) = _U64.unpack_from(payload, offset)
        offset += 8
        (meta_len,) = _U32.unpack_from(payload, offset)
        offset += 4
        meta = json.loads(payload[offset : offset + meta_len].decode("utf-8"))
        offset += meta_len
        (nsections,) = _U32.unpack_from(payload, offset)
        offset += 4
        sections: dict[str, list[tuple]] = {}
        for _ in range(nsections):
            (name_len,) = _U16.unpack_from(payload, offset)
            offset += 2
            name = payload[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (nrows,) = _U32.unpack_from(payload, offset)
            offset += 4
            rows = []
            for _ in range(nrows):
                (row_len,) = _U32.unpack_from(payload, offset)
                offset += 4
                rows.append(tuple(decode_key(payload[offset : offset + row_len])))
                offset += row_len
            sections[name] = rows
        if offset != len(payload):
            return None
    except (struct.error, ValueError, UnicodeDecodeError):
        return None
    return Checkpoint(lsn=lsn, meta=meta, sections=sections, path=path)


def _checkpoint_seq(path: pathlib.Path) -> int | None:
    stem = path.stem  # checkpoint-00000007
    prefix, _, digits = stem.partition("-")
    if prefix != "checkpoint" or not digits.isdigit():
        return None
    return int(digits)


def _checkpoint_paths(directory: pathlib.Path) -> list[tuple[int, pathlib.Path]]:
    found = []
    for path in directory.glob(CHECKPOINT_PATTERN):
        seq = _checkpoint_seq(path)
        if seq is not None:
            found.append((seq, path))
    return sorted(found)


def latest_checkpoint(directory: pathlib.Path) -> Checkpoint | None:
    """Newest decodable checkpoint in ``directory`` (descending seq scan,
    skipping torn/corrupt candidates), or None."""
    for _, path in reversed(_checkpoint_paths(directory)):
        checkpoint = read_checkpoint(path)
        if checkpoint is not None:
            return checkpoint
    return None


# -- building a checkpoint image -------------------------------------------


def build_checkpoint_payload(
    connection: "Connection", extension: "IVMExtension"
) -> tuple[dict, dict[str, list[tuple]]]:
    """Snapshot the engine into (meta, sections) for write_checkpoint.

    Must run at a quiescent point — the extension only calls it between
    statements, never mid-refresh.
    """
    view_states = list(extension._views.values())  # creation order
    owned = {METADATA_TABLE.lower()}
    views_meta = []
    for state in view_states:
        compiled = state.compiled
        owned.add(compiled.name.lower())
        owned.add(compiled.delta_view_table.lower())
        for delta in compiled.delta_tables.values():
            owned.add(delta.lower())
        views_meta.append(
            {
                "name": compiled.name,
                "sql": (
                    f"CREATE MATERIALIZED VIEW {compiled.name} "
                    f"AS {compiled.view_sql}"
                ),
                "pending_changes": state.pending_changes,
            }
        )

    tables_meta = []
    indexes_meta = []
    sections: dict[str, list[tuple]] = {}
    for table in connection.catalog.tables():
        name = table.schema.name
        if name.lower() == METADATA_TABLE.lower():
            continue  # rebuilt by each view's DDL (metadata_insert)
        sections[f"rows:{name.lower()}"] = [tuple(row) for row in table.scan()]
        if name.lower() in owned:
            continue  # schema comes from the view's compiled DDL
        tables_meta.append(
            {
                "name": name,
                "columns": [
                    [c.name, c.type.id.value, c.type.width, c.not_null]
                    for c in table.schema.columns
                ],
                "primary_key": list(table.schema.primary_key),
            }
        )
        for index in connection.catalog.indexes_on(name):
            indexes_meta.append(
                {
                    "name": index.name,
                    "table": index.table,
                    "columns": list(index.columns),
                    "unique": index.unique,
                }
            )

    for state in view_states:
        compiled = state.compiled
        vkey = compiled.name.lower()
        join_state, counters, sources = _native_states(compiled)
        if join_state is not None:
            sections[f"state:{vkey}:join"] = [
                (side,) + tuple(row) + (weight,)
                for side, row, weight in join_state.dump()
            ]
        if counters is not None:
            sections[f"state:{vkey}:live"] = [
                tuple(key) + (count,) for key, count in counters.dump()
            ]
        for ordinal, source in sources.items():
            sections[f"state:{vkey}:ext:{ordinal}"] = [
                tuple(key) + (value, count)
                for key, value, count in source.state.dump()
            ]

    meta = {
        "version": 1,
        "flags": flags_to_json(extension.flags),
        "tables": tables_meta,
        "indexes": indexes_meta,
        "views": views_meta,
    }
    return meta, sections


def _native_states(compiled):
    """(join_state, liveness_counters, extrema_sources) of a compiled view,
    whichever of the three its native pipeline carries (None/{} otherwise)."""
    join_state = None
    counters = None
    sources: dict = {}
    for step in compiled.native_steps:
        if step.name == "step1" and getattr(step, "is_join", False):
            join_state = step.state
        elif step.name == "step3":
            counters = step.counters
        elif step.name == "step2b":
            sources = step.sources
    return join_state, counters, sources


# -- the durability manager -------------------------------------------------


class DurabilityManager:
    """Owns one durability directory: the WAL plus its checkpoints.

    Created by the extension when ``flags.durability`` is on and a
    directory was passed to ``load_ivm``; opening it truncates any torn
    WAL tail left by a previous crash.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        extension: "IVMExtension",
        sync: bool = False,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.extension = extension
        self.wal = WriteAheadLog.open(
            self.directory / WAL_FILENAME,
            sync=sync,
            fault_plan=getattr(extension.flags, "fault_plan", None),
        )
        self.keep_checkpoints = KEEP_CHECKPOINTS
        self._refreshes_since_checkpoint = 0
        # Set by the extension when the ingest queue is on: checkpoints
        # must drain queued batches to WAL + ΔT first, or the image
        # would cover base rows whose deltas exist nowhere durable.
        self.pre_checkpoint_hook = None
        self.checkpoint_failures = 0

    @property
    def wal_path(self) -> pathlib.Path:
        return self.directory / WAL_FILENAME

    def log_delta(self, base_table: str, delta_rows) -> int:
        """Append one captured delta batch; returns its LSN.  Called by
        the capture trigger *before* the rows reach ΔT."""
        return self.wal.append(base_table, delta_rows)

    def note_refresh(self) -> None:
        """Periodic-checkpoint hook, called after each completed refresh.

        A *periodic* checkpoint failure is swallowed (and counted in
        ``checkpoint_failures``): the WAL still covers everything since
        the last good image, and the reader skips a torn candidate, so
        durability degrades only in recovery time, never correctness.
        Explicit ``checkpoint()`` calls still raise.
        """
        every = self.extension.flags.checkpoint_every
        if every <= 0:
            return
        self._refreshes_since_checkpoint += 1
        if self._refreshes_since_checkpoint >= every:
            try:
                self.checkpoint()
            except Exception:
                self._refreshes_since_checkpoint = 0

    def checkpoint(self) -> pathlib.Path:
        """Write a new checkpoint covering everything up to the current
        WAL LSN, then prune old ones.

        ``checkpoint.write`` is a named fault-injection site: ``error``
        faults raise before any bytes are written; ``torn`` faults
        persist a prefix of the image and then raise — the CRC trailer
        cannot match, so the reader falls back to the previous sequence
        number, exactly like a crash mid-write.
        """
        if self.pre_checkpoint_hook is not None:
            self.pre_checkpoint_hook()
        try:
            connection = self.extension._require_connection()
            meta, sections = build_checkpoint_payload(
                connection, self.extension
            )
            existing = _checkpoint_paths(self.directory)
            seq = (existing[-1][0] + 1) if existing else 1
            path = self.directory / f"checkpoint-{seq:08d}.ckpt"
            plan = getattr(self.extension.flags, "fault_plan", None)
            torn = None
            if plan is not None:
                torn = plan.check("checkpoint.write", seq=seq)
            data = encode_checkpoint(self.wal.last_lsn, meta, sections)
            if torn is not None:
                path.write_bytes(torn.cut(data))
                raise torn.error
            path.write_bytes(data)
        except Exception:
            self.checkpoint_failures += 1
            raise
        self._refreshes_since_checkpoint = 0
        for _, old in _checkpoint_paths(self.directory)[: -self.keep_checkpoints]:
            try:
                old.unlink()
            except OSError:
                pass
        return path

    def close(self) -> None:
        self.wal.close()


# -- recovery ---------------------------------------------------------------


def recover_connection(
    directory: str | pathlib.Path,
    flags: CompilerFlags | None = None,
) -> tuple["Connection", "IVMExtension"]:
    """Rebuild a connection from a durability directory.

    Protocol: load the newest valid checkpoint; recreate the plain
    tables, then the views (DDL only — rows and incremental states come
    from the image, the initial populate never runs); replay WAL records
    past the checkpoint's LSN directly into the base and delta tables
    (trigger-free, so nothing is re-logged); finally run one refresh so
    every view reflects the replayed tail.  Opening the WAL truncates a
    torn final record before any of this — a half-written record is
    never replayed.
    """
    from repro.engine.connection import Connection
    from repro.extension.ivm_extension import load_ivm

    directory = pathlib.Path(directory)
    checkpoint = latest_checkpoint(directory)
    wal_path = directory / WAL_FILENAME

    if checkpoint is None:
        records, _ = read_records(wal_path)
        if records:
            raise RecoveryError(
                f"durability directory {directory} has WAL records but no "
                "valid checkpoint covering the initial state"
            )
        flags = flags or CompilerFlags(durability=True)
        connection = Connection(dialect=flags.dialect)
        extension = load_ivm(connection, flags=flags, durability_dir=directory)
        return connection, extension

    if flags is None:
        flags = flags_from_json(checkpoint.meta["flags"])
    connection = Connection(dialect=flags.dialect)
    extension = load_ivm(connection, flags=flags, durability_dir=directory)
    if extension.durability is not None:
        # If the log was lost entirely, new appends must not restart
        # below the checkpoint horizon.
        extension.durability.wal.ensure_lsn_at_least(checkpoint.lsn)

    # 1. plain base tables: schemas, rows, secondary indexes.
    from repro.storage.table import Table

    plain = set()
    for table_meta in checkpoint.meta["tables"]:
        columns = [
            Column(name, DataType(TypeId(type_id), width), not_null=not_null)
            for name, type_id, width, not_null in table_meta["columns"]
        ]
        schema = TableSchema(
            table_meta["name"], columns, primary_key=list(table_meta["primary_key"])
        )
        table = Table(schema)
        connection.catalog.create_table(table)
        plain.add(schema.name.lower())
        rows = checkpoint.sections.get(f"rows:{schema.name.lower()}", [])
        if rows:
            table.insert_batch(
                [coerce_decoded_row(row, schema) for row in rows], coerce=False
            )
    for index_meta in checkpoint.meta["indexes"]:
        table = connection.table(index_meta["table"])
        ordinals = [table.schema.column_index(c) for c in index_meta["columns"]]
        table.add_index(index_meta["name"], ordinals, unique=index_meta["unique"])
        connection.catalog.create_index(
            IndexSchema(
                name=index_meta["name"],
                table=index_meta["table"],
                columns=list(index_meta["columns"]),
                unique=index_meta["unique"],
            )
        )

    # 2. views: definitions first (DDL recreates mv/ΔT/ΔV empty), then
    # every remaining rows section, then the incremental states.
    for view_meta in checkpoint.meta["views"]:
        extension.restore_view_definition(view_meta["sql"])
    for section_name, rows in checkpoint.sections.items():
        if not section_name.startswith("rows:"):
            continue
        table_name = section_name[len("rows:") :]
        if table_name in plain or not rows:
            continue
        table = connection.table(table_name)
        table.insert_batch(
            [coerce_decoded_row(row, table.schema) for row in rows], coerce=False
        )
    for view_meta in checkpoint.meta["views"]:
        extension.restore_view_state(
            view_meta["name"],
            checkpoint.sections,
            pending_changes=view_meta["pending_changes"],
        )

    # 3. WAL replay past the checkpoint, then one refresh to fold it in.
    records, _ = read_records(wal_path)
    for record in records:
        if record.lsn <= checkpoint.lsn:
            continue
        _replay_record(connection, extension, record)
    extension.refresh_all()
    return connection, extension


def _replay_record(connection, extension, record) -> None:
    """Apply one WAL record directly to the base table and its ΔT.

    Mirrors what the original statement + capture trigger did, without
    going through the executor (and therefore without re-logging): base
    rows are inserted/deleted, the full signed rows are appended to the
    delta table, and the watching views' pending counters are bumped so
    the closing refresh consumes them.
    """
    base = connection.table(record.table)
    schema = base.schema
    delta_name = extension.flags.delta_table(record.table)
    delta = (
        connection.table(delta_name)
        if connection.catalog.has_table(delta_name)
        else None
    )
    inserts = []
    delta_rows = []
    for row in record.rows:
        multiplicity = bool(row[-1])
        values = coerce_decoded_row(tuple(row[:-1]), schema)
        delta_rows.append(values + (multiplicity,))
        if multiplicity:
            # Deletes apply inline, inserts are batched at the end: the
            # only mixed records are UPDATE captures, whose deletes
            # target pre-statement rows — never rows this record adds.
            inserts.append(values)
        else:
            _delete_one(base, values)
    if inserts:
        base.insert_batch(inserts, coerce=False)
    if delta is not None and delta_rows:
        delta.insert_batch(delta_rows, coerce=False)
    for view_name in extension._watched.get(record.table.lower(), ()):
        extension._views[view_name].pending_changes += len(record.rows)


def durability_health(directory: str | pathlib.Path) -> dict:
    """Offline inspection of one durability directory for the
    ``openivm health`` report: WAL tail validity plus every checkpoint
    candidate's decodability and the epoch recovery would load.  Never
    mutates the directory (no tail truncation, no pruning)."""
    from repro.storage.wal import wal_health

    directory = pathlib.Path(directory)
    report = {
        "directory": str(directory),
        "exists": directory.is_dir(),
        "wal": wal_health(directory / WAL_FILENAME),
        "checkpoints": [],
        "latest_checkpoint": None,
    }
    if not report["exists"]:
        return report
    for seq, path in _checkpoint_paths(directory):
        decoded = read_checkpoint(path)
        report["checkpoints"].append(
            {
                "seq": seq,
                "file": path.name,
                "valid": decoded is not None,
                "lsn": None if decoded is None else decoded.lsn,
            }
        )
    latest = latest_checkpoint(directory)
    if latest is not None:
        report["latest_checkpoint"] = {
            "seq": _checkpoint_seq(latest.path),
            "file": latest.path.name,
            "lsn": latest.lsn,
            "views": [
                view["name"] for view in latest.meta.get("views", [])
            ],
            "replay_records": sum(
                1
                for record in read_records(directory / WAL_FILENAME)[0]
                if record.lsn > latest.lsn
            )
            if report["wal"]["valid"]
            else None,
        }
    return report


def _delete_one(base, values: tuple) -> None:
    """Delete exactly one row equal to ``values`` (multiset semantics)."""
    if base.schema.primary_key:
        base.delete_by_key([values[i] for i in base.schema.primary_key_indexes])
        return
    for row_id, row in base.scan_with_ids():
        if row == values:
            base.delete_row(row_id)
            return

"""Checkpoint images whose flags name knobs that no longer exist recover.

Earlier versions serialized nine more ``CompilerFlags`` fields into every
checkpoint's ``meta["flags"]``: the sharded refresh (``shard_count``,
``parallel_refresh``, ``worker_timeout``, ``worker_retries``,
``worker_backoff``) and the adaptive planner (``adaptive``,
``adaptive_epsilon``, ``adaptive_history``, ``adaptive_seed``).  Their
state sections had the same flattened shape as today's, so such an image
must load as-is: the unknown knobs are dropped and every view equals its
recompute after recovery and after further incremental rounds.
"""

from __future__ import annotations

import dataclasses

from repro import CompilerFlags, Connection, load_ivm
from repro.storage.checkpoint import (
    _checkpoint_paths,
    flags_from_json,
    read_checkpoint,
    write_checkpoint,
)

# The removed knobs, with values an image of a sharded, adaptive
# engine carried.
REMOVED_FLAGS = {
    "shard_count": 4,
    "parallel_refresh": True,
    "worker_timeout": 0.5,
    "worker_retries": 2,
    "worker_backoff": 0.01,
    "adaptive": True,
    "adaptive_epsilon": 0.1,
    "adaptive_history": 16,
    "adaptive_seed": 7,
}

VIEWS = {
    "by_region": (
        "SELECT c.region, SUM(o.amount) AS s, MIN(o.amount) AS lo, "
        "MAX(o.amount) AS hi, COUNT(*) AS n "
        "FROM orders o JOIN customers c ON o.cust = c.id GROUP BY c.region",
        "SELECT region, s, lo, hi, n FROM by_region",
    ),
    "by_cust": (
        "SELECT cust, SUM(amount) AS s, COUNT(*) AS n "
        "FROM orders GROUP BY cust",
        "SELECT cust, s, n FROM by_cust",
    ),
}


def _assert_views_match(con: Connection) -> None:
    for query, read in VIEWS.values():
        assert con.execute(read).sorted() == con.execute(query).sorted()


def _write_legacy_image(directory) -> None:
    con = Connection()
    ext = load_ivm(
        con, CompilerFlags(durability=True), durability_dir=directory
    )
    con.execute("CREATE TABLE customers (id INTEGER PRIMARY KEY, region VARCHAR)")
    con.execute(
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, "
        "amount INTEGER)"
    )
    con.execute(
        "INSERT INTO customers VALUES (1, 'eu'), (2, 'us'), (3, 'apac')"
    )
    con.execute(
        "INSERT INTO orders VALUES (1, 1, 10), (2, 2, 20), (3, 3, 30), "
        "(4, 1, 40), (5, 2, 50)"
    )
    for name, (query, _) in VIEWS.items():
        con.execute(f"CREATE MATERIALIZED VIEW {name} AS {query}")
    con.execute("INSERT INTO orders VALUES (6, 3, 5), (7, 1, 70)")
    con.execute("DELETE FROM orders WHERE id = 4")
    _assert_views_match(con)
    ext.checkpoint()
    # A WAL tail past the checkpoint, replayed on recovery.
    con.execute("INSERT INTO orders VALUES (8, 2, 80)")
    con.execute("UPDATE orders SET amount = 1 WHERE id = 7")
    ext.shutdown()
    # Rewrite the newest image's flags the way the earlier writer
    # serialized them: every dataclass field, the removed ones included.
    _, path = _checkpoint_paths(directory)[-1]
    image = read_checkpoint(path)
    image.meta["flags"].update(REMOVED_FLAGS)
    write_checkpoint(path, image.lsn, image.meta, image.sections)


def test_flags_from_json_drops_the_removed_knobs(tmp_path):
    _write_legacy_image(tmp_path)
    _, path = _checkpoint_paths(tmp_path)[-1]
    stored = read_checkpoint(path).meta["flags"]
    assert REMOVED_FLAGS.items() <= stored.items()
    flags = flags_from_json(stored)
    names = {spec.name for spec in dataclasses.fields(flags)}
    assert names.isdisjoint(REMOVED_FLAGS)
    assert flags.durability is True


def test_legacy_image_recovers_and_keeps_refreshing(tmp_path):
    _write_legacy_image(tmp_path)
    recovered = Connection.recover(tmp_path)
    assert recovered.execute("SELECT COUNT(*) FROM orders").rows == [(7,)]
    _assert_views_match(recovered)
    recovered.execute("INSERT INTO orders VALUES (9, 3, 90), (10, 1, -4)")
    recovered.execute("DELETE FROM orders WHERE amount = 80")
    _assert_views_match(recovered)

"""Ablations for design choices DESIGN.md calls out.

* **hidden_count** — exact group liveness (hidden COUNT(*)) vs. the
  paper's `DELETE WHERE sum = 0` form: what does exactness cost per
  refresh?
* **index join** — the executor's ART-backed index-nested-loop join vs.
  forcing the hash join (by dropping the view's key index), isolating the
  paper's "the ART ... can be used to speed up joins" effect.
"""

import pytest

from benchmarks.conftest import build_groups_connection, change_batches, fill_delta

BASE_ROWS = 20_000
NUM_GROUPS = 2_000


@pytest.mark.parametrize("hidden_count", [False, True], ids=["paper_sum0", "hidden_count"])
def test_liveness_ablation(benchmark, hidden_count):
    con, ext = build_groups_connection(
        BASE_ROWS, num_groups=NUM_GROUPS, hidden_count=hidden_count
    )
    batches = iter(change_batches(BASE_ROWS, 50, batches=100))

    def setup():
        fill_delta(con, next(batches))
        return (), {}

    benchmark.pedantic(lambda: ext.refresh("q"), setup=setup, rounds=8, iterations=1)
    benchmark.extra_info["hidden_count"] = hidden_count


@pytest.mark.parametrize("use_index", [True, False], ids=["index_join", "hash_join"])
def test_upsert_join_ablation(benchmark, use_index, monkeypatch):
    con, ext = build_groups_connection(BASE_ROWS, num_groups=NUM_GROUPS)
    if not use_index:
        # Force the hash-join path by hiding the index from the planner.
        from repro.storage.table import Table

        monkeypatch.setattr(Table, "covering_index", lambda self, cols: None)
    batches = iter(change_batches(BASE_ROWS, 10, batches=100))

    def setup():
        fill_delta(con, next(batches))
        return (), {}

    benchmark.pedantic(lambda: ext.refresh("q"), setup=setup, rounds=8, iterations=1)
    benchmark.extra_info["index_join"] = use_index


def test_ablation_shapes(report_lines):
    """Index join must beat the forced hash join for tiny deltas over a
    large materialized table; hidden_count costs at most ~2x per refresh."""
    from unittest import mock

    from repro.storage.table import Table
    from repro.workloads import time_call

    def refresh_time(**kwargs):
        patch = kwargs.pop("disable_index", False)
        con, ext = build_groups_connection(
            BASE_ROWS, num_groups=NUM_GROUPS, **kwargs
        )
        batches = change_batches(BASE_ROWS, 10, batches=3)
        times = []
        context = (
            mock.patch.object(Table, "covering_index", lambda self, cols: None)
            if patch
            else mock.patch.object(Table, "covering_index", Table.covering_index)
        )
        with context:
            for batch in batches:
                fill_delta(con, batch)
                elapsed, _ = time_call(lambda: ext.refresh("q"))
                times.append(elapsed)
        return min(times)

    with_index = refresh_time()
    without_index = refresh_time(disable_index=True)
    paper_liveness = refresh_time()
    exact_liveness = refresh_time(hidden_count=True)

    report_lines.append(
        f"E8  index-join={with_index * 1e3:7.2f}ms  "
        f"hash-join={without_index * 1e3:7.2f}ms  "
        f"paper-sum0={paper_liveness * 1e3:7.2f}ms  "
        f"hidden-count={exact_liveness * 1e3:7.2f}ms"
    )
    assert with_index < without_index
    assert exact_liveness < paper_liveness * 3

"""The benchmark keeps its own contract: BENCHMARK.json, the metric
tables and what ``bench/run.py`` prints agree, at ``--scale tiny``."""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results() -> dict:
    """``{(workload, trace): result line}`` of one tiny run each, started
    together (they only share ``bench/out``, under distinct names)."""
    runs = {
        (name, trace): subprocess.Popen(
            [
                sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", "7", "--seconds", "2", "--trace", str(trace),
                "--scale", "tiny",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in WORKLOADS
        for trace in (0, 1)
    }
    out = {}
    try:
        for key, run in runs.items():
            stdout, stderr = run.communicate(timeout=120)
            assert run.returncode == 0, stderr
            out[key] = json.loads(stdout.splitlines()[-1])
    finally:
        for run in runs.values():
            if run.poll() is None:
                run.kill()
                run.wait()
    return out


def test_spec_matches_the_metric_tables():
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()
    }
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert "setup_s" in END_TO_END


def test_names_and_caps():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_interaction_map_names_real_metrics_and_workloads():
    for name, (_, moves) in LAYER_METRICS.items():
        for metric, workload in moves:
            assert metric in END_TO_END, (name, metric)
            assert workload in WORKLOADS, (name, workload)


def test_every_metric_is_emitted_with_its_unit(results):
    for (workload, trace), result in results.items():
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }, (workload, trace)
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_nothing_failed(results):
    for key, result in results.items():
        assert result["correct"] and result["failed"] == 0, key
        assert result["attempted"] >= 1


def test_nothing_imports_the_legacy_benchmarks():
    legacy = re.compile(r"^\s*(from|import)\s+benchmarks\b", re.MULTILINE)
    for path in BENCH.rglob("*.py"):
        assert not legacy.search(path.read_text(encoding="utf-8")), path

"""The repo benchmark: write-to-fresh-view latency on four workloads.

    python3 bench/run.py --workload oltp_trickle --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --seed 1                   # all four, timed and traced
    python3 bench/run.py --seed 1 --check-stability # each workload twice

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` measures the same work twice, untraced and then wrapped in spans, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Re-execute with PYTHONHASHSEED=0, before the costly imports.  String
    # hashes decide the layout of every dict the interpreter and the engine
    # use; with a random seed per process, identical runs of oltp_trickle
    # fell into two groups 15 % apart, which no within-run median removes.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The program under test is the checkout this file sits in.
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Untraced recoveries in the per-layer run; storage.recover_s is their median.
RECOVER_SAMPLES = 3


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _header(args) -> None:
    print(
        f"# nproc={os.cpu_count()} python={platform.python_version()} "
        f"commit={_commit()} seed={args.seed} seconds={args.seconds} "
        f"scale={args.scale} trace={args.trace}"
    )


def _report(workload, metrics: dict, table: dict, result, note: str) -> bool:
    """Print every metric by name with its unit (``table[name][0]``),
    then the result line."""
    units = {name: table[name][0] for name in metrics}
    for name, value in metrics.items():
        print(f"{workload.name:16s} {name:32s} {value:.6g} {units[name]}")
    print(f"# {note}")
    for problem in result.problems:
        print(f"# FAILED: {problem}", file=sys.stderr)
    correct = result.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return correct


def run_timed(workload, args) -> bool:
    # One recovery: the oracle in the recovered connection.
    result = harness.run_pass(
        workload, args.seed, args.seconds, args.scale, workload.setup_repeats,
        recoveries=1,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = harness.end_to_end(result, peak_rss_mb)
    note = (
        f"{len(result.fresh_ms)} timed cycles in {result.window_s:.2f} s, "
        f"reported as the median of {harness.BLOCKS} consecutive blocks "
        f"(each block's p95 has {len(result.fresh_ms) // harness.BLOCKS // 20} "
        f"samples beyond it), "
        f"{len(result.idle_read_ms)} idle reads, {len(result.setup_s)} set-ups, "
        f"failed_ops_share={result.failed / result.attempted:.3g}"
    )
    if workload.durable:
        note += (
            f", recover_s={statistics.median(result.recover_s):.4f}, "
            f"durable_bytes_per_row={result.durable_bytes_per_row:.2f}"
        )
    return _report(workload, metrics, END_TO_END, result, note)


def run_traced(workload, args) -> bool:
    plain = harness.run_pass(
        workload, args.seed, args.seconds, args.scale, setups=1,
        recoveries=RECOVER_SAMPLES,
    )
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_pass(
            workload, args.seed, args.seconds, args.scale, setups=1, recoveries=1,
            tracer=tracer,
        )
    finally:
        tracer.uninstall()
    metrics = dict.fromkeys(LAYER_METRICS, 0)
    metrics.update(tracer.layer_metrics())
    metrics.update(
        {
            "core.queue_depth_max": traced.queue_depth_max,
            "storage.wal_bytes": traced.wal_bytes,
            "storage.checkpoint_bytes": traced.checkpoint_bytes,
            "bench.trace_overhead_share": (
                harness.steady(traced.cycle_s) / harness.steady(plain.cycle_s) - 1
            ),
            "bench.cycles": len(traced.fresh_ms),
        }
    )
    if workload.durable:
        # Recovery and bytes per row as a user sees them: tracing off.
        metrics["storage.recover_s"] = statistics.median(plain.recover_s)
        metrics["storage.durable_bytes_per_row"] = plain.durable_bytes_per_row
    trace_path = harness.OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(trace_path)
    layers = tracer.self_time_by_layer()
    busy = sum(layers.values())
    split = ", ".join(
        f"{layer} {seconds / busy:.1%}"
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
    )
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    note = (
        f"self-time split: {split}; {len(tracer.names)} spans in "
        f"{trace_path.relative_to(ROOT)}"
    )
    return _report(workload, metrics, LAYER_METRICS, traced, note)


def _spawn(name: str, args, trace: int) -> dict:
    """One workload in a fresh interpreter (so peak_rss_mb is its own);
    returns its result line."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", args.scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{name}: exit code {done.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> bool:
    results = {}
    for name in WORKLOADS:
        results[name] = {
            "timed": _spawn(name, args, 0), "traced": _spawn(name, args, 1)
        }
    print(json.dumps(results))
    return all(r["correct"] for pair in results.values() for r in pair.values())


def check_stability(args, bounds: dict) -> bool:
    """Every workload twice on the same code: each end-to-end metric's
    relative difference next to its bound."""
    correct = True
    for name in WORKLOADS:
        first, second = _spawn(name, args, 0), _spawn(name, args, 0)
        correct = correct and first["correct"] and second["correct"]
        for metric, bound in bounds.items():
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            spread = abs(a - b) / min(a, b)
            verdict = "ok" if spread <= bound else "unresolved"
            print(
                f"{name:16s} {metric:32s} {a:.6g} vs {b:.6g} "
                f"diff {spread:.2%} bound {bound:.0%} {verdict}"
            )
    return correct


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "full"), default="full")
    parser.add_argument("--check-stability", action="store_true")
    args = parser.parse_args()
    _header(args)
    if args.check_stability:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        correct = check_stability(args, bounds)
    elif args.workload == "all":
        correct = run_all(args)
    else:
        run = run_traced if args.trace else run_timed
        correct = run(WORKLOADS[args.workload], args)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

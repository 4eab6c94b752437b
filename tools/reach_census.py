"""Reach census: which functions under ``src/repro`` does a command never enter?

Runs a command inside this interpreter under a ``sys.setprofile`` hook
that records every Python function entered, then reports the functions
defined under ``src/repro`` that never were: how many, how many
function-body lines they span (nested functions counted once), and the
split per module.

    python tools/reach_census.py pytest -x -q        # the tier-1 suite
    python tools/reach_census.py --bench              # the repo benchmark
    python tools/reach_census.py examples/quickstart.py

``pytest ...`` runs pytest in-process; any other command is a Python
script run as ``__main__``.  ``--bench`` runs every workload of
``BENCHMARK.json`` through ``bench/run.py`` in-process, untraced and
traced, at the tiny scale.  This is a report, not a gate: the exit
status is 0 unless the census itself cannot run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import runpy
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _functions(path: pathlib.Path):
    """``(first line, qualname, body line set)`` for every function
    defined in ``path``.  The first line is the code object's
    ``co_firstlineno``: the first decorator's line when there is one."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                body = set(range(child.body[0].lineno, child.end_lineno + 1))
                qualname = f"{prefix}{child.name}"
                found.append((first, qualname, body))
                visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _record(run) -> tuple[set, object]:
    """Call ``run()`` under the profile hook; returns the entered code
    objects' ``(filename, first line)`` pairs and ``run``'s result."""
    entered: set = set()
    add = entered.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    def install():
        sys.setprofile(hook)
        threading.setprofile(hook)

    try:
        result = run(install)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in entered}, result


def _run_pytest(args: list[str]):
    import pytest

    def run(install):
        class Rehook:
            # A test that profiles its own calls ends with
            # sys.setprofile(None); re-install before every test phase so
            # the tests after it are still counted.
            @pytest.hookimpl(hookwrapper=True)
            def pytest_runtest_setup(self, item):
                install()
                yield

            @pytest.hookimpl(hookwrapper=True)
            def pytest_runtest_call(self, item):
                install()
                yield

            @pytest.hookimpl(hookwrapper=True)
            def pytest_runtest_teardown(self, item):
                install()
                yield

        install()
        return int(pytest.main(args, plugins=[Rehook()]))

    return run


def _run_scripts(commands: list[list[str]]):
    # bench/run.py re-executes itself unless the hash seed is pinned.
    os.environ.setdefault("PYTHONHASHSEED", "0")

    def run(install):
        statuses = []
        for command in commands:
            saved = sys.argv[:], sys.path[:]
            sys.argv = list(command)
            sys.path.insert(0, str(pathlib.Path(command[0]).resolve().parent))
            install()
            try:
                runpy.run_path(command[0], run_name="__main__")
                statuses.append(0)
            except SystemExit as done:
                code = done.code
                statuses.append(code if isinstance(code, int) else 1)
            finally:
                sys.argv, sys.path[:] = saved[0], saved[1]
        return max(statuses, default=0)

    return run


def _bench_commands() -> list[list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    script = str(ROOT / "bench" / "run.py")
    return [
        [script, "--workload", workload["name"], "--seed", "1",
         "--scale", "tiny", "--trace", str(trace)]
        for workload in spec["workloads"]
        for trace in (0, 1)
    ]


def census(entered: set) -> dict:
    entered_lines: dict[str, set] = {}
    for filename, first in entered:
        entered_lines.setdefault(os.path.realpath(filename), set()).add(first)
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        seen = entered_lines.get(os.path.realpath(path), set())
        total: set = set()
        unreached: set = set()
        missed = []
        functions = _functions(path)
        for first, qualname, body in functions:
            total |= body
            if first not in seen:
                unreached |= body
                missed.append(f"{qualname}:{first}")
        modules[str(path.relative_to(PACKAGE))] = {
            "functions": len(functions),
            "never_entered": missed,
            "body_lines": len(total),
            "unreached_body_lines": len(unreached),
        }
    return {
        "functions": sum(m["functions"] for m in modules.values()),
        "never_entered": sum(len(m["never_entered"]) for m in modules.values()),
        "body_lines": sum(m["body_lines"] for m in modules.values()),
        "unreached_body_lines": sum(
            m["unreached_body_lines"] for m in modules.values()
        ),
        "modules": modules,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s [--functions] (--bench | pytest ARGS... | SCRIPT ARGS...)",
    )
    parser.add_argument("--bench", action="store_true",
                        help="run the repo benchmark at the tiny scale")
    parser.add_argument("--functions", action="store_true",
                        help="also list every never-entered function")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.bench:
        label = "bench --scale tiny"
        run = _run_scripts(_bench_commands())
    elif args.command and args.command[0] == "pytest":
        label = " ".join(args.command)
        run = _run_pytest(args.command[1:])
    elif args.command:
        label = " ".join(args.command)
        run = _run_scripts([args.command])
    else:
        parser.error("give --bench, pytest ARGS or a script")
    sys.path.insert(0, str(ROOT / "src"))
    entered, status = _record(run)
    result = census(entered)
    print(f"# reach census: {label} (exit status {status})")
    print(
        f"functions under src/repro: {result['functions']}, never entered: "
        f"{result['never_entered']}"
    )
    print(
        f"function-body lines never entered: {result['unreached_body_lines']}"
        f" of {result['body_lines']}"
    )
    ranked = sorted(
        result["modules"].items(),
        key=lambda item: (-item[1]["unreached_body_lines"], item[0]),
    )
    print(f"\n{'module':40s} unreached / total body lines")
    for name, module in ranked:
        if not module["unreached_body_lines"]:
            break
        print(
            f"{name:40s} {module['unreached_body_lines']:5d} / "
            f"{module['body_lines']}"
        )
    if args.functions:
        print()
        for name, module in ranked:
            for function in module["never_entered"]:
                print(f"{name}:{function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

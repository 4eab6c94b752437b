"""Fail on dead relative links in the repository's Markdown files.

Scans every ``*.md`` under the repo root for Markdown links
(``[text](target)``), keeps the *relative* ones (external ``http(s)``/
``mailto`` links and pure ``#anchor`` links are out of scope), resolves
each target against the linking file's directory, and reports targets
that do not exist on disk — or that exist only because something was run:
a target ``git check-ignore`` matches is missing from a fresh checkout,
so whether the link resolves would depend on what ran before the check.

Used twice: as a tier-1 test (``tests/test_docs_links.py``) and as a
standalone CI step (``python tools/check_doc_links.py``), so a renamed
doc or example breaks the build instead of silently rotting the
cross-references.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "node_modules"}


def iter_markdown_files(root: pathlib.Path):
    for path in sorted(root.rglob("*.md")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        yield path


def relative_links(text: str):
    """Yield the relative link targets in one Markdown document."""
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        # Drop any trailing anchor; the file part is what must exist.
        target = target.split("#", 1)[0]
        if target:
            yield target


def git_ignored(root: pathlib.Path, paths: list[pathlib.Path]) -> set[pathlib.Path]:
    """The subset of ``paths`` that git ignores.  Empty when ``root`` is
    not inside a work tree or git is not installed: the check is then
    the plain does-it-exist one."""
    if not paths:
        return set()
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "check-ignore", "-z", "--stdin"],
            input="\0".join(str(p) for p in paths),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return set()
    if done.returncode != 0:  # 1: nothing ignored; 128: not a work tree
        return set()
    return {pathlib.Path(p) for p in done.stdout.split("\0") if p}


def find_dead_links(root: pathlib.Path) -> list[tuple[pathlib.Path, str]]:
    """``(linking file, target)`` for every relative link whose target is
    missing or git-ignored."""
    dead: list[tuple[pathlib.Path, str]] = []
    present: list[tuple[pathlib.Path, str, pathlib.Path]] = []
    for path in iter_markdown_files(root):
        for target in relative_links(path.read_text(encoding="utf-8")):
            resolved = path.parent / target
            if resolved.exists():
                present.append((path, target, resolved.resolve()))
            else:
                dead.append((path.relative_to(root), target))
    ignored = git_ignored(root, sorted({resolved for _, _, resolved in present}))
    dead.extend(
        (path.relative_to(root), target)
        for path, target, resolved in present
        if resolved in ignored
    )
    return sorted(dead)


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    dead = find_dead_links(root)
    checked = len(list(iter_markdown_files(root)))
    if dead:
        print(f"dead or git-ignored relative links ({len(dead)}):")
        for path, target in dead:
            print(f"  {path}: {target}")
        return 1
    print(f"docs link check: {checked} Markdown files, no dead relative links")
    return 0


if __name__ == "__main__":
    sys.exit(main())

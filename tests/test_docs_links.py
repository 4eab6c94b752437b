"""Tier-1 guard: no dead relative links in the repo's Markdown files.

The same checker runs as a standalone CI step
(``python tools/check_doc_links.py``); running it inside the test suite
means a doc rename fails fast locally too.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from tools.check_doc_links import find_dead_links, iter_markdown_files, relative_links


def test_no_dead_relative_links():
    dead = find_dead_links(_REPO_ROOT)
    assert not dead, "dead relative links in Markdown files: " + ", ".join(
        f"{path}: {target}" for path, target in dead
    )


def test_checker_sees_the_docs():
    """The guard is only meaningful if the scan actually covers the docs
    and they actually carry relative links."""
    files = {path.name for path in iter_markdown_files(_REPO_ROOT)}
    assert {"README.md", "ROADMAP.md", "architecture.md", "batching.md"} <= files
    readme_links = list(
        relative_links((_REPO_ROOT / "README.md").read_text(encoding="utf-8"))
    )
    assert "docs/architecture.md" in readme_links


def test_checker_flags_a_dead_link(tmp_path):
    (tmp_path / "doc.md").write_text(
        "see [gone](missing.md) and [ok](https://example.com) "
        "and [anchor](#here)",
        encoding="utf-8",
    )
    dead = find_dead_links(tmp_path)
    assert dead == [(pathlib.Path("doc.md"), "missing.md")]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git binary")
def test_checker_flags_a_link_to_a_git_ignored_file(tmp_path):
    """A target that exists only because a bench or build ran is dead on
    a fresh checkout; outside a work tree the check is existence only."""
    (tmp_path / ".gitignore").write_text("artifact.json\n", encoding="utf-8")
    (tmp_path / "artifact.json").write_text("{}", encoding="utf-8")
    (tmp_path / "kept.json").write_text("{}", encoding="utf-8")
    (tmp_path / "doc.md").write_text(
        "[made by a run](artifact.json) and [committed](kept.json)",
        encoding="utf-8",
    )
    assert find_dead_links(tmp_path) == []
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    assert find_dead_links(tmp_path) == [(pathlib.Path("doc.md"), "artifact.json")]

"""The two knob tables name exactly the ``CompilerFlags`` fields.

``CompilerFlags``'s docstring and the "knobs" section of
``docs/batching.md`` each list every switch once.  A field added without
a row, or a row left behind by a deleted field, fails here.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re
from collections import Counter

from repro import CompilerFlags

BATCHING_MD = pathlib.Path(__file__).resolve().parents[2] / "docs" / "batching.md"

FIELDS = Counter(spec.name for spec in dataclasses.fields(CompilerFlags))


def _docstring_rows() -> Counter:
    # Rows start with the indented ``name``; continuation lines are
    # indented further, so only row heads match.
    return Counter(
        re.findall(r"^    ``(\w+)``\s", CompilerFlags.__doc__, re.MULTILINE)
    )


def _batching_md_rows() -> Counter:
    text = BATCHING_MD.read_text(encoding="utf-8")
    section = text.split("### The knobs", 1)[1].split("\n#", 1)[0]
    names: Counter = Counter()
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        # First cell: one or more `name`s, then an optional (default).
        names.update(re.findall(r"`(\w+)`", line.split("|")[1].split(" (")[0]))
    return names


def test_docstring_table_names_every_field_once():
    assert _docstring_rows() == FIELDS


def test_batching_md_knob_rows_name_every_field_once():
    assert _batching_md_rows() == FIELDS

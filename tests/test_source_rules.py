"""Rules of the package's source that a test of its behaviour would not catch: each is a
pattern that no line of `src/agroups` may hold, outside the files that define it."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "agroups"

# rule -> (forbidden pattern, names of the files it may appear in, why)
RULES = {
    "one number echo": (
        r"_clip\(str\(", (),
        "error messages echo values through core._shown, which writes no int of over 640 digits",
    ),
    "one work-cap check": (
        r"exceeded \{", ("core.py",),
        "a run-time cap trips through core._within, so no hand-written cap message comes back",
    ),
    "self-logging intern tables": (
        r"\.log\(|_closure_full", (),
        "an intern table logs when its `with` block ends, so no caller-side log comes back",
    ),
    "no typing": (
        r"^\s*(from|import)\s+typing\b", (),
        "records are collections.namedtuple and annotations are unevaluated builtin generics,"
        " so no `agt` process pays for importing typing",
    ),
}


@pytest.mark.parametrize("pattern, allowed, why", RULES.values(), ids=RULES)
def test_no_source_line_breaks_a_rule(pattern, allowed, why):
    files = sorted(path for path in SRC.rglob("*.py") if path.name not in allowed)
    assert files, f"no source under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not found, f"{why}: {found}"

"""Line-oriented file formats: ``.agt`` group tables, ``.cert`` suites.

Group files::

    group NAME
    alphabet D
    gen NAME = (slot, ..., slot) [CYCLES]

where each slot is a state name or ``1`` and CYCLES is cycle notation on
the letters 1..D, e.g. ``(1 2)``; omitted CYCLES means the identity.
``#`` starts a comment anywhere.

Certificate files start with ``suite NAME`` and an optional ``group
NAME`` line, followed by one assertion per line; see the keyword parsers
below for the precise forms.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

from .certify import (
    Assertion,
    Certificate,
    CoordsIs,
    DistinctPositiveWords,
    Equal,
    InLevelStab,
    MemberByExpression,
    ProjectionWitness,
    SupportedOnlyAt,
    Transitive,
    Trivial,
)
from .core import _NAME_RE, GroupDef, make_group
from .words import ParseError, word_letters

__all__ = [
    "format_group_file",
    "load_certificate_file",
    "load_group_file",
    "parse_certificate",
    "parse_group_file",
]

_GEN_RE = re.compile(r"gen\s+([A-Za-z_][A-Za-z0-9_@.]*)\s*=\s*(.+)\Z")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_VERTEX_RE = re.compile(r"(\.|\d+(\.\d+)*)\Z")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _parse_cycles(text: str, line_no: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
    text = text.strip()
    if text in ("", "id"):
        return None
    if _CYCLE_RE.sub("", text).strip():
        raise ParseError(f"malformed cycle notation {text!r}", line_no)
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        tokens = m.group(1).replace(",", " ").split()
        if not tokens or not all(t.isdigit() for t in tokens):
            raise ParseError(f"malformed cycle ({m.group(1)})", line_no)
        cycles.append(tuple(int(t) for t in tokens))
    return tuple(cycles)


def _parse_tuple_then_rest(text: str, line_no: int) -> Tuple[List[str], str]:
    """Split ``( p1, p2, ... ) rest``; commas split only at tuple depth."""
    text = text.strip()
    if not text.startswith("("):
        raise ParseError("expected '(' starting a tuple", line_no)
    depth = 0
    bracket = 0
    parts: List[str] = []
    cur: List[str] = []
    end = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
        elif ch == "[":
            bracket += 1
        elif ch == "]":
            bracket -= 1
        elif ch == "," and depth == 1 and bracket == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    if end is None:
        raise ParseError("unbalanced '(' in tuple", line_no)
    parts.append("".join(cur).strip())
    return parts, text[end + 1 :].strip()


# -- group files -----------------------------------------------------------


def parse_group_file(text: str) -> GroupDef:
    name: Optional[str] = None
    degree: Optional[int] = None
    rows: List[tuple] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword == "group":
            value = line[len("group") :].strip()
            if not _NAME_RE.match(value):
                raise ParseError(f"invalid group name {value!r}", line_no)
            if name is not None:
                raise ParseError("duplicate 'group' line", line_no)
            name = value
        elif keyword == "alphabet":
            value = line[len("alphabet") :].strip()
            if not value.isdigit() or int(value) < 1:
                raise ParseError(f"invalid alphabet size {value!r}", line_no)
            if degree is not None:
                raise ParseError("duplicate 'alphabet' line", line_no)
            degree = int(value)
        elif keyword == "gen":
            if name is None or degree is None:
                raise ParseError("'gen' before 'group' and 'alphabet'", line_no)
            m = _GEN_RE.match(line)
            if m is None:
                raise ParseError("malformed 'gen' line", line_no)
            gen_name, rest = m.group(1), m.group(2)
            slots, tail = _parse_tuple_then_rest(rest, line_no)
            for entry in slots:
                if entry != "1" and not _NAME_RE.match(entry):
                    raise ParseError(f"invalid slot entry {entry!r}", line_no)
            cycles = _parse_cycles(tail, line_no)
            rows.append((gen_name, tuple(slots), cycles))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no)
    if name is None:
        raise ParseError("missing 'group' line")
    if degree is None:
        raise ParseError("missing 'alphabet' line")
    return make_group(degree, rows, name=name)


def format_group_file(group: GroupDef) -> str:
    lines = [f"group {group.name}", f"alphabet {group.degree}"]
    for name in group.state_names:
        st = group.state(name)
        slots = ", ".join(entry if entry is not None else "1" for entry in st.slots)
        perm = "" if st.perm.is_identity() else f" {st.perm}"
        lines.append(f"gen {name} = ({slots}){perm}")
    return "\n".join(lines) + "\n"


def load_group_file(path) -> GroupDef:
    return parse_group_file(Path(path).read_text())


# -- certificate files --------------------------------------------------------


def _check_word(text: str, line_no: int) -> str:
    word_letters(text, line_no)  # syntax only; names resolve at run time
    return text.strip()


def _check_vertex(text: str, line_no: int) -> str:
    text = text.strip()
    if not _VERTEX_RE.match(text):
        raise ParseError(f"malformed vertex {text!r}", line_no)
    return text


def _split_once(rest: str, sep: str, line_no: int) -> Tuple[str, str]:
    if sep not in rest:
        raise ParseError(f"expected {sep!r}", line_no)
    left, right = rest.split(sep, 1)
    return left.strip(), right.strip()


_DISTINCT_RE = re.compile(r"\(([^()]*)\)\s+maxlen\s+(\d+)\s+expect\s+(\d+)\Z")


def parse_certificate(text: str) -> Certificate:
    name: Optional[str] = None
    group_name: Optional[str] = None
    assertions: List[Assertion] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        split = line.split(None, 1)
        keyword, rest = split[0], (split[1].strip() if len(split) > 1 else "")
        if keyword == "suite":
            if not _NAME_RE.match(rest):
                raise ParseError(f"invalid suite name {rest!r}", line_no)
            name = rest
        elif keyword == "group":
            if not _NAME_RE.match(rest):
                raise ParseError(f"invalid group name {rest!r}", line_no)
            group_name = rest
        elif keyword == "trivial":
            assertions.append(Trivial(_check_word(rest, line_no)))
        elif keyword == "equal":
            left, right = _split_once(rest, "=", line_no)
            assertions.append(
                Equal(_check_word(left, line_no), _check_word(right, line_no))
            )
        elif keyword == "member_by_expression":
            left, right = _split_once(rest, "=", line_no)
            assertions.append(
                MemberByExpression(
                    _check_word(left, line_no), _check_word(right, line_no)
                )
            )
        elif keyword == "coords":
            left, right = _split_once(rest, "=", line_no)
            slots, tail = _parse_tuple_then_rest(right, line_no)
            assertions.append(
                CoordsIs(
                    _check_word(left, line_no),
                    tuple(_check_word(s, line_no) for s in slots),
                    _parse_cycles(tail, line_no),
                )
            )
        elif keyword == "in_level_stab":
            level, word = _split_once(rest, ":", line_no)
            if not level.isdigit():
                raise ParseError(f"invalid level {level!r}", line_no)
            assertions.append(InLevelStab(int(level), _check_word(word, line_no)))
        elif keyword == "supported_only_at":
            vertex, word = _split_once(rest, ":", line_no)
            assertions.append(
                SupportedOnlyAt(
                    _check_vertex(vertex, line_no), _check_word(word, line_no)
                )
            )
        elif keyword == "transitive":
            if not rest.isdigit() or int(rest) < 1:
                raise ParseError(f"invalid depth {rest!r}", line_no)
            assertions.append(Transitive(int(rest)))
        elif keyword == "projection_witness":
            vertex, remainder = _split_once(rest, ":", line_no)
            stab_word, target = _split_once(remainder, "->", line_no)
            assertions.append(
                ProjectionWitness(
                    _check_vertex(vertex, line_no),
                    _check_word(stab_word, line_no),
                    _check_word(target, line_no),
                )
            )
        elif keyword == "distinct_positive_words":
            m = _DISTINCT_RE.match(rest)
            if m is None:
                raise ParseError(
                    "expected '(gens) maxlen N expect M' after keyword", line_no
                )
            gens = tuple(
                _check_word(g, line_no) for g in m.group(1).split(",") if g.strip()
            )
            if not gens:
                raise ParseError("empty generator list", line_no)
            assertions.append(
                DistinctPositiveWords(gens, int(m.group(2)), int(m.group(3)))
            )
        else:
            raise ParseError(f"unknown assertion keyword {keyword!r}", line_no)
    if name is None:
        raise ParseError("missing 'suite' line")
    return Certificate(name, group_name, tuple(assertions))


def load_certificate_file(path) -> Certificate:
    return parse_certificate(Path(path).read_text())

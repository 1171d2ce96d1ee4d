"""Line-oriented file formats: ``.agt`` group tables, ``.cert`` suites.

Group files::

    group NAME
    alphabet D
    gen NAME = (slot, ..., slot) [CYCLES]

where each slot is a state name or ``1`` and CYCLES is cycle notation on
the letters 1..D, e.g. ``(1 2)``; omitted CYCLES means the identity.
``#`` starts a comment anywhere.

A file over ``MAX_FILE_BYTES`` (16 MiB) is refused before it is decoded.
The ``.agt`` reader checks every line but keeps rows only while they fit
``core.CELL_CAP``, so an oversized table is refused without holding it.

Certificate files start with ``suite NAME`` and an optional ``group
NAME`` line, followed by one assertion per line: its ``kind`` keyword,
then its ``form``, both declared on the assertion classes of
:mod:`agroups.certify`.  Each word is read once, here, into a
:class:`agroups.words.Word`: the text the assertion prints, carrying
the letters that evaluation resolves against the group.
"""

from __future__ import annotations

import os
import re
from functools import partial
from collections.abc import Iterator

from .certify import Assertion, Certificate
from .core import _NAME, _NAME_RE, CELL_CAP, BadVertex, EngineError, GroupDef, _clip, _is_number
from .core import _check_size, _parse_vertex, _shown, make_group
from .words import ParseError, Word, read_word

__all__ = [
    "format_group_file",
    "load_certificate_file",
    "load_group_file",
    "parse_certificate",
    "parse_group_file",
]

_GEN_RE = re.compile(rf"({_NAME})\s*=\s*(.+)\Z")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
# The rest of a `gen` line as format_group_file prints it: single spaces, slots
# that are 1 or names, cycles of numbers of at most 9 digits (far below
# MAX_DIGITS).  It reads as the general path reads it; any other text takes
# that path, and its errors.
_SLOT = rf"(?:1|{_NAME})"
_CLEAN_CYCLE = r"\([0-9]{1,9}(?: [0-9]{1,9})*\)"
_CLEAN_GEN_RE = re.compile(rf"({_NAME}) = \(({_SLOT}(?:, {_SLOT})*)\)(?: ((?:{_CLEAN_CYCLE})+))?\Z")


def _lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, keyword, rest) of each line that is not blank or a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        split = raw.split("#", 1)[0].split(None, 1)
        if split:
            yield line_no, split[0], split[1].rstrip() if len(split) > 1 else ""


def _header(header: dict, keyword: str, value, line_no: int) -> None:
    if keyword in header:
        raise ParseError(f"duplicate {keyword!r} line", line_no)
    header[keyword] = value


def _name(what: str, text: str, line_no: int) -> str:
    if not _NAME_RE.match(text):
        raise ParseError(f"invalid {what} name {_shown(text)}", line_no)
    return text


def _parse_cycles(text: str, line_no: int) -> tuple[tuple[int, ...], ...] | None:
    text = text.strip()
    if text in ("", "id"):
        return None
    if _CYCLE_RE.sub("", text).strip():
        raise ParseError(f"malformed cycle notation {_shown(text)}", line_no)
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        tokens = m.group(1).replace(",", " ").split()
        if not tokens or not all(_is_number(t) for t in tokens):
            raise ParseError(f"malformed cycle ({_clip(m.group(1))})", line_no)
        cycles.append(tuple(int(t) for t in tokens))
    return tuple(cycles)


def _parse_tuple_then_rest(text: str, line_no: int) -> tuple[list[str], str]:
    """Split ``( p1, p2, ... ) rest``; commas split only at tuple depth, and
    `rest` keeps the text after ``)`` as it is."""
    text = text.strip()
    if not text.startswith("("):
        raise ParseError("expected '(' starting a tuple", line_no)
    depth = bracket = 0
    cuts = [0]  # the '(' that opens the tuple, then each comma that splits it
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return [text[a + 1 : b].strip() for a, b in zip(cuts, cuts[1:] + [i])], text[i + 1 :]
        elif ch == "[":
            bracket += 1
        elif ch == "]":
            bracket -= 1
        elif ch == "," and depth == 1 and bracket == 0:
            cuts.append(i)
    raise ParseError("unbalanced '(' in tuple", line_no)


# -- group files -----------------------------------------------------------


def parse_group_file(text: str) -> GroupDef:
    """The group of a ``.agt`` text.  Every line is read, so that a syntax error
    anywhere names its line, but rows are kept only while they fit `CELL_CAP`."""
    header: dict = {}
    rows: list[tuple] = []
    states = 0  # `gen` lines read
    for line_no, keyword, rest in _lines(text):
        if keyword == "group":
            _header(header, keyword, _name("group", rest, line_no), line_no)
        elif keyword == "alphabet":
            if not _is_number(rest) or int(rest) < 1:
                raise ParseError(f"invalid alphabet size {_shown(rest)}", line_no)
            _header(header, keyword, int(rest), line_no)
        elif keyword == "gen":
            if not {"group", "alphabet"} <= header.keys():
                raise ParseError("'gen' before 'group' and 'alphabet'", line_no)
            clean = _CLEAN_GEN_RE.match(rest)
            if clean is not None:
                gen_name, slots, cycles = clean.groups()
                if cycles is not None:
                    cycles = tuple([tuple(map(int, c.split())) for c in cycles[1:-1].split(")(")])
                row = (gen_name, tuple(slots.split(", ")), cycles)
            else:
                m = _GEN_RE.match(rest)
                if m is None:
                    raise ParseError("malformed 'gen' line", line_no)
                gen_name, rest = m.group(1), m.group(2)
                slots, tail = _parse_tuple_then_rest(rest, line_no)
                for entry in slots:
                    if entry != "1" and not _NAME_RE.match(entry):
                        raise ParseError(f"invalid slot entry {_shown(entry)}", line_no)
                row = (gen_name, tuple(slots), _parse_cycles(tail, line_no))
            states += 1
            if states * header["alphabet"] <= CELL_CAP:
                rows.append(row)
        else:
            raise ParseError(f"unknown keyword {_shown(keyword)}", line_no)
    for keyword in ("group", "alphabet"):
        if keyword not in header:
            raise ParseError(f"missing {keyword!r} line")
    _check_size(states, header["alphabet"])  # as make_group would on all the rows
    return make_group(header["alphabet"], rows, name=header["group"])


def format_group_file(group: GroupDef) -> str:
    lines = [f"group {group.name}", f"alphabet {group.degree}"]
    for name in group.state_names:
        st = group.state(name)
        slots = ", ".join(entry if entry is not None else "1" for entry in st.slots)
        perm = "" if st.perm.is_identity() else f" {st.perm}"
        lines.append(f"gen {name} = ({slots}){perm}")
    return "\n".join(lines) + "\n"


# A file over this many bytes is refused before it is decoded.  At 16 MiB a file
# of 2-character lines still parses under a 512 MiB address-space limit.
MAX_FILE_BYTES = 1 << 24
_FIRST_READ = 1 << 16  # most files end within it, so most reads ask for no buffer of the cap's size


def _read(path) -> str:
    """The UTF-8 text of the file at `path`; an EngineError if it cannot be read
    or holds over `MAX_FILE_BYTES` bytes.

    A buffered read returns all the bytes it asks for unless the file ends
    first, also from a pipe such as /dev/stdin.  The bytes are decoded without
    the text layer's newline translation, which changes no line that
    str.splitlines() reads."""
    try:
        with open(path, "rb") as file:
            data = file.read(_FIRST_READ)
            if len(data) == _FIRST_READ:
                data += file.read(MAX_FILE_BYTES + 1 - _FIRST_READ)
        if len(data) > MAX_FILE_BYTES:
            reason = f"over {MAX_FILE_BYTES} bytes"
        else:
            return data.decode("utf-8")
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
    # the path normalized: "./a//b/" is "a/b", and "a/../b" is "b"
    raise EngineError(f"cannot read {_shown(os.path.normpath(os.fspath(path)))}: {reason}")


def load_group_file(path) -> GroupDef:
    return parse_group_file(_read(path))


# -- certificate files --------------------------------------------------------


def _check_word(text: str, line_no: int) -> Word:
    return read_word(text.strip(), line_no)  # read once; names resolve at run time


def _check_vertex(text: str, line_no: int) -> str:
    text = text.strip()
    try:
        _parse_vertex(text)  # syntax only; letters are checked against the alphabet at run time
    except BadVertex as exc:
        raise ParseError(str(exc), line_no) from None
    return text


def _number(part: str, floor: int, text: str, line_no: int) -> int:
    text = text.strip()
    if not _is_number(text) or int(text) < floor:
        raise ParseError(f"invalid {part} {_shown(text)}", line_no)
    return int(text)


# How each part of an assertion's form is read: a word unless named; a
# vertex is ``.`` or dot-separated letters; a tuple arrives as its entries.
_READ = {
    "word": _check_word,
    "vertex": _check_vertex,
    "level": partial(_number, "level", 0),
    "depth": partial(_number, "depth", 1),
    "count": partial(_number, "count", 0),
    "tuple": lambda entries, line_no: tuple(_check_word(e, line_no) for e in entries),
    "cycles": _parse_cycles,
}


def _form(cls) -> list[tuple]:
    """(part, separator after it, its pattern) for each field of `cls.form`.
    A symbol separator is found anywhere, a word one only between
    whitespace; a field with no separator after it runs to the end of the
    line, unless it is a tuple, which ends at its ``)``."""
    form = []
    after = [text.strip() for text, _, _ in cls.layout[1:]] + [""]
    for (_, _, part), sep in zip(cls.layout, after):
        pattern = rf"(?<=\s){sep}(?=\s)" if sep.isalpha() else re.escape(sep)
        form.append((part, sep, re.compile(pattern) if sep else None))
    return form


_FORMS = {cls.kind: (cls, _form(cls)) for cls in Assertion.__subclasses__()}


def _read_assertion(cls, form: list[tuple], rest: str, line_no: int) -> Assertion:
    fields = []  # every separator is found before any field is read
    for part, sep, pattern in form:
        if part == "tuple":
            field, rest = _parse_tuple_then_rest(rest, line_no)
        if pattern is not None:
            m = pattern.search(rest)
            if m is None or (part == "tuple" and rest[: m.start()].strip()):
                raise ParseError(f"expected {sep!r}", line_no)
            if part != "tuple":
                field = rest[: m.start()]
            rest = rest[m.end() :]
        elif part != "tuple":
            field = rest
        fields.append(field)
    return cls(*[_READ[part](field, line_no) for (part, _, _), field in zip(form, fields)])


def parse_certificate(text: str) -> Certificate:
    header: dict = {}
    assertions: list[Assertion] = []
    for line_no, keyword, rest in _lines(text):
        if keyword in ("suite", "group"):
            _header(header, keyword, _name(keyword, rest, line_no), line_no)
        elif keyword in _FORMS:
            assertions.append(_read_assertion(*_FORMS[keyword], rest, line_no))
        else:
            raise ParseError(f"unknown assertion keyword {_shown(keyword)}", line_no)
    if "suite" not in header:
        raise ParseError("missing 'suite' line")
    return Certificate(header["suite"], header.get("group"), tuple(assertions))


def load_certificate_file(path) -> Certificate:
    return parse_certificate(_read(path))

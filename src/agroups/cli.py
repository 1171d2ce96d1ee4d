"""The ``agt`` command: every engine operation behind one argparse surface.

Groups are loaded from ``.agt`` files (or by bundled corpus name),
certificates from ``.cert`` files.  Text output by default, ``--json``
for structured output, ``--dot`` where a graph makes sense.  Exit codes:
0 on success / all assertions passing, 1 when a certificate suite fails
or the reader of stdout closes it early, 2 for usage, parse and engine
errors, out-of-range numbers included.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, List, Optional, Tuple

from . import certify, corpus, decide, formats, subgroups
from .core import EngineError, GroupDef, _clip, _is_number, _shown, format_vertex
from .decide import Portrait
from .subgroups import GenSet, OrbitTable
from .words import parse_word


def _load_group(source: str) -> GroupDef:
    if os.path.exists(source):  # False, not OSError, for a name too long to look up
        return formats.load_group_file(source)
    # only a bare NAME or NAME.agt falls back to the bundled group, never a missing path
    if (name := source.removesuffix(".agt")) in corpus.GROUPS:
        return corpus.load_group(name)
    raise EngineError(f"group file {_shown(source)} not found (and not a bundled group)")


def _load_certificate(source: str):
    if os.path.exists(source):
        return formats.load_certificate_file(source)
    if (name := source.removesuffix(".cert")) in corpus.CERTIFICATES:
        return corpus.load_certificate(name)
    raise EngineError(f"certificate {_shown(source)} not found (and not bundled)")


def _gens(args, group: GroupDef) -> GenSet:
    if args.gens is not None:
        # an empty entry is an empty word, as in a .cert tuple: parse_word refuses it
        words = [w.strip() for w in args.gens.split(";")]
        return GenSet.from_elements([parse_word(w, group) for w in words], words)
    return GenSet.from_group(group)


def _json(value, indent: str, out: List[str]) -> None:
    """Append the text of json.dumps(value, indent=2), nested `indent` deep, to `out`,
    for the values a payload holds: dicts with str keys, lists, str, int, bool and
    None.  TypeError for any other value."""
    kind = type(value)
    if kind is str:
        out.append(_json_str(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out += (sep, _json_str(key), ": ")  # _json_str refuses a key that is not a str
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(repr(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"{kind.__name__} is not written directly")


def _emit(args, payload: Optional[dict], text_lines: Iterable[str]) -> None:
    """Print the payload as JSON under --json, else the text lines, read only here."""
    if payload is not None and args.json:
        out: List[str] = []
        _json(payload, "", out)
        print("".join(out))
    else:
        for line in text_lines:
            print(line)


# -- dot emitters ------------------------------------------------------------


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def portrait_dot(p: Portrait) -> str:
    lines = ["digraph portrait {", "  node [shape=circle];"]

    def walk(node: Portrait, path: tuple) -> str:
        nid = "n" + ("_".join(map(str, path)) if path else "root")
        if node.residual is not None:
            label = str(node.residual)
            lines.append(f"  {nid} [shape=box, label={_quote(label)}];")
        else:
            lines.append(f"  {nid} [label={_quote(str(node.perm))}];")
            for i, child in enumerate(node.children, start=1):
                cid = walk(child, path + (i,))
                lines.append(f"  {nid} -> {cid} [label={_quote(str(i))}];")
        return nid

    walk(p, ())
    lines.append("}")
    return "\n".join(lines)


def closure_dot(sc: decide.SectionClosure) -> str:
    lines = ["digraph sections {", "  node [shape=box];"]
    for i, elem in enumerate(sc.elements):
        lines.append(f"  n{i} [label={_quote(str(elem))}];")
    for i, row in enumerate(sc.edges):
        for letter, j in enumerate(row, start=1):
            lines.append(f"  n{i} -> n{j} [label={_quote(str(letter))}];")
    lines.append("}")
    return "\n".join(lines)


def schreier_dot(table: OrbitTable, level: int) -> str:
    lines = [f"digraph schreier_level_{level} {{", "  node [shape=circle];"]
    group = table.gens.group
    names = [_quote(format_vertex(v)) for v in group.vertices(level)]
    lines.extend(f"  {v};" for v in names)
    for name, perm in zip(table.gens.names, group.level_perm(table.gens.elements, level)):
        lines.extend(
            f"  {v} -> {names[w]} [label={_quote(name)}];" for v, w in zip(names, perm)
        )
    lines.append("}")
    return "\n".join(lines)


def chain_dot(report: subgroups.OrbitChainReport) -> str:
    lines = ["digraph orbit_chain {", "  rankdir=TB;", "  node [shape=box];"]
    chain_blocks = set()
    if report.chain is not None:
        for n, block in enumerate(report.chain, start=report.stable_level):
            chain_blocks.add((n, block))
    for n in range(len(report.table.levels)):
        lv = report.table.level(n)
        for i, block in enumerate(lv.blocks):
            nid = f"L{n}O{i}"
            label = f"level {n} orbit {i} (size {len(block)})"
            style = ", penwidth=3" if (n, block) in chain_blocks else ""
            lines.append(f"  {nid} [label={_quote(label)}{style}];")
            if n > 0:
                lines.append(f"  L{n - 1}O{lv.parent[i]} -> {nid};")
    lines.append("}")
    return "\n".join(lines)


# -- the command table -----------------------------------------------------------

# A handler maps the parsed arguments and the loaded group to its JSON payload
# (None for graphviz, which --json does not replace), its text lines and its exit code.
# Text of more than one line comes from a generator, which only _emit reads, in text
# mode, so a --json request formats none of it; lines reuse the payload's strings.
Result = Tuple[Optional[dict], Iterable[str], int]


def _integer(text: str) -> int:
    """An optional '-' and at most MAX_DIGITS ASCII digits, as .cert reads a number."""
    if not _is_number(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}")
    return int(text)


_integer.__name__ = "int"  # the type's name in argparse's messages and the golden option sets


# An option is (flag, argparse keywords); shared options are declared once.
REQUIRED = {"required": True}
INT = {"type": _integer, "required": True}
GROUP = ("--group", {**REQUIRED, "help": ".agt file or bundled group name"})
JSON = ("--json", {"action": "store_true", "help": "structured output"})
WORD = ("--word", REQUIRED)
VERTEX = ("--vertex", REQUIRED)
DEPTH = ("--depth", INT)
MAXLEN = ("--maxlen", INT)
GENS = ("--gens", {"help": "semicolon-separated generator words"})
DOT = ("--dot", {"action": "store_true", "help": "emit graphviz"})

# (name, summary, handler, options after --group and --json), one row per subcommand
# in `agt --help` order; the @command decorators below fill it at import and nothing else
COMMANDS: List[Tuple[str, str, Callable[..., Result], tuple]] = []


def command(name: str, summary: str, *options):
    """Add the decorated handler to COMMANDS as subcommand `name`."""
    def register(handler: Callable[..., Result]) -> Callable[..., Result]:
        COMMANDS.append((name, summary, handler, options))
        return handler

    return register


@command("eval", "word -> wreath coordinates", WORD)
def cmd_eval(args, group: GroupDef) -> Result:
    g = parse_word(args.word, group)
    cs = g.coords()
    word, perm, slots = str(g), str(cs.perm), [str(s) for s in cs.slots]
    payload = {
        "group": group.name,
        "word": word,
        "perm": perm,
        "perm_images": list(cs.perm.image),
        "slots": slots,
    }

    def lines():
        yield f"word: {word}"
        yield f"perm: {perm}"
        yield f"slots: ({', '.join(slots)})"

    return payload, lines(), 0


@command("trivial", "does the word denote the identity?", WORD)
def cmd_trivial(args, group: GroupDef) -> Result:
    value = decide.is_trivial(parse_word(args.word, group))
    payload = {"group": group.name, "word": args.word, "trivial": value}
    return payload, [str(value).lower()], 0


@command("equal", "do two words denote the same automorphism?", WORD, ("--other", REQUIRED))
def cmd_equal(args, group: GroupDef) -> Result:
    value = decide.equals(parse_word(args.word, group), parse_word(args.other, group))
    payload = {"group": group.name, "left": args.word, "right": args.other, "equal": value}
    return payload, [str(value).lower()], 0


@command(
    "order", "order of the element, up to a bound", WORD,
    ("--bound", {"type": _integer, "default": 64}),
)
def cmd_order(args, group: GroupDef) -> Result:
    res = decide.order(parse_word(args.word, group), args.bound)
    payload = {
        "group": group.name,
        "word": args.word,
        "bound": res.bound,
        "order": res.value,
        "exact": res.exact,
    }
    return payload, [str(res)], 0


@command("section", "section of the word at a vertex", WORD, VERTEX)
def cmd_section(args, group: GroupDef) -> Result:
    s = str(parse_word(args.word, group).section(args.vertex))
    payload = {"group": group.name, "word": args.word, "vertex": args.vertex, "section": s}
    return payload, [s], 0


@command("act", "image of a vertex under the word", WORD, VERTEX)
def cmd_act(args, group: GroupDef) -> Result:
    image = format_vertex(parse_word(args.word, group).act(args.vertex))
    payload = {"group": group.name, "word": args.word, "vertex": args.vertex, "image": image}
    return payload, [image], 0


@command("portrait", "tree of root permutations", WORD, DEPTH, DOT)
def cmd_portrait(args, group: GroupDef) -> Result:
    p = decide.portrait(parse_word(args.word, group), args.depth)
    if args.dot:
        return None, [portrait_dot(p)], 0

    def tree(node: Portrait) -> dict:
        if node.residual is not None:
            return {"residual": str(node.residual)}
        return {"perm": str(node.perm), "children": [tree(c) for c in node.children]}

    def lines(node: dict, path: tuple):
        # pre-order, from the strings of the payload
        at = "  " * len(path) + format_vertex(path)
        if "residual" in node:
            yield f"{at}: residual {node['residual']}"
            return
        yield f"{at}: {node['perm']}"
        for i, child in enumerate(node["children"], start=1):
            yield from lines(child, path + (i,))

    root = tree(p)
    payload = {"group": group.name, "word": args.word, "depth": args.depth, "portrait": root}
    return payload, lines(root, ()), 0


@command("activity", "counts of active vertices per level", WORD, ("--levels", INT))
def cmd_activity(args, group: GroupDef) -> Result:
    seq = decide.activity_sequence(parse_word(args.word, group), args.levels)
    payload = {"group": group.name, "word": args.word, "activity": list(seq)}
    return payload, [" ".join(map(str, seq))], 0


@command("closure", "all distinct sections of the word", WORD, DOT)
def cmd_closure(args, group: GroupDef) -> Result:
    sc = decide.section_closure(parse_word(args.word, group))
    if args.dot:
        return None, [closure_dot(sc)], 0
    elements = [str(e) for e in sc.elements]
    payload = {
        "group": group.name,
        "word": args.word,
        "size": sc.size,
        "elements": elements,
        "edges": [list(row) for row in sc.edges],
    }

    def lines():
        yield f"{sc.size} distinct sections"
        for i, (elem, row) in enumerate(zip(elements, sc.edges)):
            targets = ", ".join(f"{letter}->{j}" for letter, j in enumerate(row, 1))
            yield f"  [{i}] {elem}  ({targets})"

    return payload, lines(), 0


@command(
    "orbits",
    "orbit partition of each level",
    DEPTH,
    GENS,
    ("--dot", {"action": "store_true", "help": "emit one level's action graph"}),
    ("--level", {"type": _integer, "help": "level for --dot (default: --depth)"}),
)
def cmd_orbits(args, group: GroupDef) -> Result:
    level = args.depth if args.level is None else args.level
    if args.dot and not 0 <= level <= args.depth:
        raise EngineError(f"--level must lie in 0..{args.depth}, got {_clip(str(level))}")
    table = subgroups.orbits(_gens(args, group), args.depth)
    if args.dot:
        return None, [schreier_dot(table, level)], 0
    payload = {
        "group": group.name,
        "depth": table.depth,
        "counts": list(table.counts),
        "levels": [
            {
                "level": lv.level,
                "count": lv.count,
                "orbits": [[format_vertex(v) for v in block] for block in lv.blocks],
                "parent": list(lv.parent),
            }
            for lv in table.levels
        ],
    }
    lines = (
        f"level {lv.level}: {lv.count} orbit(s), sizes "
        + ", ".join(str(len(b)) for b in lv.blocks)
        for lv in table.levels
    )
    return payload, lines, 0


@command(
    "stab",
    "Schreier generators of a stabilizer",
    ("--level", {"type": _integer}),
    ("--vertex", {}),
    GENS,
)
def cmd_stab(args, group: GroupDef) -> Result:
    gens = _gens(args, group)
    if (args.level is None) == (args.vertex is None):
        raise EngineError("give exactly one of --level or --vertex")
    if args.level is not None:
        st = subgroups.stabilizer_gens(gens, args.level)
        target = f"level {args.level}"
    else:
        st = subgroups.vertex_stabilizer_gens(gens, args.vertex)
        target = f"vertex {args.vertex}"
    found = [str(g) for g in st.generators]
    payload = {
        "group": group.name,
        "target": target,
        "generators": found,
        "transversal_size": len(st.transversal),
    }

    def lines():
        yield f"stabilizer of {target}: {len(found)} generator(s)"
        yield from (f"  {g}" for g in found)

    return payload, lines(), 0


@command("project", "sections of the vertex stabilizer", VERTEX, GENS)
def cmd_project(args, group: GroupDef) -> Result:
    found = [str(g) for g in subgroups.projection_gens(_gens(args, group), args.vertex).elements]
    return {"group": group.name, "vertex": args.vertex, "generators": found}, found, 0


@command("rist", "witnesses supported in a single subtree", VERTEX, MAXLEN, GENS)
def cmd_rist(args, group: GroupDef) -> Result:
    found = [str(g) for g in subgroups.rist_elements(_gens(args, group), args.vertex, args.maxlen)]
    payload = {
        "group": group.name,
        "vertex": args.vertex,
        "maxlen": args.maxlen,
        "witnesses": found,
    }

    def lines():
        yield f"{len(found)} witness(es)"
        yield from (f"  {g}" for g in found)

    return payload, lines(), 0


@command("chain", "orbit counts and chains below a vertex", VERTEX, DEPTH, GENS, DOT)
def cmd_chain(args, group: GroupDef) -> Result:
    report = subgroups.orbit_chain(_gens(args, group), args.vertex, args.depth)
    if args.dot:
        return None, [chain_dot(report)], 0
    blocks = None if report.chain is None else [[format_vertex(v) for v in b] for b in report.chain]
    payload = {
        "group": group.name,
        "vertex": args.vertex,
        "depth": args.depth,
        "counts": list(report.counts),
        "stabilized": report.stabilized,
        "stable_level": report.stable_level,
        "chain": blocks,
    }

    def lines():
        yield f"orbit counts: {' '.join(map(str, report.counts))}"
        if report.stabilized:
            yield f"stabilized at level {report.stable_level}"
            for n, block in enumerate(blocks, start=report.stable_level):
                yield f"  level {n}: {{{', '.join(block)}}}"
        else:
            yield f"not stabilized within depth {args.depth}"

    return payload, lines(), 0


@command(
    "commutator-witness",
    "plant a witness as an inner commutator coordinate",
    ("--word", {**REQUIRED, "help": "level-fixing element g"}),
    ("--slot", {**INT, "help": "outer slot k"}),
    ("--inner", {**INT, "help": "inner slot m"}),
    ("--witness", {**REQUIRED, "help": "element to plant"}),
)
def cmd_commutator_witness(args, group: GroupDef) -> Result:
    g = parse_word(args.word, group)
    w = parse_word(args.witness, group)
    cw = subgroups.commutator_witness(g, args.slot, args.inner, w)
    companion, commutator, at = str(cw.h), str(cw.commutator), format_vertex(cw.vertex)
    payload = {
        "group": group.name,
        "word": args.word,
        "slot": args.slot,
        "inner": args.inner,
        "witness": args.witness,
        "companion": companion,
        "commutator": commutator,
        "section_at": at,
        "verified": cw.verified,
    }

    def lines():
        yield f"companion h = {companion}"
        yield f"[g, h] = {commutator}"
        yield f"section at {at} equals witness: {cw.verified}"

    return payload, lines(), 0 if cw.verified else 1


@command(
    "ball",
    "sizes of word-metric balls",
    ("--radius", INT),
    GENS,
    ("--cap", {"type": _integer, "default": decide.BALL_CAP}),
)
def cmd_ball(args, group: GroupDef) -> Result:
    sizes = certify.ball_sizes(_gens(args, group), args.radius, args.cap)
    payload = {"group": group.name, "radius": args.radius, "sizes": list(sizes)}
    return payload, [" ".join(map(str, sizes))], 0


@command("freesemigroup", "distinct positive words", MAXLEN, GENS)
def cmd_freesemigroup(args, group: GroupDef) -> Result:
    res = certify.free_semigroup_check(_gens(args, group), args.maxlen)
    collision = None if res.collision is None else [str(w) for w in res.collision]
    payload = {
        "group": group.name,
        "maxlen": res.maxlen,
        "total_words": res.total_words,
        "distinct": res.distinct,
        "collision": collision,
    }

    def lines():
        yield f"{res.distinct} distinct of {res.total_words} positive words"
        if collision is not None:
            yield f"first collision: {collision[0]} = {collision[1]}"

    return payload, lines(), 0


@command(
    "certify",
    "run a certificate suite",
    ("--suite", {**REQUIRED, "help": ".cert file or bundled suite name"}),
)
def cmd_certify(args, group: GroupDef) -> Result:
    report = certify.run_suite(_load_certificate(args.suite), group)
    return report.to_payload(), report.lines(), 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The `agt` parser: the whole command table."""
    parser = argparse.ArgumentParser(
        prog="agt",
        description="compute with groups of rooted-tree automorphisms "
        "defined by wreath recursion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, options in COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=handler)
        for flag, keywords in (GROUP, JSON) + options:
            p.add_argument(flag, **keywords)
    return parser


def _read_clean(row: tuple, tokens: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse gives for `tokens` after the command of `row`, if they are clean.

    Clean: each token is an exact flag of the row, given once, and a flag that is
    not store_true is followed by one value that does not start with '-' and that
    its `type` converts; every required flag is there.  Anything else is None.
    """
    name, _, handler, options = row
    flags = dict((GROUP, JSON) + options)
    values = {}
    tokens = iter(tokens)
    for flag in tokens:
        keywords = flags.get(flag)
        if keywords is None or flag in values:
            return None
        if keywords.get("action") == "store_true":
            values[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            values[flag] = keywords.get("type", str)(value)
        except argparse.ArgumentTypeError:
            return None
    args = argparse.Namespace(command=name, fn=handler)
    for flag, keywords in flags.items():
        if flag not in values and keywords.get("required"):
            return None
        default = False if keywords.get("action") == "store_true" else keywords.get("default")
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, default))
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    row = next((row for row in COMMANDS if argv and argv[0] == row[0]), None)
    args = None if row is None else _read_clean(row, argv[1:])
    if args is None:
        args = build_parser().parse_args(argv)  # help and errors come from argparse
    try:
        payload, lines, code = args.fn(args, _load_group(args.group))
    except EngineError as exc:
        print(f"agt: error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, payload, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`); send what is still buffered to devnull, not a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

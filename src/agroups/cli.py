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
import json
import os
import sys
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from . import certify, corpus, decide, formats, subgroups
from .core import EngineError, GroupDef, _shown, format_vertex
from .decide import Portrait
from .subgroups import GenSet, OrbitTable
from .words import parse_word


def _load_group(source: str) -> GroupDef:
    if os.path.exists(source):  # False, not OSError, for a name too long to look up
        return formats.load_group_file(Path(source))
    # only a bare NAME or NAME.agt falls back to the bundled group, never a missing path
    if (name := source.removesuffix(".agt")) in corpus.GROUPS:
        return corpus.load_group(name)
    raise EngineError(f"group file {_shown(source)} not found (and not a bundled group)")


def _load_certificate(source: str):
    if os.path.exists(source):
        return formats.load_certificate_file(Path(source))
    if (name := source.removesuffix(".cert")) in corpus.CERTIFICATES:
        return corpus.load_certificate(name)
    raise EngineError(f"certificate {_shown(source)} not found (and not bundled)")


def _gens(args, group: GroupDef) -> GenSet:
    if args.gens is not None:
        # an empty entry is an empty word, as in a .cert tuple: parse_word refuses it
        words = [w.strip() for w in args.gens.split(";")]
        return GenSet.from_elements([parse_word(w, group) for w in words], words)
    return GenSet.from_group(group)


def _emit(args, payload: Optional[dict], text_lines: List[str]) -> None:
    if payload is not None and args.json:
        print(json.dumps(payload, indent=2))
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
Result = Tuple[Optional[dict], List[str], int]

# An option is (flag, argparse keywords); shared options are declared once.
REQUIRED = {"required": True}
INT = {"type": int, "required": True}
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
    slots = [str(s) for s in cs.slots]
    payload = {
        "group": group.name,
        "word": str(g),
        "perm": str(cs.perm),
        "perm_images": list(cs.perm.image),
        "slots": slots,
    }
    return payload, [f"word: {g}", f"perm: {cs.perm}", f"slots: ({', '.join(slots)})"], 0


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
    "order", "order of the element, up to a bound", WORD, ("--bound", {"type": int, "default": 64})
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

    lines = []

    def walk(node: Portrait, path: tuple) -> dict:
        # one pre-order pass writes the text line and builds the payload of each node
        at = "  " * len(path) + format_vertex(path)
        if node.residual is not None:
            lines.append(f"{at}: residual {node.residual}")
            return {"residual": str(node.residual)}
        lines.append(f"{at}: {node.perm}")
        children = [walk(c, path + (i,)) for i, c in enumerate(node.children, start=1)]
        return {"perm": str(node.perm), "children": children}

    payload = {
        "group": group.name,
        "word": args.word,
        "depth": args.depth,
        "portrait": walk(p, ()),
    }
    return payload, lines, 0


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
    payload = {
        "group": group.name,
        "word": args.word,
        "size": sc.size,
        "elements": [str(e) for e in sc.elements],
        "edges": [list(row) for row in sc.edges],
    }
    lines = [f"{sc.size} distinct sections"]
    for i, elem in enumerate(sc.elements):
        targets = ", ".join(f"{letter}->{j}" for letter, j in enumerate(sc.edges[i], 1))
        lines.append(f"  [{i}] {elem}  ({targets})")
    return payload, lines, 0


@command(
    "orbits",
    "orbit partition of each level",
    DEPTH,
    GENS,
    ("--dot", {"action": "store_true", "help": "emit one level's action graph"}),
    ("--level", {"type": int, "help": "level for --dot (default: --depth)"}),
)
def cmd_orbits(args, group: GroupDef) -> Result:
    level = args.depth if args.level is None else args.level
    if args.dot and not 0 <= level <= args.depth:
        raise EngineError(f"--level must lie in 0..{args.depth}, got {level}")
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
    lines = [
        f"level {lv.level}: {lv.count} orbit(s), sizes "
        + ", ".join(str(len(b)) for b in lv.blocks)
        for lv in table.levels
    ]
    return payload, lines, 0


@command(
    "stab",
    "Schreier generators of a stabilizer",
    ("--level", {"type": int}),
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
    payload = {
        "group": group.name,
        "target": target,
        "generators": [str(g) for g in st.generators],
        "transversal_size": len(st.transversal),
    }
    lines = [f"stabilizer of {target}: {len(st.generators)} generator(s)"]
    return payload, lines + [f"  {g}" for g in st.generators], 0


@command("project", "sections of the vertex stabilizer", VERTEX, GENS)
def cmd_project(args, group: GroupDef) -> Result:
    found = [str(g) for g in subgroups.projection_gens(_gens(args, group), args.vertex).elements]
    return {"group": group.name, "vertex": args.vertex, "generators": found}, found, 0


@command("rist", "witnesses supported in a single subtree", VERTEX, MAXLEN, GENS)
def cmd_rist(args, group: GroupDef) -> Result:
    found = subgroups.rist_elements(_gens(args, group), args.vertex, args.maxlen)
    payload = {
        "group": group.name,
        "vertex": args.vertex,
        "maxlen": args.maxlen,
        "witnesses": [str(g) for g in found],
    }
    return payload, [f"{len(found)} witness(es)"] + [f"  {g}" for g in found], 0


@command("chain", "orbit counts and chains below a vertex", VERTEX, DEPTH, GENS, DOT)
def cmd_chain(args, group: GroupDef) -> Result:
    report = subgroups.orbit_chain(_gens(args, group), args.vertex, args.depth)
    if args.dot:
        return None, [chain_dot(report)], 0
    payload = {
        "group": group.name,
        "vertex": args.vertex,
        "depth": args.depth,
        "counts": list(report.counts),
        "stabilized": report.stabilized,
        "stable_level": report.stable_level,
        "chain": None
        if report.chain is None
        else [[format_vertex(v) for v in block] for block in report.chain],
    }
    lines = [f"orbit counts: {' '.join(map(str, report.counts))}"]
    if report.stabilized:
        lines.append(f"stabilized at level {report.stable_level}")
        for n, block in enumerate(report.chain, start=report.stable_level):
            lines.append(
                f"  level {n}: {{{', '.join(format_vertex(v) for v in block)}}}"
            )
    else:
        lines.append(f"not stabilized within depth {args.depth}")
    return payload, lines, 0


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
    payload = {
        "group": group.name,
        "word": args.word,
        "slot": args.slot,
        "inner": args.inner,
        "witness": args.witness,
        "companion": str(cw.h),
        "commutator": str(cw.commutator),
        "section_at": format_vertex(cw.vertex),
        "verified": cw.verified,
    }
    lines = [
        f"companion h = {cw.h}",
        f"[g, h] = {cw.commutator}",
        f"section at {format_vertex(cw.vertex)} equals witness: {cw.verified}",
    ]
    return payload, lines, 0 if cw.verified else 1


@command(
    "ball",
    "sizes of word-metric balls",
    ("--radius", INT),
    GENS,
    ("--cap", {"type": int, "default": decide.BALL_CAP}),
)
def cmd_ball(args, group: GroupDef) -> Result:
    sizes = certify.ball_sizes(_gens(args, group), args.radius, args.cap)
    payload = {"group": group.name, "radius": args.radius, "sizes": list(sizes)}
    return payload, [" ".join(map(str, sizes))], 0


@command("freesemigroup", "distinct positive words", MAXLEN, GENS)
def cmd_freesemigroup(args, group: GroupDef) -> Result:
    res = certify.free_semigroup_check(_gens(args, group), args.maxlen)
    payload = {
        "group": group.name,
        "maxlen": res.maxlen,
        "total_words": res.total_words,
        "distinct": res.distinct,
        "collision": None if res.collision is None else [str(w) for w in res.collision],
    }
    lines = [f"{res.distinct} distinct of {res.total_words} positive words"]
    if res.collision is not None:
        lines.append(f"first collision: {res.collision[0]} = {res.collision[1]}")
    return payload, lines, 0


@command(
    "certify",
    "run a certificate suite",
    ("--suite", {**REQUIRED, "help": ".cert file or bundled suite name"}),
)
def cmd_certify(args, group: GroupDef) -> Result:
    report = certify.run_suite(_load_certificate(args.suite), group)
    return report.to_payload(), report.lines(), 0 if report.passed else 1


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `agt` parser: the whole command table, or only the row named `command`."""
    parser = argparse.ArgumentParser(
        prog="agt",
        description="compute with groups of rooted-tree automorphisms "
        "defined by wreath recursion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # the usage line of an error still lists every command, as the full table's does
        sub.metavar = "{" + ",".join(row[0] for row in COMMANDS) + "}"
    for name, summary, handler, options in COMMANDS:
        if command not in (None, name):
            continue
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
        except ValueError:
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
        # help and errors come from argparse: the invoked row's parser, or the whole
        # table for help, empty and unknown input, as `agt` as a whole would print them
        args = build_parser(None if row is None else row[0]).parse_args(argv)
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

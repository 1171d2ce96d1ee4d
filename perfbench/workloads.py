"""The benchmark's workloads: seeded operation lists and their answer checks.

Each workload function is called right after a fresh import of the
package.  It loads what it needs, generates its inputs from the seed and
returns the fixed list of operations one pass runs.  Everything such a
function does counts as set-up; only `Op.call` is timed.

Why each workload (see README.md for the full table):

* growth -- Cayley balls, free-semigroup counts, an order and the growth
  suite.  Thousands of `canonical_key` calls on short words that share
  prefixes; `Element.act` and `subgroups` never run.  Interning or memoized
  products should show here, a faster level action should not.
* levels -- orbits, Schreier generators, projections, rigid-stabilizer
  witnesses and orbit chains.  `Element.act` dominates and `canonical_key`
  runs only to deduplicate generators.  A faster level action should show
  here, interning hardly at all.
* queries -- a stream of independent `agt ... --json` requests.  Each one
  rebuilds the parser and reloads its group or suite, as a user's call
  does, so per-request costs that the other two hide show here.

The seed changes which words and vertices are used and the order of the
operations, never how many there are or how long the words are, so the
amount of work per pass hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

import oracle


@dataclass(frozen=True)
class Op:
    """One operation: the timed call, its canonical answer and its invariant check."""

    label: str
    kind: str
    call: Callable[[], Any]
    answer: Callable[[Any], Any]  # JSON-able; its digest is compared to the reference
    check: Callable[[Any], Optional[str]]  # a problem found by an invariant, or None


def _problem(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def _vertex(rng: random.Random, degree: int, depth: int) -> str:
    return ".".join(str(rng.randint(1, degree)) for _ in range(depth))


def _fixes(table, word: str, vertices) -> bool:
    letters = oracle.parse(word)
    return all(oracle.act(table, letters, v) == tuple(v) for v in vertices)


def _level(degree: int, n: int):
    verts = [()]
    for _ in range(n):
        verts = [v + (i,) for v in verts for i in range(1, degree + 1)]
    return verts


# -- growth -----------------------------------------------------------------------

# |B(0)|, |B(1)|, ... over the standard generators, as the package computes
# them; its own tests check them against pairwise comparison up to radius 4.
KNOWN_BALL_SIZES = {
    "basilica": (1, 5, 17, 53, 153, 421),
    "grigorchuk": (1, 5, 11, 23, 40, 68, 108, 176, 271),
}


def growth(seed: int, work_dir: Path, small: bool = False) -> List[Op]:
    from agroups import certify, corpus, decide
    from agroups.subgroups import GenSet

    bas, grig = corpus.load_group("basilica"), corpus.load_group("grigorchuk")
    s_bas, s_grig = GenSet.from_group(bas), GenSet.from_group(grig)
    suite = corpus.load_certificate("basilica_growth")
    r_bas, r_grig, maxlen, bound = (3, 4, 4, 16) if small else (5, 8, 8, 96)

    def check_ball(group):
        known = KNOWN_BALL_SIZES[group]
        return lambda sizes: _problem(
            sizes == known[: len(sizes)],
            f"{group} ball sizes {sizes}, expected {known[: len(sizes)]}",
        )

    def check_free(res):
        want = 2 ** (maxlen + 1) - 2
        return _problem(
            res.distinct == res.total_words == want and res.collision is None,
            f"{res.distinct} distinct of {res.total_words} words, expected {want}",
        )

    ops = [
        Op(f"ball basilica r{r_bas}", "ball", lambda: certify.ball_sizes(s_bas, r_bas), list,
           check_ball("basilica")),
        Op(f"ball grigorchuk r{r_grig}", "ball", lambda: certify.ball_sizes(s_grig, r_grig), list,
           check_ball("grigorchuk")),
        Op(
            f"freesemigroup basilica maxlen {maxlen}",
            "freesemigroup",
            lambda: certify.free_semigroup_check(s_bas, maxlen),
            lambda r: [r.maxlen, r.total_words, r.distinct, r.collision and [str(w) for w in r.collision]],
            check_free,
        ),
        Op(
            f"order basilica a bound {bound}",
            "order",
            lambda: decide.order(bas.generator("a"), bound),
            lambda r: [r.value, r.bound],
            # basilica is torsion-free, so a has no finite order
            lambda r: _problem(not r.exact, f"order of a reported as {r.value}"),
        ),
        Op(
            "suite basilica_growth",
            "suite",
            lambda: certify.run_suite(suite, bas),
            lambda r: r.to_payload(),
            lambda r: _problem(r.passed, "basilica_growth suite failed"),
        ),
    ]
    random.Random(seed).shuffle(ops)
    return ops


# -- levels -------------------------------------------------------------------------


def _orbit_answer(table):
    return [[list(map(list, block)) for block in lv.blocks] for lv in table.levels] + [list(table.counts)]


def _stab_answer(st):
    return [[str(g) for g in st.generators], [str(w) for _, w in st.transversal]]


def levels(seed: int, work_dir: Path, small: bool = False) -> List[Op]:
    from agroups import corpus, parse_word, subgroups
    from agroups.subgroups import GenSet

    rng = random.Random(seed)
    depth, seeded_depth, chain_depth, rist_len = (4, 3, 3, 2) if small else (9, 7, 8, 4)
    stab_level = 2 if small else 3
    ops: List[Op] = []
    for name in ("grigorchuk", "basilica"):
        group = corpus.load_group(name)
        table = oracle.TABLES[name]
        d = group.degree
        gens = GenSet.from_group(group)
        vstab_vertex = _vertex(rng, d, 4)
        proj_vertex = _vertex(rng, d, 2)
        # seeded generators of lengths 3..8, once each, so every seed acts with
        # the same number of letters
        words = [oracle.text(oracle.random_word(rng, table, n)) for n in rng.sample(range(3, 9), 6)]
        seeded = GenSet.from_elements([parse_word(w, group) for w in words], words)
        probe = [tuple(rng.randint(1, d) for _ in range(seeded_depth)) for _ in range(8)]

        def check_transitive(t, d=d):
            return _problem(
                all(c == 1 for c in t.counts)
                and all(len(lv.blocks[0]) == d ** lv.level for lv in t.levels),
                f"orbit counts {t.counts}, expected all 1",
            )

        def check_seeded(t, d=d, table=table, words=words, probe=probe):
            for lv in t.levels:
                members = sorted(v for block in lv.blocks for v in block)
                if members != _level(d, lv.level):
                    return f"level {lv.level} blocks do not partition the level"
            if any(x > y for x, y in zip(t.counts, t.counts[1:])):
                return f"orbit counts {t.counts} decrease"
            last = t.levels[-1]
            for v in probe:
                block = last.block_of(v)
                for w in words:
                    if last.block_of(oracle.act(table, oracle.parse(w), v)) != block:
                        return f"{w} moves {v} out of its orbit"
            return None

        def check_level_stab(st, table=table, d=d, level=stab_level):
            verts = _level(d, level)
            return _problem(
                all(_fixes(table, str(g), verts) for g in st.generators),
                f"a generator moves a level-{level} vertex",
            )

        def check_vertex_stab(st, table=table, d=d, v=vstab_vertex):
            vert = tuple(map(int, v.split(".")))
            return _problem(
                len(st.transversal) == d ** len(vert)
                and all(_fixes(table, str(g), [vert]) for g in st.generators),
                f"stabilizer of {v}: transversal {len(st.transversal)} or a generator moves it",
            )

        def check_chain(rep, d=d):
            return _problem(
                rep.stabilized and rep.stable_level == 0
                and [len(b) for b in rep.chain] == [d ** n for n in range(len(rep.chain))],
                f"orbit chain counts {rep.counts}",
            )

        ops += [
            Op(f"orbits {name} depth {depth}", "orbits",
               lambda g=gens: subgroups.orbits(g, depth), _orbit_answer, check_transitive),
            Op(f"stabilizer {name} level {stab_level}", "stabilizer",
               lambda g=gens: subgroups.stabilizer_gens(g, stab_level), _stab_answer, check_level_stab),
            Op(f"vertex stabilizer {name} {vstab_vertex}", "vertex_stabilizer",
               lambda g=gens, v=vstab_vertex: subgroups.vertex_stabilizer_gens(g, v),
               _stab_answer, check_vertex_stab),
            Op(f"projection {name} {proj_vertex}", "projection",
               lambda g=gens, v=proj_vertex: subgroups.projection_gens(g, v),
               lambda p: [str(e) for e in p.elements],
               lambda p: _problem(len(p) > 0, "empty projection")),
            Op(f"orbit chain {name} depth {chain_depth}", "orbit_chain",
               lambda g=gens: subgroups.orbit_chain(g, "", chain_depth),
               lambda r: [list(r.counts), r.stable_level, [list(map(list, b)) for b in r.chain or ()]],
               check_chain),
            Op(f"orbits {name} seeded gens depth {seeded_depth}", "orbits_seeded",
               lambda g=seeded: subgroups.orbits(g, seeded_depth), _orbit_answer, check_seeded),
        ]

    grig = GenSet.from_group(corpus.load_group("grigorchuk"))
    below = _level(2, 5)

    def check_rist(found):
        table = oracle.TABLES["grigorchuk"]
        # a witness at vertex 2 fixes the whole subtree at vertex 1
        return _problem(
            len(found) > 0 and all(_fixes(table, str(g), [(1,) + v for v in below]) for g in found),
            f"rist witnesses {[str(g) for g in found]}",
        )

    ops.append(Op(f"rist grigorchuk 2 maxlen {rist_len}", "rist",
                  lambda: subgroups.rist_elements(grig, "2", rist_len),
                  lambda found: [str(g) for g in found], check_rist))
    rng.shuffle(ops)
    return ops


# -- queries ---------------------------------------------------------------------------

QUERY_KINDS = ("trivial", "equal", "section", "act", "activity", "closure", "portrait")
QUERY_LENGTHS = (8, 16, 32, 64, 128, 256, 512)
ORDER_LENGTHS = (8, 12, 16)
ORDER_BOUND = 8
CERTIFY_REPEATS = 3
VERTEX_DEPTH = 8
ACTIVITY_LEVELS = 4
PORTRAIT_DEPTH = 4


def run_cli(cli, argv: List[str]):
    """One `agt` call in this process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _query(cli, label: str, kind: str, argv: List[str], group: str, expect: Callable[[dict], Optional[str]]) -> Op:
    def check(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if payload.get("group") != group:
            return f"group {payload.get('group')!r}, expected {group!r}"
        return expect(payload)

    return Op(label, kind, lambda: run_cli(cli, argv), list, check)


def queries(seed: int, work_dir: Path, small: bool = False) -> List[Op]:
    from agroups import cli

    rng = random.Random(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    rot3 = work_dir / f"rot3-seed{seed}.agt"
    rot3.write_text(oracle.agt_text("rot3"))
    sources = {"grigorchuk": "grigorchuk", "basilica": "basilica", "rot3": str(rot3)}
    lengths = QUERY_LENGTHS[:2] if small else QUERY_LENGTHS
    ops: List[Op] = []

    def add(kind, group, argv, expect, n):
        label = f"{len(ops):03d} {kind} {group} len {n}"
        ops.append(_query(cli, label, kind, [kind, "--group", sources[group], *argv, "--json"], group, expect))

    for group, table in oracle.TABLES.items():
        d = oracle.degree(table)
        for i, n in enumerate(lengths):
            for kind in QUERY_KINDS:
                _add_query(rng, add, kind, group, table, d, n, i % 2 == 0)
        for n in ORDER_LENGTHS:
            letters = oracle.random_word(rng, table, n)
            add("order", group, ["--word", oracle.text(letters), "--bound", str(ORDER_BOUND)],
                _expect_order(group, table, letters), n)
    for _ in range(CERTIFY_REPEATS):
        for suite, group in (("grigorchuk_nea", "grigorchuk"), ("basilica_nea", "basilica")):
            label = f"{len(ops):03d} certify {suite}"
            ops.append(_query(
                cli, label, "certify", ["certify", "--group", group, "--suite", suite, "--json"], group,
                lambda p: _problem(p["passed"] and all(a["passed"] for a in p["assertions"]), "suite failed"),
            ))
    rng.shuffle(ops)
    return ops


def _add_query(rng, add, kind, group, table, d, n, want):
    """One request of `kind` on a fresh seeded word of about `n` letters.

    `want` is the known answer of a `trivial` or `equal` request.
    """
    if kind == "trivial":
        # conjugated relators are trivial, conjugated generators are not
        letters = oracle.trivial_word(rng, group, n) if want else oracle.nontrivial_word(rng, group, n)
        add(kind, group, ["--word", oracle.text(letters)],
            lambda p: _problem(p["trivial"] is want, f"trivial is {p['trivial']}, expected {want}"), n)
        return
    if kind == "equal":
        letters = oracle.random_word(rng, table, n)
        if want:
            cut = rng.randint(0, n)
            other = letters[:cut] + oracle.trivial_word(rng, group, 8) + letters[cut:]
        else:
            other = letters + [oracle.quiet_letter(rng, group)]
        add(kind, group, ["--word", oracle.text(letters), "--other", oracle.text(other)],
            lambda p: _problem(p["equal"] is want, f"equal is {p['equal']}, expected {want}"), n)
        return
    letters = oracle.random_word(rng, table, n)
    word = oracle.text(letters)
    if kind in ("section", "act"):
        vertex = tuple(rng.randint(1, d) for _ in range(VERTEX_DEPTH))
        image = oracle.act(table, letters, vertex)
        if kind == "act":
            want = ".".join(map(str, image))
            expect = lambda p: _problem(p["image"] == want, f"image {p['image']}, expected {want}")
        else:
            below = [tuple(rng.randint(1, d) for _ in range(3)) for _ in range(4)]

            def expect(p):
                # g(v u) = g(v) s(u) for the section s of g at v
                sec = oracle.parse(p["section"])
                ok = all(oracle.act(table, letters, vertex + u) == image + oracle.act(table, sec, u) for u in below)
                return _problem(ok, f"section {p['section']} does not act as g below the vertex")
        add(kind, group, ["--word", word, "--vertex", ".".join(map(str, vertex))], expect, n)
    elif kind == "activity":
        odd = oracle.sign_odd(table, letters)

        def expect(p):
            seq = p["activity"]
            ok = len(seq) == ACTIVITY_LEVELS + 1 and all(0 <= c <= d ** k for k, c in enumerate(seq))
            return _problem(ok and (not odd or seq[0] == 1), f"activity {seq}")
        add(kind, group, ["--word", word, "--levels", str(ACTIVITY_LEVELS)], expect, n)
    elif kind == "closure":
        def expect(p):
            size = p["size"]
            ok = (
                size == len(p["elements"]) == len(p["edges"]) >= 1
                and p["elements"][0] == word
                and all(len(row) == d and all(0 <= j < size for j in row) for row in p["edges"])
            )
            if ok:
                # the edge at letter k leads to the section of the element at k
                for k, j in enumerate(p["edges"][0], start=1):
                    sec = oracle.parse(p["elements"][j])
                    top = oracle.act(table, letters, (k,))
                    ok = ok and all(
                        oracle.act(table, letters, (k,) + u) == top + oracle.act(table, sec, u)
                        for u in _level(d, 2)
                    )
            return _problem(ok, "closure is malformed or an edge is not a section")
        add(kind, group, ["--word", word], expect, n)
    else:  # portrait
        def expect(p):
            def walk(node, prefix):
                if len(prefix) == PORTRAIT_DEPTH:
                    return "residual" in node
                want = oracle.cycle_text(oracle.root_image(table, letters, prefix))
                return node.get("perm") == want and all(
                    walk(child, prefix + (i,)) for i, child in enumerate(node["children"], start=1)
                )
            return _problem(walk(p["portrait"], ()), "portrait disagrees with the level action")
        add(kind, group, ["--word", word, "--depth", str(PORTRAIT_DEPTH)], expect, n)


def _expect_order(group, table, letters):
    odd = oracle.sign_odd(table, letters)

    def expect(p):
        n = p["order"]
        if n is None:
            return _problem(p["exact"] is False and p["bound"] == ORDER_BOUND, "bad inexact order")
        if not 1 <= n <= ORDER_BOUND or (odd and n % 2):
            return f"order {n} impossible"
        if group == "basilica" and n != 1:  # torsion-free
            return f"basilica element of finite order {n}"
        if group == "grigorchuk" and n & (n - 1):  # a 2-group
            return f"grigorchuk element of order {n}"
        return None
    return expect


WORKLOADS = {"growth": growth, "levels": levels, "queries": queries}

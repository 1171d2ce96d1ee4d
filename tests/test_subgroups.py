import time
from array import array
from random import Random

import pytest

from agroups import core, decide, subgroups
from agroups.certify import InLevelStab, ball_sizes
from agroups.cli import schreier_dot
from agroups.subgroups import (
    GenSet,
    NotLevelFixing,
    NotVertexFixing,
    PermFixesM,
    commutator_witness,
    embed_element,
    embedded_group,
    fixes_level,
    is_supported_only_at,
    orbit_chain,
    orbits,
    projection_gens,
    rist_elements,
    stabilizer_gens,
    vertex_stabilizer_gens,
)
from agroups.core import VERTEX_CAP, BoundExceeded, Element, EngineError, MixedGroups, format_vertex
from agroups.core import GroupDef, make_group
from agroups.words import parse_word

from oracles import (
    dedupe_reference,
    first_per_key,
    is_supported_only_at_reference,
    orbit_chain_reference,
    orbit_images_bruteforce,
    orbits_reference,
    rist_reference,
    schreier_dot_reference,
    schreier_reference,
)
import property_checks as pc


def _contains(elements, target):
    return any(decide.equals(e, target) for e in elements)


# -- orbits --------------------------------------------------------------------


def test_orbits_transitive_corpus(grig, bas):
    for group in (grig, bas):
        table = orbits(GenSet.from_group(group), 7)
        assert table.counts == (1,) * 8
        for n in range(1, 8):
            assert len(table.level(n).blocks[0]) == 2 ** n


def test_orbits_identity_gens(grig):
    table = orbits(GenSet.from_elements([grig.identity()], ["1"]), 3)
    assert table.counts == (1, 2, 4, 8)
    assert all(len(b) == 1 for b in table.level(3).blocks)


def test_orbits_match_bruteforce_images(grig, bas):
    # orbit of v under the group == image closure under short products
    cases = [
        (grig, ["b"], (1, 1)),
        (grig, ["a", "d"], (2, 1, 2)),
        (grig, ["c"], (2, 2)),
        (bas, ["b"], (1, 2)),
        (bas, ["a", "b"], (2, 1, 1)),
    ]
    for group, names, v in cases:
        gens = GenSet.from_elements([parse_word(n, group) for n in names], names)
        table = orbits(gens, len(v))
        lv = table.level(len(v))
        block = lv.blocks[lv.block_of(v)]
        images = orbit_images_bruteforce(gens, v, 2 ** len(v))
        assert set(block) == images


def test_level_action_matches_act_reference(grig, bas, odo, rot3, aleshin, rand4):
    # every level-wide caller reads compiled rank permutations; one act per vertex is the reference
    rng = Random(53)
    for case in range(160):
        group = rng.choice([grig, bas, odo, rot3, aleshin, rand4])
        words = [str(pc.random_word(group, rng, 6)) for _ in range(rng.randint(1, 4))]
        words += rng.sample(["1", words[0], *group.state_names], rng.randint(0, 2))
        rng.shuffle(words)
        gens = GenSet.from_elements([parse_word(w, group) for w in words], words)
        depth = rng.randint(1, 8 if group.degree == 2 else 5)
        table = orbits(gens, depth)
        assert table == orbits_reference(gens, depth)
        level = rng.randint(0, depth)
        assert schreier_dot(table, level) == schreier_dot_reference(table, level)
        verts = list(group.vertices(level))
        for w, g in gens.items():
            moved = [v for v in verts if g.act(v) != v]
            assert fixes_level(g, level) == (not moved)
            assert subgroups.moved_vertex(g, level) == (moved[0] if moved else None)
            detail = f"{w} moves {format_vertex(moved[0]) if moved else ''}"
            assert InLevelStab(level, w).evaluate(group).detail == ("" if not moved else detail)
        # rand4's slow paths trip decide.REFINE_CAP, so the stabilizers keep to the first four
        if level <= 2 and case % 4 == 0 and group in (grig, bas, odo, rot3):
            st = stabilizer_gens(gens, level)
            transversal, raw = schreier_reference(gens, tuple(verts), lambda s, c: tuple(map(s.act, c)))
            assert [(x, str(t)) for x, t in st.transversal] == [(x, str(t)) for x, t in transversal]
            assert list(map(str, st.generators)) == list(map(str, dedupe_reference(group, raw)))
        vertex = pc.random_vertex(group, rng, 2)
        chain_depth = rng.randint(1, depth)
        try:
            got = orbit_chain(gens, vertex, chain_depth)
        except NotVertexFixing as exc:
            got = str(exc)
        try:
            want = orbit_chain_reference(gens, vertex, chain_depth)
        except NotVertexFixing as exc:
            want = str(exc)
        assert got == want


def test_gather_edge_cases(grig, rot3):
    # an itemgetter of one index returns a bare value and one of none is an error, so
    # core._gather reads those cases itself; a level of one vertex (level 0, or any level
    # of an alphabet-1 group) and a single-vertex orbit block reach them
    rng = Random(59)
    values = array("i", rng.sample(range(5000), 1000))
    for k in (0, 1, 2, 1000):
        ranks = array("i", (rng.randrange(len(values)) for _ in range(k)))
        assert core._gather(values, ranks) == tuple(values[r] for r in ranks)
        assert core._gather(tuple(values), list(ranks)) == tuple(values[r] for r in ranks)
    line = make_group(1, [("x", ("y",), None), ("y", ("x",), None)], name="line")
    for group, depth in ((grig, 0), (grig, 3), (rot3, 0), (rot3, 2), (line, 0), (line, 4)):
        words = [group.identity(), parse_word(group.state_names[0], group)]
        words.append(parse_word(" ".join(group.state_names * 2), group))
        perms = list(group.level_perms(words, depth))
        assert len(perms) == depth + 1
        for n, level in enumerate(perms):
            verts = list(group.vertices(n))
            want = [[verts.index(g.act(v)) for v in verts] for g in words]
            assert level == group.level_perm(words, n)
            assert [p.typecode for p in level] == ["i"] * len(words)
            assert [p.tolist() for p in level] == want
        gens = GenSet.from_elements(words[1:])
        for level in range(min(depth, 2) + 1):
            st = stabilizer_gens(gens, level)
            base = tuple(group.vertices(level))
            transversal, raw = schreier_reference(gens, base, lambda s, c: tuple(map(s.act, c)))
            assert [(x, str(t)) for x, t in st.transversal] == [(x, str(t)) for x, t in transversal]
            assert list(map(str, st.generators)) == list(map(str, dedupe_reference(group, raw)))
    for gens, depth in ((GenSet.from_elements([grig.generator("b")]), 4),
                        (GenSet.from_group(line), 4),
                        (GenSet.from_elements([rot3.generator("u")]), 2)):
        table = orbits(gens, depth)
        assert table == orbits_reference(gens, depth)
        assert any(len(block) == 1 for lv in table.levels[1:] for block in lv.blocks)


def test_level_perms_match_level_perm(grig, bas, odo, rot3, aleshin, rand4):
    # level_perms keeps one memo over its levels; level_perm builds its own level alone
    rng = Random(71)
    for _ in range(40):
        group = rng.choice([grig, bas, odo, rot3, aleshin, rand4])
        words = [pc.random_word(group, rng, 6) for _ in range(rng.randint(1, 4))]
        depth = rng.randint(0, 9 if group.degree == 2 else 5)
        levels = list(group.level_perms(words, depth))
        assert len(levels) == depth + 1
        for n, perms in enumerate(levels):
            assert perms == group.level_perm(words, n)


def test_level_memo_holds_only_reached_letters():
    # the 2,047-state binary-tree automaton of test_level_action_compiles_only_reached_letters
    n = 2047
    tree = make_group(
        2,
        [(f"s{i}", tuple(f"s{j}" if j < n else "1" for j in (2 * i + 1, 2 * i + 2)), ((1, 2),))
         for i in range(n)],
        name="tree",
    )

    def sections(letters):
        return {(s, e) for name, e in letters for s in tree.state(name).slots if s is not None}

    def letter():  # a state at a random depth of the tree
        return f"s{rng.randrange(2 ** rng.randint(1, 11) - 1)}", rng.choice((1, -1))

    rng = Random(29)
    for _ in range(12):
        words = [tree.element([letter() for _ in range(rng.randint(0, 4))]) for _ in range(3)]
        level = rng.randint(0, 16)
        # one level builds letter x on level m iff x is exactly level - m section steps from
        # the words; all levels up to `level` together build it iff x is within that many
        exact, within = set(), set()
        reached = {x for w in words for x in w.letters}
        memo, shared = {}, {}
        for m in range(level, -1, -1):
            exact |= {(x, m) for x in reached}
            within |= {(x, k) for x in reached for k in range(m + 1)}
            reached = sections(reached)
            tree._level(words, level - m, shared)
        tree._level(words, level, memo)
        for got, want in ((memo, exact), (shared, within)):
            assert {key for key in got if key[0] is not None} == want
            assert {m for x, m in got if x is None} <= set(range(level + 1))


def test_orbits_depth_cap(grig):
    with pytest.raises(BoundExceeded):
        orbits(GenSet.from_group(grig), 13)
    with pytest.raises(ValueError):
        orbits(GenSet.from_group(grig), 0)


# -- stabilizers ------------------------------------------------------------------


def test_level_stabilizer_basilica(bas):
    st = stabilizer_gens(GenSet.from_group(bas), 1)
    for want in ["a", "b b", "b^-1 a b"]:
        assert _contains(st.generators, parse_word(want, bas))
    for g in st.generators:
        assert all(g.act(v) == v for v in bas.vertices(1))


def test_level_stabilizer_grigorchuk(grig):
    st = stabilizer_gens(GenSet.from_group(grig), 1)
    for want in ["b", "c", "d", "a b a", "a c a", "a d a"]:
        assert _contains(st.generators, parse_word(want, grig))
    for g in st.generators:
        assert all(g.act(v) == v for v in grig.vertices(1))


def test_stabilizer_identity_gens(grig):
    st = stabilizer_gens(GenSet.from_elements([grig.identity()], ["1"]), 1)
    assert [str(g) for g in st.generators] == ["1"]


def test_vertex_stabilizer(grig):
    st = vertex_stabilizer_gens(GenSet.from_group(grig), "2.1")
    assert st.vertex == (2, 1)
    for g in st.generators:
        assert g.act("2.1") == (2, 1)
    assert len(st.transversal) == 4  # transitive on level 2


def test_projection_basilica(bas):
    proj = projection_gens(GenSet.from_group(bas), "2")
    assert _contains(proj.elements, bas.generator("a"))
    assert _contains(proj.elements, bas.generator("b"))


def test_projection_grigorchuk(grig):
    proj = projection_gens(GenSet.from_group(grig), "2")
    for want in ["a", "b", "c", "d"]:
        assert _contains(proj.elements, parse_word(want, grig))
    # the derived witness: section of a b a at vertex 2 is a
    assert decide.equals(parse_word("a b a", grig).section("2"), grig.generator("a"))


def test_projection_identity_gens(grig):
    proj = projection_gens(GenSet.from_elements([grig.identity()], ["1"]), "1")
    assert all(decide.is_trivial(g) for g in proj.elements)


def test_stabilizers_match_word_reference(grig, bas, odo, rot3):
    # the id-based Schreier pass keeps the transversal, generators and projections
    # of the word-based one, which deduped by canonical key
    def check(gens, level, vertex):
        group = gens.group
        st = stabilizer_gens(gens, level)
        base = tuple(group.vertices(level))
        transversal, raw = schreier_reference(gens, base, lambda s, c: tuple(map(s.act, c)))
        assert [(x, str(t)) for x, t in st.transversal] == [(x, str(t)) for x, t in transversal]
        assert list(map(str, st.generators)) == list(map(str, dedupe_reference(group, raw)))
        st = vertex_stabilizer_gens(gens, vertex)
        transversal, raw = schreier_reference(gens, vertex, Element.act)
        want = dedupe_reference(group, raw)
        assert [(x, str(t)) for x, t in st.transversal] == [(x, str(t)) for x, t in transversal]
        assert list(map(str, st.generators)) == list(map(str, want))
        sections = first_per_key(g.section(vertex) for g in want)
        assert list(map(str, projection_gens(gens, vertex).elements)) == list(map(str, sections))

    rng, twins = Random(37), Random(41)
    for n in range(150):
        group = rng.choice([grig, bas, odo, rot3])
        words = [str(pc.random_word(group, rng, 4)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            words = list(group.state_names) + words
            rng.shuffle(words)
        elements = [parse_word(w, group) for w in words]
        level = rng.randint(0, 3 if group.degree == 2 else 1)
        vertex = pc.random_vertex(group, rng, 3)
        check(GenSet.from_elements(elements), level, vertex)
        # a word next to its inverse steps back along the transversal, and a word twice
        # lands on the id of t_y: both are the identity, known without a product
        i = twins.randrange(len(elements))
        twin = elements[i].inverse() if n % 2 else elements[i]
        check(GenSet.from_elements([*elements[: i + 1], twin, *elements[i + 1 :]]), level, vertex)


def test_schreier_products_skip_what_ids_decide(grig, bas, monkeypatch):
    # the products of ids one stabilizer makes, with the step back and t_y's id
    # read off without one (1,024 and 384 products with neither)
    calls, mul = [], decide._InternTable.mul
    monkeypatch.setattr(decide._InternTable, "mul", lambda self, p, q: calls.append(p) or mul(self, p, q))
    inverse_pair = GenSet.from_elements([parse_word(w, bas) for w in ("a", "a^-1", "b")])
    for gens, want in ((GenSet.from_group(grig), 608), (GenSet.from_group(bas), 256), (inverse_pair, 332)):
        calls.clear()
        stabilizer_gens(gens, 3)
        assert len(calls) == want


# -- rigid stabilizer witnesses -----------------------------------------------------


def test_supported_only_at(grig, bas):
    assert is_supported_only_at(parse_word("(a b a d)^2", grig), "2")
    assert is_supported_only_at(parse_word("a (a b a d)^2 a^-1", grig), "1")
    assert is_supported_only_at(bas.generator("a"), "2")
    assert not is_supported_only_at(parse_word("b", grig), "2")  # both slots act
    assert not is_supported_only_at(parse_word("a", grig), "1")  # moves the level


def test_supported_only_at_matches_whole_level_check(grig, bas, odo, rot3, aleshin, rand4):
    # the walk down the vertex against the level permutation and every section of the level
    rng = Random(17)
    pairs = [(group, pc.random_word(group, rng, 10, minlen=1))
             for group in (grig, bas, odo, rot3, aleshin, rand4) for _ in range(40)]
    witnesses = [(grig, "(a b a d)^2", "2"), (grig, "a (a b a d)^2 a^-1", "1"), (bas, "a", "2")]
    for group, word, vertex in witnesses:
        base = parse_word(word, group)
        for u in [group.identity()] + [pc.random_word(group, rng, 4, minlen=1) for _ in range(6)]:
            g = (u * u).inverse() * base * (u * u)  # squares fix level 1 on a binary alphabet
            assert is_supported_only_at(g, vertex), (str(g), vertex)
            pairs.append((group, g))
    answers, deeper = set(), 0
    for group, g in pairs:
        depth = 4 if group.degree == 2 else 3
        for vertex in (v for n in range(depth + 1) for v in group.vertices(n)):
            want = is_supported_only_at_reference(g, vertex)
            assert is_supported_only_at(g, vertex) == want, (group.name, str(g), vertex)
            answers.add(want)
            deeper += len(vertex) > 1 and not want and is_supported_only_at_reference(g, vertex[:1])
    assert answers == {True, False} and deeper  # some pass the first level and fail below it
    for group, g in [(grig, grig.identity())] + pairs[:240:40]:  # one word per group
        vertex = (1,) * (17 if group.degree == 2 else 11)  # over VERTEX_CAP vertices on the level
        with pytest.raises(BoundExceeded) as walk:
            is_supported_only_at(g, vertex)
        with pytest.raises(BoundExceeded) as whole:
            is_supported_only_at_reference(g, vertex)
        assert str(walk.value) == str(whole.value) and str(VERTEX_CAP) in str(walk.value)


def test_level_action_entries_are_bounded(grig, monkeypatch):
    # words x vertices of the deepest level, checked before any level is built (cap lowered)
    monkeypatch.setattr(core, "LEVEL_ENTRY_CAP", 64)
    gens = GenSet.from_elements([grig.generator("a")] * 8)
    assert orbits(gens, 3).counts == (1, 1, 2, 4)
    built, level = [], GroupDef._level

    def counted(group, words, n, perms):
        out = level(group, words, n, perms)
        built.append(n)
        return out

    monkeypatch.setattr(GroupDef, "_level", counted)
    for call in (lambda: orbits(gens, 4), lambda: grig.level_perm(gens.elements, 4)):
        with pytest.raises(BoundExceeded, match="^8 words on the 16 vertices of level 4 exceed 64 entries$"):
            call()
    assert built == []


def test_schreier_pairs_are_bounded(grig, monkeypatch):
    # one raw generator per (point, generator) pair: points x generators is bounded by
    # BALL_CAP (lowered here) as the transversal grows. Grigorchuk's level 2 has 8 configurations
    monkeypatch.setattr(decide, "BALL_CAP", 32)
    gens = GenSet.from_group(grig)
    assert len(stabilizer_gens(gens, 2).transversal) == 8
    with pytest.raises(BoundExceeded, match="^Schreier pass exceeded 32 point-generator pairs$"):
        stabilizer_gens(GenSet.from_elements(gens.elements * 2), 2)


def test_rist_checks_each_ball_element_once(grig, bas, monkeypatch):
    # the search tests support through the module-level function, which the tracer hooks
    calls = []
    check = subgroups.is_supported_only_at
    monkeypatch.setattr(subgroups, "is_supported_only_at", lambda g, v: calls.append(g) or check(g, v))
    for group, vertex, maxlen in [(grig, "2", 4), (grig, "1.2", 3), (bas, "2", 3)]:
        gens = GenSet.from_group(group)
        calls.clear()
        rist_elements(gens, vertex, maxlen)
        assert len(calls) == ball_sizes(gens, maxlen)[-1] - 1  # every element but the identity


def test_rist_search_basilica(bas):
    found = rist_elements(GenSet.from_group(bas), "2", 1)
    assert _contains(found, bas.generator("a"))


def test_rist_search_grigorchuk(grig):
    found = rist_elements(GenSet.from_group(grig), "2", 2)
    assert len(found) == 1 and decide.equals(found[0], grig.generator("d"))
    found = rist_elements(GenSet.from_group(grig), "1", 3)
    assert _contains(found, parse_word("a d a", grig))
    for g in found:
        assert is_supported_only_at(g, "1") and not decide.is_trivial(g)


def test_rist_elements_match_word_enumeration(grig, bas, rot3):
    # the sphere walk keeps, per element, the first word the reduced-word search finds
    rng = Random(29)
    odd = {
        grig: ["b; c d", "a; 1; b", "a; a; c", "b; b^-1; a"],  # trivial, repeated, inverse pair
        bas: ["a; a^-1", "a b; 1"],
        rot3: ["w; w; t"],
    }
    cases = [(group, text.split("; ")) for group, texts in odd.items() for text in texts]
    for _ in range(120):
        group = rng.choice([grig, bas, rot3])
        words = [str(pc.random_word(group, rng, 3, 1)) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:  # with the state generators, so the ball holds witnesses
            words = list(group.state_names) + words
            rng.shuffle(words)
        cases.append((group, words))
    for group, words in cases:
        gens = GenSet.from_elements([parse_word(w, group) for w in words])
        vertex = pc.random_vertex(group, rng, 3)
        maxlen = rng.randint(1, 4 if len(gens) < 4 else 3)
        want = [str(w) for w in rist_reference(gens, vertex, maxlen)]
        assert [str(w) for w in rist_elements(gens, vertex, maxlen)] == want, (words, vertex, maxlen)


def test_spheres_multiply_each_letter_id_once(grig, monkeypatch):
    # grigorchuk's 8 letters are 4 ids, its generators being involutions: `rist` passes all
    # 8 and makes 4 products per frontier element, naming each by its first letter
    batches = []
    times = decide._InternTable._times
    monkeypatch.setattr(decide._InternTable, "_times",
                        lambda self, ps, factors: batches.append(len(ps) * len(factors)) or
                        times(self, ps, factors))
    gens = GenSet.from_group(grig)
    for vertex, maxlen in (("2", 4), ("1", 3), ("1.2", 4)):
        frontier_elements = ball_sizes(gens, maxlen - 1)[-1]
        batches.clear()
        found = [str(w) for w in rist_elements(gens, vertex, maxlen)]
        assert found == [str(w) for w in rist_reference(gens, vertex, maxlen)], vertex
        assert len(batches) == frontier_elements and set(batches) == {4}


def test_disjoint_rist_witnesses_commute(grig):
    x = parse_word("(a b a d)^2", grig)
    y = parse_word("a (a b a d)^2 a^-1", grig)
    assert decide.is_trivial(~x * ~y * x * y)


# -- orbit chains ---------------------------------------------------------------------


def test_orbit_chain_transitive(grig):
    report = orbit_chain(GenSet.from_group(grig), "", 4)
    assert report.stabilized and report.stable_level == 0
    assert report.counts == (1,) * 5
    assert [len(block) for block in report.chain] == [1, 2, 4, 8, 16]


def test_orbit_chain_identity_gens(grig):
    report = orbit_chain(GenSet.from_elements([grig.identity()], ["1"]), "", 3)
    assert not report.stabilized
    assert report.counts == (1, 2, 4, 8)
    assert report.chain is None


def test_orbit_chain_rist_projections(grig):
    # witnesses fixing vertex 2; the chain reports their action below it
    gens = GenSet.from_elements(
        [parse_word("d", grig), parse_word("(a b a d)^2", grig)]
    )
    report = orbit_chain(gens, "2", 6)
    assert report.counts == (1, 2, 2, 2, 4, 6, 10)
    assert not report.stabilized
    # counts can never drop: the parent map is onto
    assert all(a <= b for a, b in zip(report.counts, report.counts[1:]))


def test_orbit_chain_requires_fixed_vertex(grig):
    with pytest.raises(NotVertexFixing):
        orbit_chain(GenSet.from_group(grig), "1", 3)


def test_orbit_chain_stabilized_nontrivially(odo):
    report = orbit_chain(GenSet.from_group(odo), "", 5)
    assert report.stabilized and report.stable_level == 0
    assert report.counts == (1,) * 6


# -- the commutator construction -------------------------------------------------------


def test_embedded_group(bas):
    egroup = embedded_group(bas, "2.1")
    assert set(bas.state_names) <= set(egroup.state_names)
    w = parse_word("a b^-1", bas)
    e = embed_element(w, "2.1", egroup)
    assert decide.equals(e.section("2.1"), egroup.element(w.letters))
    assert decide.is_trivial(e.section("1"))
    assert is_supported_only_at(e, "2.1")


def test_embedded_group_is_bounded_by_depth(grig):
    # each added name spells a suffix of the vertex, so the presentation grows with the square
    # of the depth; a vertex on a level of over VERTEX_CAP vertices is refused before any row
    a = grig.generator("a")
    assert len(embedded_group(grig, (2,) * 16).state_names) == 4 + 4 * 16
    for vertex in ((2,) * 17, (2,) * 20_000):
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match=f"^level {len(vertex)} has over {VERTEX_CAP} vertices$"):
            embed_element(a, vertex)
        assert time.perf_counter() - start < 0.1


def test_commutator_witness_basilica(bas):
    g = bas.generator("a")  # (1, b): section at 2 swaps
    for text in ["a", "b", "a b", "b^-1 a"]:
        w = parse_word(text, bas)
        cw = commutator_witness(g, 2, 1, w)
        assert cw.verified
        assert decide.equals(cw.commutator.section("2.1"), cw.target)
    cw = commutator_witness(g, 2, 1, bas.identity())
    assert cw.verified and decide.is_trivial(cw.commutator)


def test_commutator_witness_grigorchuk(grig):
    # (ab)^2 = (ca, ac) fixes level 1; its section ca at letter 1 swaps
    g = parse_word("(a b)^2", grig)
    cw = commutator_witness(g, 1, 2, parse_word("a d", grig))
    assert cw.verified


def test_commutator_witness_errors(grig):
    with pytest.raises(PermFixesM):
        commutator_witness(grig.generator("b"), 2, 1, grig.generator("a"))
    with pytest.raises(NotLevelFixing):
        commutator_witness(grig.generator("a"), 1, 1, grig.generator("a"))
    with pytest.raises(ValueError):
        commutator_witness(grig.generator("b"), 3, 1, grig.generator("a"))
    other = make_group(2, {"a": (("1", "1"), ((1, 2),))}, name="other")
    with pytest.raises(MixedGroups, match=r"^witness element must live in the same group as g$"):
        commutator_witness(parse_word("b c", grig), 1, 2, other.generator("a"))


def test_genset_validation(grig, bas):
    with pytest.raises(EngineError):
        GenSet.from_elements([])
    with pytest.raises(EngineError):
        GenSet(grig, ("a",), (bas.generator("a"),))


def test_stabilizer_transversals_match_published_indices(grig, bas, odo):
    # the level-n transversal holds one point per coset of St_G(n): for grigorchuk
    # |G/St_G(n)| = 2^(5 * 2^(n-3) + 2) for n >= 3 (Grigorchuk, "Just infinite branch
    # groups", 2000); the odometer's level quotient is cyclic of order 2^n, so one
    # generator (a^(2^n)) stabilizes the level; basilica's sizes are pinned as measured
    for n, size in zip(range(1, 5), (2, 8, 128, 4096)):
        assert len(stabilizer_gens(GenSet.from_group(grig), n).transversal) == size
        assert n < 3 or size == 2 ** (5 * 2 ** (n - 3) + 2)
    for n, size in zip(range(1, 5), (2, 8, 64, 4096)):
        assert len(stabilizer_gens(GenSet.from_group(bas), n).transversal) == size
    for n in range(1, 5):
        st = stabilizer_gens(GenSet.from_group(odo), n)
        assert (len(st.transversal), len(st.generators)) == (2 ** n, 1)

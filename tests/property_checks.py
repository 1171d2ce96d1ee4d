"""Randomized property suites shared by the property tests and the
acceptance gate.  Each function runs `cases` independent random cases and
raises AssertionError on the first violation."""

from random import Random

from agroups import certify, decide, subgroups
from agroups.core import Element, GroupDef, Perm, format_vertex, make_group
from agroups.subgroups import GenSet
from agroups.words import parse_word

from oracles import canonical_key_reference, coords_reference, orbit_chain_reference, orbits_reference
from oracles import pairwise_ball_sizes, walk_reference


def random_word(group: GroupDef, rng: Random, maxlen: int, minlen: int = 0) -> Element:
    n = rng.randint(minlen, maxlen)
    names = group.state_names
    return group.element(
        [(rng.choice(names), rng.choice((1, -1))) for _ in range(n)]
    )


def random_vertex(group: GroupDef, rng: Random, maxdepth: int, mindepth: int = 0):
    n = rng.randint(mindepth, maxdepth)
    return tuple(rng.randint(1, group.degree) for _ in range(n))


def check_action_compatibility(groups, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group = rng.choice(groups)
        g = random_word(group, rng, 10)
        h = random_word(group, rng, 10)
        v = random_vertex(group, rng, 8)
        assert (g * h).act(v) == g.act(h.act(v)), f"action mismatch: {g}, {h}, {v}"
    return cases


def check_path_splitting(groups, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group = rng.choice(groups)
        g = random_word(group, rng, 10)
        v = random_vertex(group, rng, 8)
        w = random_vertex(group, rng, 8 - len(v))
        assert g.act(v + w) == g.act(v) + g.section(v).act(w), (
            f"path splitting fails: {g} at {format_vertex(v)} / {format_vertex(w)}"
        )
    return cases


def check_section_chain(groups, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group = rng.choice(groups)
        g = random_word(group, rng, 10)
        v = random_vertex(group, rng, 6)
        w = random_vertex(group, rng, 6)
        assert decide.equals(g.section(v).section(w), g.section(v + w))
    return cases


_GRIG_TRIVIAL = ["a a", "b b", "c c", "d d", "b c d", "d c b", "(a d)^4", "c d b"]


def check_key_soundness(groups, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group = rng.choice(groups)
        g = random_word(group, rng, 8)
        style = rng.randrange(3)
        if style == 0 and group.name == "grigorchuk":
            # equal by construction: pad with a relator
            pad = parse_word(rng.choice(_GRIG_TRIVIAL), group)
            h = g * pad
        elif style == 1:
            h = g.inverse().inverse() * group.identity()
        else:
            h = random_word(group, rng, 8)
        same = decide.equals(g, h)
        keys_same = decide.canonical_key(g) == decide.canonical_key(h)
        assert same == keys_same, f"key/equals disagree on {g} vs {h}"
    return cases


def _random_genset(group: GroupDef, rng: Random) -> GenSet:
    names = list(group.state_names)
    rng.shuffle(names)
    chosen = names[: rng.randint(1, len(names))]
    elements = [group.generator(n) for n in chosen]
    if rng.randrange(2):
        elements.append(random_word(group, rng, 4, minlen=1))
        chosen.append(str(elements[-1]))
    return GenSet(group, tuple(chosen), tuple(elements))


def check_schreier_fix_targets(groups, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group = rng.choice(groups)
        gens = _random_genset(group, rng)
        if rng.randrange(2):
            level = rng.randint(1, 2)
            st = subgroups.stabilizer_gens(gens, level)
            verts = list(group.vertices(level))
            for g in st.generators:
                assert all(g.act(v) == v for v in verts), f"{g} moves level {level}"
        else:
            v = random_vertex(group, rng, 3, mindepth=1)
            st = subgroups.vertex_stabilizer_gens(gens, v)
            for g in st.generators:
                assert g.act(v) == v, f"{g} moves {format_vertex(v)}"
    return cases


def check_emap_welldefined(groups, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group = rng.choice(groups)
        gens = _random_genset(group, rng)
        depth = rng.randint(2, 4)
        table = subgroups.orbits(gens, depth)
        for n in range(1, depth + 1):
            lv = table.level(n)
            prev = table.level(n - 1)
            hit = set()
            for i, block in enumerate(lv.blocks):
                parents = {prev.block_of(v[:-1]) for v in block}
                assert parents == {lv.parent[i]}, f"e-map ill-defined at level {n}"
                hit.add(lv.parent[i])
            assert hit == set(range(prev.count)), f"e-map not onto at level {n}"
    return cases


def _level_fixing_word(group: GroupDef, rng: Random, maxlen: int) -> Element:
    # squares fix level 1 on a binary alphabet
    w = random_word(group, rng, maxlen, minlen=1)
    return w * w


def _rist_pools(grig: GroupDef, bas: GroupDef, rng: Random):
    if rng.randrange(2):
        group = grig
        base2 = parse_word("(a b a d)^2", group)
        swap = group.generator("a")
    else:
        group = bas
        base2 = group.generator("a")
        swap = group.generator("b")
    u = _level_fixing_word(group, rng, 4)
    exps = [1, 2, -1]
    g2 = u.inverse() * base2 ** rng.choice(exps) * u
    v = _level_fixing_word(group, rng, 4)
    g1 = swap.inverse() * (v.inverse() * base2 ** rng.choice(exps) * v) * swap
    return group, g2, g1


def check_rist_disjoint_commute(grig: GroupDef, bas: GroupDef, rng: Random, cases: int) -> int:
    for _ in range(cases):
        group, g2, g1 = _rist_pools(grig, bas, rng)
        assert subgroups.is_supported_only_at(g2, (2,)), f"{g2} not supported at 2"
        assert subgroups.is_supported_only_at(g1, (1,)), f"{g1} not supported at 1"
        comm = g2.inverse() * g1.inverse() * g2 * g1
        assert decide.is_trivial(comm), f"disjoint witnesses fail to commute: {g2}, {g1}"
    return cases


def check_commutator_postcondition(groups, rng: Random, cases: int) -> int:
    done = 0
    while done < cases:
        group = rng.choice(groups)
        g = _level_fixing_word(group, rng, 5)
        cs = g.coords()
        candidates = []
        for k in range(1, group.degree + 1):
            s = cs.slots[k - 1].coords().perm
            for m in range(1, group.degree + 1):
                if s(m) != m:
                    candidates.append((k, m))
        if not candidates:
            continue
        k, m = rng.choice(candidates)
        w = random_word(group, rng, 6)
        cw = subgroups.commutator_witness(g, k, m, w)
        assert cw.verified, f"commutator witness failed for {g}, k={k}, m={m}, w={w}"
        done += 1
    return done


def random_automaton(rng: Random) -> GroupDef:
    """A random wreath recursion: degree 2 or 3, 1 to 5 states, a random root
    permutation per state, and each slot a state or the identity ``1``."""
    degree = rng.randint(2, 3)
    names = [f"s{i}" for i in range(rng.randint(1, 5))]
    rows = []
    for name in names:
        image = list(range(1, degree + 1))
        rng.shuffle(image)
        rows.append((name, tuple(rng.choice(names + ["1"]) for _ in range(degree)), Perm(image)))
    return make_group(degree, rows, name="random")


def check_random_automata(rng: Random, cases: int) -> int:
    """On random automata: `coords` against `coords_reference`, `act` and
    `section` against `walk_reference`, the keys of every letter (in a
    shuffled order, so that each closure a group keeps is built from a random
    one of its letters) and of short words against `canonical_key_reference`,
    and Cayley balls against `pairwise_ball_sizes`."""
    for _ in range(cases):
        group = random_automaton(rng)
        for _ in range(20):
            g = random_word(group, rng, 12)
            got, want = g.coords(), coords_reference(g)
            assert [s.letters for s in got.slots] == [s.letters for s in want.slots], f"coords: {g}"
            assert got.perm == want.perm, f"coords: {g}"
            v = random_vertex(group, rng, 5)
            image, section = walk_reference(g, v)
            assert g.act(v) == image, f"act: {g} at {format_vertex(v)}"
            assert g.section(v).letters == section.letters, f"section: {g} at {format_vertex(v)}"
        letters = [group.element([(n, e)]) for n in group.state_names for e in (1, -1)]
        rng.shuffle(letters)
        for g in letters + [random_word(group, rng, 3) for _ in range(5)]:
            assert decide.canonical_key(g) == canonical_key_reference(g), f"key of {g}"
        gens = GenSet.from_group(group)
        radius = rng.randint(1, 2)
        assert certify.ball_sizes(gens, radius) == pairwise_ball_sizes(gens, radius)
    return cases


def check_random_orbits(rng: Random, cases: int) -> int:
    """On random automata, for the standard generators and for a few random
    words: `orbits` against `orbits_reference` at depths 1-6 (1-4 on the
    ternary tree), and `orbit_chain` at the root against
    `orbit_chain_reference` at the deepest of them."""
    for _ in range(cases):
        group = random_automaton(rng)
        words = [random_word(group, rng, 6) for _ in range(rng.randint(1, 3))]
        top = 6 if group.degree == 2 else 4
        for gens in (GenSet.from_group(group), GenSet.from_elements(words)):
            for depth in range(1, top + 1):
                assert subgroups.orbits(gens, depth) == orbits_reference(gens, depth), (
                    f"orbits of {gens.names} at depth {depth}"
                )
            assert subgroups.orbit_chain(gens, ".", top) == orbit_chain_reference(gens, ".", top), (
                f"orbit chain of {gens.names}"
            )
    return cases

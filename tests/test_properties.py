"""Randomized invariant suites at a quick, everyday scale; the acceptance
module reruns them at full case counts."""

from random import Random

from agroups import decide
from agroups.words import parse_word

import property_checks as pc
from oracles import coords_reference, fixes_all_vertices, walk_reference


def test_coordinate_law(grig, bas, odo, rot3):
    rng = Random(101)
    for _ in range(80):
        group = rng.choice([grig, bas, odo, rot3])
        g = pc.random_word(group, rng, 8)
        h = pc.random_word(group, rng, 8)
        gh = g * h
        cg, ch, cgh = g.coords(), h.coords(), gh.coords()
        assert cgh.perm == cg.perm * ch.perm
        inv = cg.perm.inv()
        for k in range(1, group.degree + 1):
            want = cg.slots[k - 1] * ch.slots[inv(k) - 1]
            assert decide.equals(cgh.slots[k - 1], want)


def test_step_table_matches_reference(grig, bas, odo, rot3):
    # coords, act and section read the step table; the per-letter fold is the reference
    rng = Random(11)
    for _ in range(2400):
        group = rng.choice([grig, bas, odo, rot3])
        g = pc.random_word(group, rng, 40)
        got, want = g.coords(), coords_reference(g)
        assert [s.letters for s in got.slots] == [s.letters for s in want.slots]
        assert got.perm.image == want.perm.image
        v = pc.random_vertex(group, rng, 10)
        # constant paths are where the bundled states keep nontrivial sections deepest
        for u in (v, (rng.randint(1, group.degree),) * len(v)):
            image, section = walk_reference(g, u)
            assert g.act(u) == image
            assert g.section(u).letters == section.letters


def test_action_compatibility(grig, bas, odo, rot3):
    pc.check_action_compatibility([grig, bas, odo, rot3], Random(1), 60)


def test_path_splitting(grig, bas, odo, rot3):
    pc.check_path_splitting([grig, bas, odo, rot3], Random(2), 60)


def test_section_chain(grig, bas, odo, rot3):
    pc.check_section_chain([grig, bas, odo, rot3], Random(3), 40)


def test_key_soundness(grig, bas, rot3):
    pc.check_key_soundness([grig, bas, rot3], Random(4), 60)


def test_schreier_fix_targets(grig, bas, odo):
    pc.check_schreier_fix_targets([grig, bas, odo], Random(5), 40)


def test_emap_welldefined(grig, bas, odo, rot3):
    pc.check_emap_welldefined([grig, bas, odo, rot3], Random(6), 40)


def test_rist_disjoint_commute(grig, bas):
    pc.check_rist_disjoint_commute(grig, bas, Random(7), 40)


def test_commutator_postcondition(grig, bas, odo):
    pc.check_commutator_postcondition([grig, bas, odo], Random(8), 40)


def test_oracle_agreement_small(bas, odo):
    # positive words over the generators, compared against the level action
    for group, maxlen in [(bas, 6), (odo, 6)]:
        gens = group.generators()
        memo = {}
        frontier = [group.identity()]
        for _ in range(maxlen):
            frontier = [w * g for w in frontier for g in gens]
            for w in frontier:
                assert decide.is_trivial(w) == fixes_all_vertices(w, 12, memo)


def test_finitary_detection(grig):
    # finitary of depth 1: activity vanishes from level 1 on
    a = grig.generator("a")
    assert decide.activity_sequence(a, 8)[1:] == (0,) * 8
    assert decide.activity_sequence(grig.identity(), 8) == (0,) * 9
    # a nonfinitary element keeps nonzero activity
    assert all(n > 0 for n in decide.activity_sequence(grig.generator("b"), 8))


def test_inversion_perm(grig, bas, odo, rot3):
    rng = Random(9)
    for _ in range(40):
        group = rng.choice([grig, bas, odo, rot3])
        g = pc.random_word(group, rng, 10)
        assert g.inverse().coords().perm == g.coords().perm.inv()


def test_conjugate_of_supported_witness_stays_supported(grig):
    # engine-level sanity behind the witness pools used elsewhere
    x = parse_word("(a b a d)^2", grig)
    u = parse_word("(b a d)^2", grig)  # a square: fixes level 1
    from agroups.subgroups import is_supported_only_at

    assert is_supported_only_at(u.inverse() * x * u, "2")


def test_intern_table_matches_canonical_keys(grig, bas, odo, rot3):
    # ids multiply like the words they intern, and no two ids are equal
    def key_of(table, x):
        # breadth-first numbering from x, as canonical_key serializes
        number, order = {x: 0}, [x]
        for y in order:
            for k in table.kids[y]:
                if k not in number:
                    number[k] = len(order)
                    order.append(k)
        return tuple((table.images[y], tuple(number[k] for k in table.kids[y])) for y in order)

    rng = Random(12)
    tables = {group: decide._InternTable(group) for group in (grig, bas, odo, rot3)}
    for _ in range(2000):
        group = rng.choice(list(tables))
        table = tables[group]
        g, h = pc.random_word(group, rng, 30), pc.random_word(group, rng, 30)
        x, y = table.intern(g), table.intern(h)
        assert key_of(table, x) == decide.canonical_key(g)
        assert table.mul(x, y) == table.intern(g * h)
    for table in tables.values():
        assert len({key_of(table, x) for x in range(len(table.images))}) == len(table.images)

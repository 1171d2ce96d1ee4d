"""Randomized invariant suites at a quick, everyday scale; the acceptance
module reruns them at full case counts."""

from pathlib import Path
from random import Random

from agroups import decide, formats
from agroups.words import parse_word

import property_checks as pc
from oracles import (
    InternTableReference,
    coords_reference,
    fixes_all_vertices,
    reduce_reference,
    walk_reference,
)


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


def test_random_automata_match_references():
    # seeded wreath recursions of degree 2-3 with 1-5 states, whose sections include 1
    assert pc.check_random_automata(Random(31), 40) == 40


def test_random_automata_orbits_match_references():
    # its own seed, so the draws of check_random_automata stay as they were
    assert pc.check_random_orbits(Random(37), 60) == 60


def _planted_word(group, rng: Random, maxlen: int):
    """Letters of a random word of length 0..`maxlen`, reduced, in which a
    conjugate ``u x u^-1`` or a pair ``x y^-1`` is planted now and then: where
    the inner letters have trivial or equal sections, the slots cancel."""
    names = group.state_names
    letters = []
    while len(letters) < rng.randint(0, maxlen):
        x = (rng.choice(names), rng.choice((1, -1)))
        kind = rng.random()
        if kind < 0.3:
            u = [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]
            letters += u + [x] + [(n, -e) for n, e in reversed(u)]
        elif kind < 0.5:
            letters += [x, (rng.choice(names), -x[1])]
        else:
            letters.append(x)
    return reduce_reference(letters[:maxlen])


def test_coords_and_reduction_match_reference_under_cancellation(grig, bas, odo, rot3, aleshin):
    # the inline free reduction of coords, Element(), * and ** against the per-letter push
    rng = Random(14)
    for group in (grig, bas, odo, rot3, aleshin):
        cancelled = 0
        for _ in range(300):
            letters = _planted_word(group, rng, 64)
            g = group.element(letters)
            assert g.letters == letters
            got, want = g.coords(), coords_reference(g)
            assert [s.letters for s in got.slots] == [s.letters for s in want.slots], (group.name, g)
            assert got.perm.image == want.perm.image
            met = sum(sum(1 for _, s, _ in group._table[x] if s is not None) for x in letters)
            cancelled += met > sum(len(s) for s in want.slots)
            h = group.element(_planted_word(group, rng, 64))
            assert (g * h).letters == reduce_reference(g.letters + h.letters)
            assert (g * g.inverse()).letters == ()
            n = rng.randint(-3, 3)
            assert (g ** n).letters == reduce_reference((g if n >= 0 else g.inverse()).letters * abs(n))
        # the odometer's reduced words are powers of one state, and Aleshin's automaton
        # is bireversible, so sections of its reduced words are reduced: neither cancels
        assert cancelled > 100 if group in (grig, bas, rot3) else cancelled == 0, group.name


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


def test_intern_table_matches_canonical_keys(grig, bas, odo, rot3, aleshin, rand4):
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
    tables = {}
    # the sections of Aleshin and rand4 words do not shrink, so their tables get short words
    for groups, rounds, wordlen in (((grig, bas, odo, rot3), 2000, 30), ((aleshin,), 40, 3),
                                    ((rand4,), 60, 2)):
        tables.update((group, decide._InternTable(group)) for group in groups)
        for _ in range(rounds):
            group = rng.choice(groups)
            table = tables[group]
            g, h = pc.random_word(group, rng, wordlen), pc.random_word(group, rng, wordlen)
            x, y = table.intern(g), table.intern(h)
            assert key_of(table, x) == decide.canonical_key(g)
            assert table.mul(x, y) == table.intern(g * h)
    for table in tables.values():
        assert len({key_of(table, x) for x in range(len(table.images))}) == len(table.images)


def _product_calls(table, group, rng, radius, wordlen, powers):
    """The product loops' calls on `table`, drawn from `rng`; returns every id they give."""
    gens = [group.generator(name) for name in group.state_names]
    steps = [(table.intern(s), table.intern(s.inverse())) for s in gens]
    out = [h for sphere in table.spheres([x for step in steps for x in step], radius)
           for h, _, _ in sphere]
    level = [0]  # free-semigroup levels, batched as `free_semigroup_check` batches them
    for _ in range(radius):
        level = list(dict.fromkeys(table.products(level, [sid for sid, _ in steps])))
        out += level
    for _ in range(4):  # Schreier-style chains: t_y = s t_x, t_y^-1 = t_x^-1 s^-1
        tid = tinv = 0
        for _ in range(radius):
            sid, sinv = rng.choice(steps)
            tid, tinv = table.mul(sid, tid), table.mul(tinv, sinv)
            out += [tid, tinv, table.mul(tinv, tid)]
    for _ in range(4):  # powers, as `order` takes them
        x = table.intern(pc.random_word(group, rng, wordlen))
        power = x
        for _ in range(powers):
            power = table.mul(power, x)
            out.append(power)
    for _ in range(20):
        x, y = (table.intern(pc.random_word(group, rng, wordlen)) for _ in "xy")
        out += [x, y, table.mul(x, y), table.mul(y, x)]
    return out


def test_intern_table_fast_path_matches_walk(grig, bas, odo, rot3, aleshin):
    # the one-row lookup appends the same states in the same order as the walk
    # Aleshin's group is free: a word of length n has 3^n states, so its sizes stay small
    cases = ((grig, (6, 12, 12)), (bas, (6, 12, 12)), (odo, (6, 12, 12)), (rot3, (4, 8, 8)),
             (aleshin, (3, 2, 1)))  # (radius, word length, powers)
    for group, sizes in cases:
        fast, walk = decide._InternTable(group), InternTableReference(group)
        ids = [_product_calls(table, group, Random(f"{group.name} products"), *sizes)
               for table in (fast, walk)]
        assert ids[0] == ids[1], group.name
        assert (fast.images, fast.kids, fast._products) == (walk.images, walk.kids, walk._products)
        assert fast.walks, group.name  # the walk ran, next to the lookups


def test_intern_table_products_match_mul(grig, bas, rot3, aleshin, rand4):
    # one `products` batch against one `mul` per pair on a twin table: the same ids, states,
    # memo entries, walks and slow paths, with 0 on either side, repeated pairs, and the
    # duplicate letter ids of involutions (grigorchuk's 8 letters are 4 ids)
    rng = Random("products")
    # Aleshin's group is free and rand4's slow paths are long, so their batches stay small
    for group, rounds, width in ((grig, 20, 8), (bas, 20, 8), (rot3, 12, 6), (aleshin, 4, 3),
                                 (rand4, 3, 3)):
        batch, single = decide._InternTable(group), decide._InternTable(group)
        words = [group.element([(n, e)]) for n in group.state_names for e in (1, -1)]
        letters = [batch.intern(x) for x in words]
        assert [single.intern(x) for x in words] == letters, group.name
        pool = [0, *letters]
        for _ in range(rounds):
            ps = [*rng.choices(pool, k=width), 0]
            ps.append(ps[0])
            qs = [0, *letters, rng.choice(pool), letters[0]]
            got = batch.products(ps, qs)
            assert got == [single.mul(p, q) for p in ps for q in qs], group.name
            assert (batch.images, batch.kids, batch._products) == \
                (single.images, single.kids, single._products), group.name
            assert (batch.walks, batch.slow, batch.refined) == \
                (single.walks, single.slow, single.refined), group.name
            pool += rng.sample(got, 3)
        assert batch.walks, group.name  # the batch fell back to the walk, next to its lookups

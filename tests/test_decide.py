from collections import Counter
from itertools import combinations
from random import Random

import pytest

from agroups import decide
from agroups.core import MAX_DIGITS, BoundExceeded, Element, make_group
from agroups.words import parse_word

import property_checks as pc
from oracles import (
    activity_oracle,
    activity_sequence_reference,
    canonical_key_reference,
    fixes_all_vertices,
    is_trivial_reference,
    portrait_reference,
    section_closure_reference,
)


def test_is_trivial(grig):
    assert decide.is_trivial(parse_word("a a", grig))
    assert decide.is_trivial(parse_word("b c d", grig))
    assert not decide.is_trivial(parse_word("(a b)^2", grig))
    assert decide.is_trivial(grig.identity())
    # cross-check the derived case against the level-action oracle
    assert fixes_all_vertices(parse_word("b c d", grig), 12)


def test_equals(grig, bas):
    assert decide.equals(parse_word("b", grig), parse_word("c d", grig))
    g = parse_word("a b a d", grig)
    assert decide.equals(g, g)
    ab, ba = parse_word("a b", bas), parse_word("b a", bas)
    assert not decide.equals(ab, ba)
    # witness vertex where the two differ, via the level action
    assert ab.act("1.1") == (2, 2) and ba.act("1.1") == (2, 1)


def test_canonical_key_examples(grig):
    key = decide.canonical_key
    assert key(parse_word("b c d", grig)) == key(grig.identity())
    g = parse_word("a d a b", grig)
    assert key(g) == key(g)
    words = ["a", "b", "c", "d", "1"]
    keys = {w: key(parse_word(w, grig)) for w in words}
    assert len(set(keys.values())) == 5
    # oracle: the five are pairwise non-equal
    for i, w1 in enumerate(words):
        for w2 in words[i + 1 :]:
            assert not decide.equals(parse_word(w1, grig), parse_word(w2, grig))


def test_canonical_key_orders_and_dedups(grig):
    key_a = decide.canonical_key(grig.generator("a"))
    key_b = decide.canonical_key(grig.generator("b"))
    assert (key_a < key_b) != (key_b < key_a)  # totally ordered
    assert len({key_a, key_b}) == 2  # hashable


def _fresh(group):
    """An equal GroupDef whose letter closures are not built yet."""
    return make_group(group.degree, [(n, *group.state(n)) for n in group.state_names], group.name)


def _letters(group):
    return [group.element([(n, e)]) for n in group.state_names for e in (1, -1)]


def test_letter_keys_match_their_own_closures(grig, bas, odo, rot3, aleshin, rand4):
    # a letter's key is numbered in whichever letter closure its group built first
    rng = Random(18)
    for group in (grig, bas, odo, rot3, aleshin, rand4):
        want = {x.letters: canonical_key_reference(x) for x in _letters(group)}
        for _ in range(4):
            letters = _letters(_fresh(group))
            rng.shuffle(letters)
            assert {x.letters: decide.canonical_key(x) for x in letters} == want, group.name
        assert {x.letters: decide.canonical_key(x) for x in _letters(group)} == want, group.name


def test_intern_table_splits_letters_as_equals(grig, bas, odo, rot3, aleshin, rand4):
    # into an empty table and into one that already holds words, in a shuffled order
    rng = Random(18)
    for group in (grig, bas, odo, rot3, aleshin, rand4):
        for words in (0, 3):
            group = _fresh(group)
            table = decide._InternTable(group)
            for _ in range(words):
                table.intern(pc.random_word(group, rng, 2))
            letters = _letters(group)
            rng.shuffle(letters)
            ids = [table.intern(x) for x in letters]
            assert all(ids), group.name
            for (x, p), (y, q) in combinations(zip(letters, ids), 2):
                assert (p == q) == decide.equals(x, y), (group.name, x, y)
                assert table.mul(p, q) == table.intern(x * y), (group.name, x, y)


def test_letters_enter_a_table_by_their_closures(grig, bas, monkeypatch):
    # grigorchuk's letters have the closures {a, 1} and {b, a, c, d, 1}, and only the
    # cycle b -> c -> d -> b takes a slow path; basilica's letters are not involutions,
    # so both {a, b, 1} and {a^-1, b^-1, 1} are absorbed, each with a cycle
    expanded = Counter()
    coords = Element.coords

    def counting(self):
        expanded[self.letters] += 1
        return coords(self)

    monkeypatch.setattr(Element, "coords", counting)
    for group, slow in ((grig, 1), (bas, 2)):
        group = _fresh(group)
        first, second = decide._InternTable(group), decide._InternTable(group)
        ids = [first.intern(x) for x in _letters(group)]
        assert first.slow == slow and expanded, group.name
        expanded.clear()
        assert [second.intern(x) for x in _letters(group)] == ids, group.name
        assert second.slow == slow and not expanded, group.name  # the group keeps the closures


def test_letter_closure_is_capped(grig, monkeypatch):
    # b's closure holds 5 words; nothing is kept when it trips the cap, so a retry trips it too
    group = _fresh(grig)
    monkeypatch.setattr(decide, "CLOSURE_CAP", 3)
    b = group.generator("b")
    with pytest.raises(BoundExceeded) as earlier:
        canonical_key_reference(b)
    for call in (lambda: decide.canonical_key(b), lambda: decide._InternTable(group).intern(b)) * 2:
        with pytest.raises(BoundExceeded) as caught:
            call()
        assert str(caught.value) == str(earlier.value) == "section closure exceeded 3 nodes"
    monkeypatch.undo()
    assert decide.canonical_key(b) == canonical_key_reference(b)


def test_order(grig, bas, odo):
    assert decide.order(grig.generator("a"), 10).value == 2
    ad = parse_word("a d", grig)
    assert decide.order(ad, 10).value == 4
    # brute-force cross-check to depth 12: (ad)^2 still moves, (ad)^4 does not
    assert not fixes_all_vertices(ad ** 2, 12)
    assert fixes_all_vertices(ad ** 4, 12)
    res = decide.order(bas.generator("a"), 64)
    assert res.value is None and str(res) == "exceeds bound 64"
    assert decide.order(odo.generator("a"), 32).value is None
    assert decide.order(grig.identity(), 5).value == 1
    with pytest.raises(ValueError):
        decide.order(grig.generator("a"), 0)


def test_portrait(grig, bas):
    p = decide.portrait(grig.generator("a"), 1)
    assert str(p.perm) == "(1 2)"
    assert all(decide.is_trivial(c.residual) for c in p.children)

    p = decide.portrait(grig.identity(), 3)

    def all_id(node):
        if node.residual is not None:
            return decide.is_trivial(node.residual)
        return node.perm.is_identity() and all(all_id(c) for c in node.children)

    assert all_id(p) and p.depth == 3

    p = decide.portrait(bas.generator("b"), 1)
    assert str(p.perm) == "(1 2)"
    # residuals indexed by vertex: the active slot sits at the vertex sent to 2
    assert decide.equals(p.children[0].residual, bas.generator("a"))
    assert decide.is_trivial(p.children[1].residual)


def test_portrait_leaf_cap(grig):
    cap = decide.PORTRAIT_LEAF_CAP
    assert cap == 4096
    assert decide.portrait(grig.generator("a"), 12).depth == 12
    for depth in (13, 1200, 10**9):
        with pytest.raises(BoundExceeded):
            decide.portrait(grig.generator("a"), depth)
    rot = make_group(3, [("r", ("1", "1", "1"), ((1, 2, 3),))])
    assert decide.portrait(rot.generator("r"), 7).depth == 7
    with pytest.raises(BoundExceeded):
        decide.portrait(rot.generator("r"), 8)
    # degree 1 counts as degree 2, which also bounds the recursion depth
    one = make_group(1, [("x", ("x",), None)])
    assert decide.portrait(one.generator("x"), 12).depth == 12
    with pytest.raises(BoundExceeded):
        decide.portrait(one.generator("x"), 2000)


def test_order_and_activity_caps(bas):
    a = bas.generator("a")  # infinite order, one active vertex per level
    bound, levels = decide.ORDER_BOUND_CAP, decide.ACTIVITY_LEVELS_CAP
    assert (bound, levels) == (16_384, 4096)
    assert decide.order(a, bound) == decide.OrderResult(None, bound)
    assert decide.activity_sequence(a, levels) == (1,) * (levels + 1)
    for bound in (bound + 1, 10**9):
        with pytest.raises(BoundExceeded):
            decide.order(a, bound)
    for levels in (levels + 1, 10**9):
        with pytest.raises(BoundExceeded):
            decide.activity_sequence(a, levels)


def test_activity_counts_have_at_most_max_digits():
    # s = (s, ..., s) (1 2) over 12 letters is active at all 12^n vertices of level n;
    # 12^593 has 640 digits, and 12^594 could not be printed whole by every Python
    s = make_group(12, [("s", ("s",) * 12, ((1, 2),))], name="wide").generator("s")
    counts = decide.activity_sequence(s, 593)
    assert counts[-1] == 12 ** 593 and len(str(counts[-1])) == MAX_DIGITS
    with pytest.raises(BoundExceeded, match=f"^the activity count of level 594 has over {MAX_DIGITS} digits"):
        decide.activity_sequence(s, decide.ACTIVITY_LEVELS_CAP)


def test_portrait_consistency(grig, bas):
    rng = Random(3)
    for group in (grig, bas):
        for _ in range(15):
            letters = [
                (rng.choice(group.state_names), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))
            ]
            g = group.element(letters)
            p = decide.portrait(g, 3)
            for v in [(), (1,), (2,), (1, 2), (2, 2), (1, 1)]:
                node = p
                for i in v:
                    node = node.children[i - 1]
                assert node.perm == g.section(v).coords().perm


def test_activity(grig, odo):
    a = grig.generator("a")
    assert decide.activity_sequence(a, 6) == (1, 0, 0, 0, 0, 0, 0)
    assert decide.activity_sequence(grig.identity(), 4) == (0, 0, 0, 0, 0)
    b = grig.generator("b")
    got = decide.activity_sequence(b, 8)
    assert got == (1, 2, 2, 1, 2, 2, 1, 2, 2)
    # derived independently by expansion over the level-action oracle
    assert got == activity_oracle(b, 8)
    # the adding machine touches exactly one vertex per level
    assert decide.activity_sequence(odo.generator("a"), 10) == (1,) * 11


def test_activity_recursion_invariant(grig, bas):
    rng = Random(11)
    for group in (grig, bas):
        d = group.degree
        for _ in range(10):
            letters = [
                (rng.choice(group.state_names), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 8))
            ]
            g = group.element(letters)
            alpha = decide.activity_sequence(g, 6)
            for n in range(1, 7):
                assert alpha[n] <= d * alpha[n - 1]
            sections = [
                s for s in g.coords().slots if not decide.is_trivial(s)
            ]
            for n in range(1, 7):
                total = sum(
                    decide.activity_sequence(s, n - 1)[n - 1] for s in sections
                )
                assert alpha[n] == total


def test_section_closure(grig, bas):
    sc = decide.section_closure(grig.generator("b"))
    assert sc.size == 5
    expected = [parse_word(w, grig) for w in ["b", "a", "c", "d", "1"]]
    for want in expected:
        assert any(decide.equals(e, want) for e in sc.elements)
    assert sc.elements[0] == grig.generator("b")

    sc = decide.section_closure(grig.identity())
    assert sc.size == 1 and sc.edges == ((0, 0),)

    sc = decide.section_closure(bas.generator("a"))
    assert sc.size == 3
    for w in ["a", "b", "1"]:
        assert any(decide.equals(e, parse_word(w, bas)) for e in sc.elements)


def test_section_closure_edges_are_sections(grig):
    g = parse_word("a b a d", grig)
    sc = decide.section_closure(g)
    # pairwise distinct and closed under taking sections
    for i, e in enumerate(sc.elements):
        for j, f in enumerate(sc.elements):
            if i != j:
                assert not decide.equals(e, f)
        for letter in range(1, 3):
            child = sc.elements[sc.edges[i][letter - 1]]
            assert decide.equals(child, e.section((letter,)))


def test_consumers_match_their_earlier_versions(grig, bas, odo, rot3, aleshin):
    # one expansion per distinct word per call must not change what the consumers return
    rng = Random(15)
    for group, maxlen in ((grig, 24), (bas, 16), (odo, 24), (rot3, 16), (aleshin, 5)):
        for _ in range(40):
            g = pc.random_word(group, rng, maxlen)
            depth = 7 if group.degree == 2 else 4
            assert decide.portrait(g, depth) == portrait_reference(g, depth), (group.name, g)
            assert decide.activity_sequence(g, 8) == activity_sequence_reference(g, 8), (group.name, g)
            assert decide.section_closure(g) == section_closure_reference(g), (group.name, g)
            assert decide.is_trivial(g) == is_trivial_reference(g), (group.name, g)
            h = pc.random_word(group, rng, maxlen)
            commutator = g * h * g.inverse() * h.inverse()
            assert decide.is_trivial(commutator) == is_trivial_reference(commutator), (group.name, g, h)


def test_each_section_word_is_expanded_once_per_call(grig, monkeypatch):
    expanded = Counter()
    coords = Element.coords

    def counting(self):
        expanded[self.letters] += 1
        return coords(self)

    monkeypatch.setattr(Element, "coords", counting)
    b = grig.generator("b")
    g = parse_word("(a b a c a d)^3 b a", grig)
    for call, earlier in (
        (lambda: decide.activity_sequence(b, 12), lambda: activity_sequence_reference(b, 12)),
        (lambda: decide.portrait(g, 10), lambda: portrait_reference(g, 10)),
    ):
        expanded.clear()
        want = earlier()
        assert max(expanded.values()) > 1  # the earlier version expands some words again
        expanded.clear()
        assert call() == want
        assert set(expanded.values()) == {1}, expanded.most_common(3)


def test_expanded_letters_are_capped(aleshin):
    # Aleshin's group is free, so sections of (a^-1 b)^k stay about 2k letters long
    g = parse_word("(a^-1 b)^256", aleshin)
    message = f"section words of one call exceeded {decide.LETTER_CAP} letters"
    for call in (
        lambda: decide.section_closure(g),
        lambda: decide.portrait(g, 12),
        lambda: decide.activity_sequence(g, 40),
    ):
        with pytest.raises(BoundExceeded, match=message):
            call()


def test_intern_table_slow_path_is_linear(aleshin, monkeypatch):
    # (a b)^k in the free Aleshin group has 9^k states, all on cycles. Each slow path
    # refines its new states with the ids they reach, not one canonical key per class
    # (81, 6,642 and 538,083 key rows for k = 1..3)
    table = decide._InternTable(aleshin)
    x = power = table.intern(parse_word("a b", aleshin))
    sizes = [(len(table.images), table.refined)]
    for _ in range(3):
        power = table.mul(power, x)
        sizes.append((len(table.images), table.refined))
    assert sizes == [(10, 10), (91, 101), (820, 921), (7381, 8302)]
    monkeypatch.setattr(decide, "REFINE_CAP", 900)
    with pytest.raises(BoundExceeded, match="^intern table refinement exceeded 900 nodes$"):
        decide.order(parse_word("a b", aleshin), 8)

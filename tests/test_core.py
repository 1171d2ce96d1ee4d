import pytest

from agroups import decide
from agroups.core import (
    BadPerm,
    BadVertex,
    DuplicateState,
    EmptyGroup,
    MixedGroups,
    Perm,
    UnknownState,
    make_group,
)
from agroups.words import parse_word


def test_perm_basics():
    p = Perm((2, 1))
    assert p(1) == 2 and p(2) == 1
    assert (p * p).is_identity()
    assert p.inv() == p
    assert str(p) == "(1 2)"
    assert str(Perm.identity(3)) == "id"
    q = Perm.from_cycles(4, [(1, 2), (3, 4)])
    assert q.image == (2, 1, 4, 3)
    # composition applies the right factor first
    r = Perm.from_cycles(3, [(1, 2)]) * Perm.from_cycles(3, [(2, 3)])
    assert r.image == (2, 3, 1)


def test_perm_rejects_non_bijections():
    with pytest.raises(BadPerm):
        Perm((1, 1))
    with pytest.raises(BadPerm):
        Perm.from_cycles(2, [(1, 3)])
    with pytest.raises(BadPerm):
        Perm.from_cycles(2, [(1, 1)])
    # products are built unchecked, so mismatched degrees are refused up front
    with pytest.raises(BadPerm):
        Perm((2, 1)) * Perm.identity(3)
    with pytest.raises(BadPerm):
        Perm.identity(3) * Perm((2, 1))


def test_make_group_validates(grig):
    assert grig.state_names == ("a", "b", "c", "d")
    with pytest.raises(UnknownState):
        make_group(2, {"a": (("1", "z"), None)})
    with pytest.raises(DuplicateState):
        make_group(2, [("a", ("1", "1"), None), ("a", ("1", "1"), None)])
    with pytest.raises(BadPerm):
        make_group(2, {"a": (("1", "1"), ((1, 3),))})
    with pytest.raises(EmptyGroup):
        make_group(2, {})
    with pytest.raises(UnknownState):
        make_group(2, {"a": (("1",), None)})  # wrong slot count


def test_element_reduction_and_ops(grig, bas):
    a, b = grig.generator("a"), grig.generator("b")
    assert (b * b.inverse()).letters == ()
    assert len(a * a) == 2  # involutions reduce only semantically
    w = parse_word("a b^-1 c", grig)
    assert str(w.inverse()) == "c^-1 b a^-1"
    assert (w * w.inverse()).letters == ()
    assert str(a ** 3) == "a a a"
    assert (a ** -2).letters == (("a", -1), ("a", -1))
    with pytest.raises(MixedGroups):
        a * bas.generator("a")
    with pytest.raises(MixedGroups):
        decide.equals(a, bas.generator("a"))


def test_coords_reproduce_identities(grig, bas):
    # multiplication: coords(c * a) = ((a, d), swap)
    cs = (grig.generator("c") * grig.generator("a")).coords()
    assert [str(s) for s in cs.slots] == ["a", "d"] and str(cs.perm) == "(1 2)"
    # basilica b^2 = ((a, a), id)
    cs = parse_word("b b", bas).coords()
    assert [str(s) for s in cs.slots] == ["a", "a"] and cs.perm.is_identity()
    # b^-1 a b = ((a^-1 b a, 1), id)
    cs = parse_word("b^-1 a b", bas).coords()
    assert decide.equals(cs.slots[0], parse_word("a^-1 b a", bas))
    assert decide.is_trivial(cs.slots[1]) and cs.perm.is_identity()
    # (a b)^2 = ((c a, a c), id)
    cs = parse_word("(a b)^2", grig).coords()
    assert decide.equals(cs.slots[0], parse_word("c a", grig))
    assert decide.equals(cs.slots[1], parse_word("a c", grig))
    assert cs.perm.is_identity()
    # identity element: all slots trivial, identity perm
    cs = grig.identity().coords()
    assert all(s.letters == () for s in cs.slots) and cs.perm.is_identity()


def test_inverse_law_on_random_words(grig, bas):
    from random import Random

    rng = Random(7)
    for group in (grig, bas):
        names = group.state_names
        for _ in range(40):
            letters = [
                (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))
            ]
            g = group.element(letters)
            assert decide.is_trivial(g * g.inverse())
            assert g.inverse().coords().perm == g.coords().perm.inv()


def test_sections(grig, bas):
    b = bas.generator("b")
    # b carries its active slot to the vertex it maps onto letter 1
    assert decide.equals(b.section("1"), bas.generator("a"))
    assert decide.is_trivial(b.section("2"))
    assert grig.identity().section("2.1.2").letters == ()
    got = parse_word("(a b a d)^2", grig).section("2")
    assert decide.equals(got, parse_word("a b a b", grig))
    # section at the root is the element itself
    w = parse_word("a b c", grig)
    assert w.section("") == w
    # section chain on a fixed example
    assert decide.equals(w.section((2, 1)), w.section((2,)).section((1,)))


def test_act(grig, bas):
    a = grig.generator("a")
    assert a.act("1.1") == (2, 1)
    assert grig.identity().act("2.1.2") == (2, 1, 2)
    assert bas.generator("b").act("1") == (2,)
    assert a.act("") == ()
    with pytest.raises(BadVertex):
        a.act("3.1")
    with pytest.raises(BadVertex):
        a.act("x")
    with pytest.raises(BadVertex):
        grig.vertex((0,))


def test_vertex_parsing(grig):
    assert grig.vertex("") == ()
    assert grig.vertex(".") == ()
    assert grig.vertex("2.1.1") == (2, 1, 1)
    assert grig.vertex((1, 2)) == (1, 2)
    assert list(grig.vertices(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_degree_three_convention(rot3):
    # non-commuting root permutations pin the product order: u acts first
    r, u = rot3.generator("r"), rot3.generator("u")
    assert (r * u).coords().perm.image == (3, 2, 1)
    assert (u * r).coords().perm.image == (1, 3, 2)
    assert (r * u).act("1") == (3,) and r.act(u.act("1")) == (3,)
    # recursion through a shifted slot: w = (r, t, 1) with the (1 2) swap
    w = rot3.generator("w")
    assert w.act("1") == (2,)
    assert decide.equals(w.section("1"), rot3.generator("t"))
    assert decide.equals(w.section("2"), rot3.generator("r"))
    assert w.section("3").letters == ()


def test_groupdef_equality_is_structural(grig):
    twin = make_group(
        2,
        [
            ("a", ("1", "1"), ((1, 2),)),
            ("b", ("a", "c"), None),
            ("c", ("a", "d"), None),
            ("d", ("1", "b"), None),
        ],
        name="grigorchuk",
    )
    assert twin == grig
    assert twin.generator("a") * grig.generator("b") is not None  # same group

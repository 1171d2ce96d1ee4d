import time

import pytest

from agroups import certify, core, decide, subgroups
from agroups.core import (
    CELL_CAP,
    MAX_DIGITS,
    MAX_WORD_LETTERS,
    VERTEX_CAP,
    BadArgument,
    BadPerm,
    BadStateName,
    BadVertex,
    BoundExceeded,
    DuplicateState,
    EmptyGroup,
    EngineError,
    MixedGroups,
    Perm,
    UnknownGenerator,
    UnknownState,
    make_group,
)
from agroups.subgroups import GenSet
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
    # letters that are not ints are refused where the range is checked, not in a later TypeError
    for image in ([2.0, 1.0], ["1"], ["2", 1]):
        with pytest.raises(BadPerm):
            Perm(image)
    for cycle in ((1, 2.0), (1, "2")):
        with pytest.raises(BadPerm):
            Perm.from_cycles(2, [cycle])
        with pytest.raises(BadPerm):
            make_group(2, {"a": ((), [cycle])})
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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g: g.generator("z"), UnknownGenerator, "no generator named 'z' in group 'grigorchuk'"),
        (lambda g: make_group(0, {"a": ((), None)}), EngineError, "alphabet size must be at least 1, got 0"),
        (lambda g: make_group(2, {"1a": (("1", "1"), None)}), BadStateName, "invalid state name '1a'"),
        (lambda g: make_group(2, {"a": (("1", "1"), Perm((2, 3, 1)))}), BadPerm,
         "state 'a': permutation degree 3 != 2"),
        (lambda g: g.element([("a", 2)]), EngineError, "letter exponent must be +1 or -1, got 2"),
        (lambda g: make_group(2, {f"s{i}": (("1", "1"), None) for i in range(CELL_CAP // 2 + 1)}),
         BoundExceeded, f"{CELL_CAP // 2 + 1} states x 2 letters exceed {CELL_CAP} cells"),
        (lambda g: make_group(VERTEX_CAP, [("a", (), None), ("b", (), None)]), BoundExceeded,
         f"2 states x {VERTEX_CAP} letters exceed {CELL_CAP} cells"),
    ],
    ids=["generator", "alphabet", "state name", "perm degree", "exponent", "cells", "wide cells"],
)
def test_construction_errors_name_their_input(grig, call, error, message):
    # the cell cap is checked before any state is built, so its slots are not read
    with pytest.raises(error) as excinfo:
        call(grig)
    assert str(excinfo.value) == message and type(excinfo.value) is error


def test_cell_cap_admits_a_table_at_the_cap():
    d = CELL_CAP // 2
    group = make_group(d, [("a", ("b",) + ("1",) * (d - 1), ((1, 2),)), ("b", ("1",) * d, None)])
    assert len(group.state_names) * group.degree == CELL_CAP
    assert group.generator("a").act((1, 2)) == (2, 2)


def test_errors_clip_echoed_input(grig):
    # each echoed its input whole: a 3,000-letter image or cycle, a 601-digit letter or a
    # 5,000-character name (a letter of over MAX_DIGITS digits is not written at all)
    long = "x" * 5000
    other = make_group(2, {"a": (("1", "1"), ((1, 2),))}, name=long)
    cases = [
        (BadPerm, lambda: Perm((1,) * 3000)),
        (BadPerm, lambda: Perm.from_cycles(3000, [tuple(range(1, 3001)) + (1,)])),
        (BadPerm, lambda: Perm.from_cycles(2, [(1, 10**600)])),
        (UnknownState, lambda: grig.state(long)),
        (UnknownState, lambda: grig.element([(long, 1)])),
        (MixedGroups, lambda: grig.generator("a") * other.generator("a")),
        (MixedGroups, lambda: decide.equals(grig.generator("a"), other.generator("a"))),
    ]
    for error, call in cases:
        with pytest.raises(error) as excinfo:
            call()
        assert len(str(excinfo.value)) < 200 and "…" in str(excinfo.value), str(excinfo.value)


HUGE = 10**5000  # over the 4,300 digits Python turns into text


# (call of the group and an int, an out-of-range int of at most MAX_DIGITS digits);
# each call is made again with HUGE of the same sign
OUT_OF_RANGE = {
    "ball radius": (lambda g, n: certify.ball_sizes(GenSet.from_group(g), n), decide.BALL_CAP + 1),
    "ball radius -": (lambda g, n: certify.ball_sizes(GenSet.from_group(g), n), -1),
    "order": (lambda g, n: decide.order(g.generator("a"), n), decide.ORDER_BOUND_CAP + 1),
    "portrait": (lambda g, n: decide.portrait(g.generator("a"), n), 13),
    "portrait -": (lambda g, n: decide.portrait(g.generator("a"), n), -1),
    "activity": (lambda g, n: decide.activity_sequence(g.generator("a"), n), decide.ACTIVITY_LEVELS_CAP + 1),
    "activity -": (lambda g, n: decide.activity_sequence(g.generator("a"), n), -1),
    "orbits": (lambda g, n: subgroups.orbits(GenSet.from_group(g), n), subgroups.ORBIT_DEPTH_CAP + 1),
    "orbits -": (lambda g, n: subgroups.orbits(GenSet.from_group(g), n), -1),
    "stab": (lambda g, n: subgroups.stabilizer_gens(GenSet.from_group(g), n), 24),
    "stab -": (lambda g, n: subgroups.stabilizer_gens(GenSet.from_group(g), n), -1),
    "freesemigroup": (lambda g, n: certify.free_semigroup_check(GenSet.from_group(g), n), 4 * MAX_DIGITS + 1),
    "freesemigroup -": (lambda g, n: certify.free_semigroup_check(GenSet.from_group(g), n), -1),
    "rist -": (lambda g, n: subgroups.rist_elements(GenSet.from_group(g), "1", n), -1),
    "commutator slot": (lambda g, n: subgroups.commutator_witness(g.generator("b"), n, 1, g.generator("a")), 3),
    "act": (lambda g, n: g.generator("a").act((3, n)), 5),
    "alphabet": (lambda g, n: make_group(n, {"a": ((), None)}), VERTEX_CAP + 1),
    "alphabet -": (lambda g, n: make_group(n, {"a": ((), None)}), -1),
    "cycle letter": (lambda g, n: Perm.from_cycles(2, [(1, n)]), 3),
    "exponent": (lambda g, n: g.element([("a", n)]), 2),
}


@pytest.mark.parametrize("call, small", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_huge_ints_raise_what_small_ones_do(grig, call, small):
    # each ended in ValueError: Exceeds the limit (4300 digits) for integer string conversion
    with pytest.raises(EngineError) as expected:
        call(grig, small)
    with pytest.raises(EngineError) as excinfo:
        call(grig, HUGE if small > 0 else -HUGE)
    message = str(excinfo.value)
    assert type(excinfo.value) is type(expected.value), message
    assert len(message) <= 200 and f"<over {MAX_DIGITS} digits>" in message, message


def test_huge_ints_are_shown_by_sign_and_size(grig):
    gens = GenSet.from_group(grig)
    with pytest.raises(BadArgument) as excinfo:
        certify.ball_sizes(gens, -HUGE)
    assert str(excinfo.value) == "radius must be nonnegative, got -<over 640 digits>"
    # an int of MAX_DIGITS digits is still written, clipped
    assert core._shown(10**MAX_DIGITS - 1) == "9" * 59 + "…"
    assert core._shown(10**MAX_DIGITS) == "<over 640 digits>"


def test_within_echoes_the_cap_only():
    assert core._within(7, 7, "ball", "elements") == 7
    with pytest.raises(BoundExceeded) as excinfo:
        core._within(8, 7, "ball", "elements")
    assert str(excinfo.value) == "ball exceeded 7 elements"
    # a run-time count is not echoed, so one of 5,000 digits raises no ValueError
    with pytest.raises(BoundExceeded) as excinfo:
        core._within(HUGE, 7, "ball", "elements")
    assert str(excinfo.value) == "ball exceeded 7 elements"


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


def test_powers_are_bounded(grig):
    # a power past the word-letter cap is refused before its letters are built
    b, ab = grig.generator("b"), parse_word("a b", grig)
    for g, n in ((b, 10**9), (ab, -(10**30)), (ab, MAX_WORD_LETTERS // 2 + 1)):
        start = time.perf_counter()
        with pytest.raises(BoundExceeded, match=f"over {MAX_WORD_LETTERS} letters"):
            g ** n
        assert time.perf_counter() - start < 0.1
    assert len(b ** MAX_WORD_LETTERS) == MAX_WORD_LETTERS
    assert (ab ** 0).letters == () and (ab ** -1) == ab.inverse()
    assert str(ab ** -2) == "b^-1 a^-1 b^-1 a^-1"
    # the identity stays the identity, however large the exponent
    for n in (0, 3, -3, 10**30, -(10**30)):
        assert (grig.identity() ** n).letters == ()


def test_vertex_descent_is_bounded(grig, monkeypatch):
    # act and section walk each letter down the vertex: letters x depth is bounded by the
    # word-letter cap (lowered here), checked before the walk
    monkeypatch.setattr(core, "MAX_WORD_LETTERS", 64)
    g = parse_word("(b c)^4", grig)
    assert g.act("2." * 7 + "2") == (2,) * 8 and str(g.section((2,) * 8)) == "d b d b d b d b"
    for call in (g.act, g.section):
        with pytest.raises(BoundExceeded, match="^a 8-letter word down a 9-letter vertex takes over 64 "):
            call((2,) * 9)
    assert grig.identity().act((2,) * 10**6) == (2,) * 10**6  # no letter walks


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
    # letters that are not ints are refused with the range check, before any action
    a = grig.generator("a")
    for v in ((1.0,), ("1",), (1, 2.0)):
        with pytest.raises(BadVertex, match="^letter .* outside 1..2 in vertex "):
            grig.vertex(v)
        with pytest.raises(BadVertex):
            a.act(v)
    assert list(grig.vertices(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_vertices_cap(grig):
    # levels are refused before they are built; degree 1 counts as 2, as in portraits
    assert VERTEX_CAP == 100_000
    assert sum(1 for _ in grig.vertices(16)) == 65_536
    line = make_group(1, {"x": (("x",), None)})
    assert list(line.vertices(16)) == [(1,) * 16]
    for group, level in ((grig, 17), (grig, 10**9), (line, 17), (line, 10**9)):
        with pytest.raises(BoundExceeded):
            next(group.vertices(level))


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

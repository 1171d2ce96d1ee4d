"""The package's records: tuples where they are values, `core._Record` where not.

Each is built positionally, equal and hashed by value, refuses assignment
and is written as ``Name(field=value, ...)``.
"""

from string import Formatter

import pytest

from agroups import certify, decide, subgroups
from agroups.core import EngineError, MixedGroups, Perm
from agroups.subgroups import GenSet

# name -> (class, fields in constructor order, values from the group grigorchuk)
RECORDS = {
    "SectionClosure": (
        decide.SectionClosure, ("element", "elements", "edges"),
        lambda g: (g.generator("a"), (g.generator("a"), g.identity()), ((1, 1), (1, 1))),
    ),
    "OrderResult": (decide.OrderResult, ("value", "bound"), lambda g: (2, 64)),
    "Portrait": (
        decide.Portrait, ("perm", "children", "residual"),
        lambda g: (Perm((2, 1)), (decide.Portrait(None, (), g.identity()),) * 2, None),
    ),
    "CheckResult": (
        certify.CheckResult, ("assertion", "passed", "detail"),
        lambda g: (certify.Trivial("a^2"), False, "no"),
    ),
    "Trivial": (certify.Trivial, ("word",), lambda g: ("a^2",)),
    "Equal": (certify.Equal, ("left", "right"), lambda g: ("b c", "d")),
    "CoordsIs": (
        certify.CoordsIs, ("word", "slots", "cycles"), lambda g: ("a", ("1", "1"), ((1, 2),)),
    ),
    "InLevelStab": (certify.InLevelStab, ("level", "word"), lambda g: (1, "b")),
    "SupportedOnlyAt": (certify.SupportedOnlyAt, ("vertex", "word"), lambda g: ("2", "(a d)^4")),
    "Transitive": (certify.Transitive, ("depth",), lambda g: (3,)),
    "ProjectionWitness": (
        certify.ProjectionWitness, ("vertex", "stab_word", "target"), lambda g: ("1", "b", "a"),
    ),
    "MemberByExpression": (
        certify.MemberByExpression, ("word", "expression"), lambda g: ("b", "c d"),
    ),
    "DistinctPositiveWords": (
        certify.DistinctPositiveWords, ("gen_words", "maxlen", "expected"),
        lambda g: (("a", "b"), 2, 6),
    ),
    "Certificate": (
        certify.Certificate, ("name", "group_name", "assertions"),
        lambda g: ("s", "grigorchuk", (certify.Trivial("a^2"),)),
    ),
    "Report": (
        certify.Report, ("suite", "group", "results", "runtime"),
        lambda g: ("s", "grigorchuk", (certify.CheckResult(certify.Trivial("a^2"), True),), 0.5),
    ),
    "FreeSemigroupResult": (
        certify.FreeSemigroupResult, ("maxlen", "total_words", "distinct", "collision"),
        lambda g: (2, 6, 5, (g.generator("b"), g.generator("c") * g.generator("d"))),
    ),
    "GenSet": (
        GenSet, ("group", "names", "elements"),
        lambda g: (g, ("a", "b"), (g.generator("a"), g.generator("b"))),
    ),
    "OrbitLevel": (
        subgroups.OrbitLevel, ("level", "blocks", "parent"), lambda g: (1, (((1,), (2,)),), (0,)),
    ),
    "OrbitTable": (
        subgroups.OrbitTable, ("gens", "depth", "levels"),
        lambda g: (GenSet.from_group(g), 0, (subgroups.OrbitLevel(0, (((),),), ()),)),
    ),
    "StabilizerGens": (
        subgroups.StabilizerGens, ("gens", "level", "vertex", "generators", "transversal"),
        lambda g: (GenSet.from_group(g), None, (1,), (g.generator("b"),), (((1,), g.identity()),)),
    ),
    "OrbitChainReport": (
        subgroups.OrbitChainReport,
        ("vertex", "table", "counts", "stabilized", "stable_level", "chain"),
        lambda g: ((2,), None, (1, 1), True, 0, (((),),)),
    ),
    "CommutatorWitness": (
        subgroups.CommutatorWitness,
        ("egroup", "g", "h", "commutator", "vertex", "target", "verified"),
        lambda g: (g, g.generator("b"), g.generator("c"), g.generator("b") * g.generator("c"),
                   (1, 2), g.identity(), True),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_built_compared_and_written_by_its_fields(name, grig):
    cls, fields, make = RECORDS[name]
    values = make(grig)
    record = cls(*values)
    assert tuple(getattr(record, f) for f in fields) == values
    assert record == cls(*values)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{name}({shown})"  # every field, by name, in order
    with pytest.raises(TypeError):
        cls(*values, None)
    assert hash(record) == hash(cls(*values))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    assert tuple(getattr(record, f) for f in fields) == values
    # a tuple subclass without `__slots__ = ()` gets a __dict__, which takes any attribute
    assert not isinstance(record, tuple) or not hasattr(record, "__dict__")


def test_assertion_fields_are_the_names_in_its_form():
    subclasses = certify.Assertion.__subclasses__()
    assert {cls.__name__ for cls in subclasses} <= set(RECORDS)
    assert len(subclasses) == 9
    for cls in subclasses:
        names = tuple(name for _, name, _, _ in Formatter().parse(cls.form) if name is not None)
        assert cls._fields == names == RECORDS[cls.__name__][1], cls
        assert "evaluate" in vars(cls), cls


def test_genset_checks_its_elements_and_counts_them(grig, bas):
    a, b = grig.generator("a"), grig.generator("b")
    assert len(GenSet(grig, ("a", "b"), (a, b))) == 2
    assert len(GenSet.from_group(grig)) == 4
    with pytest.raises(EngineError, match="must be nonempty"):
        GenSet(grig, (), ())
    with pytest.raises(EngineError, match="differ in length"):
        GenSet(grig, ("a",), (a, b))
    with pytest.raises(MixedGroups):
        GenSet(grig, ("a", "b"), (a, bas.generator("b")))


def test_record_properties(grig):
    assert str(decide.OrderResult(2, 64)) == "2"
    assert str(decide.OrderResult(None, 64)) == "exceeds bound 64"
    assert decide.OrderResult(2, 64).exact and not decide.OrderResult(None, 64).exact
    assert decide.section_closure(grig.generator("b")).size == 5  # b, a, c, 1, d
    assert decide.portrait(grig.generator("a"), 3).depth == 3
    table = subgroups.orbits(GenSet.from_group(grig), 2)
    assert table.counts == (1, 1, 1)
    assert table.level(2).count == 1 and table.level(2).block_of((2, 1)) == 0
    with pytest.raises(KeyError):
        table.level(1).block_of((3,))

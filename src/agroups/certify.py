"""Certificate suites: machine-checkable assertion lists over one group.

A certificate is a list of assertions (identities, coordinate claims,
stabilizer membership, support claims, transitivity, projection and
normal-closure witnesses, positive-word distinctness counts).  Running a
suite evaluates every assertion with the engine and reports pass/fail per
assertion; the suite passes iff all do.

This module also carries the desk-scale growth experiments: positive-word
distinctness counting and Cayley-ball sizes, both deduplicated through
the interned automaton ids of :mod:`agroups.decide`.
"""

from __future__ import annotations

import time
from string import Formatter
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from . import decide, subgroups
from .core import BoundExceeded, Element, EngineError, GroupDef, Perm
from .core import MAX_DIGITS, _Record, _count, _printable, _shown, _within, format_cycles, format_vertex
from .subgroups import GenSet
from .words import parse_word

__all__ = [
    "Assertion",
    "Certificate",
    "CheckResult",
    "CoordsIs",
    "DistinctPositiveWords",
    "Equal",
    "FreeSemigroupResult",
    "InLevelStab",
    "MemberByExpression",
    "ProjectionWitness",
    "Report",
    "SupportedOnlyAt",
    "Transitive",
    "Trivial",
    "UnknownGroup",
    "ball_sizes",
    "free_semigroup_check",
    "run_suite",
]


class UnknownGroup(EngineError):
    """The certificate names a different group than the one supplied."""


class CheckResult(NamedTuple):
    assertion: "Assertion"
    passed: bool
    detail: str = ""


# How a part of a form is written where str() does not do; `formats` reads every part.
_WRITE = {
    "tuple": lambda words: f"({', '.join(words)})",
    "cycles": lambda cycles: format_cycles(cycles or ()),  # None = identity
}


class Assertion(_Record):
    """Base class; subclasses set `kind` and `form` and implement `evaluate`.

    `form` is the line after the keyword: ``{field}`` or ``{field:part}``
    for each field in constructor order (a word if no part is named), and
    the text between them.  The fields are the names in `form`, so a
    subclass declares none.  `describe` writes the line and
    `formats.parse_certificate` reads it, with the parts that `formats` lists."""

    kind = "assertion"
    form = ""
    layout = ()  # (text before, field, part) for each field of `form`

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.layout = tuple(
            (text, name, part or "word") for text, name, part, _ in Formatter().parse(cls.form)
        )
        cls._fields = tuple(name for _, name, _ in cls.layout)

    def describe(self) -> str:
        return self.kind + " " + "".join(
            text + _WRITE.get(part, str)(getattr(self, name)) for text, name, part in self.layout
        )

    def evaluate(self, group: GroupDef) -> CheckResult:
        raise NotImplementedError

    def _result(self, passed: bool, detail: str = "") -> CheckResult:
        return CheckResult(self, passed, "" if passed else detail)


class Trivial(Assertion):
    kind = "trivial"
    form = "{word}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        return self._result(decide.is_trivial(g), f"{self.word} is not trivial")


class Equal(Assertion):
    kind = "equal"
    form = "{left} = {right}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.left, group)
        h = parse_word(self.right, group)
        return self._result(
            decide.equals(g, h),
            f"{self.left} and {self.right} denote different automorphisms",
        )


class CoordsIs(Assertion):
    """Slot tuple compared semantically, root permutation compared exactly;
    `cycles` None is the identity."""

    kind = "coords"
    form = "{word} = {slots:tuple} {cycles:cycles}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        cs = g.coords()
        want_perm = Perm.from_cycles(group.degree, self.cycles or ())
        if len(self.slots) != group.degree:
            return self._result(False, f"expected {group.degree} slots")
        passed = cs.perm == want_perm and all(
            decide.equals(got, parse_word(want_text, group))
            for got, want_text in zip(cs.slots, self.slots)
        )
        if passed:
            return self._result(True)
        return self._result(False, f"computed ({', '.join(map(str, cs.slots))}) {cs.perm}")


class InLevelStab(Assertion):
    kind = "in_level_stab"
    form = "{level:level} : {word}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        moved = subgroups.moved_vertex(parse_word(self.word, group), self.level)
        return self._result(
            moved is None,
            f"{self.word} moves {'' if moved is None else format_vertex(moved)}",
        )


class SupportedOnlyAt(Assertion):
    kind = "supported_only_at"
    form = "{vertex:vertex} : {word}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        ok = subgroups.is_supported_only_at(g, self.vertex)
        return self._result(ok, f"{self.word} is not supported only at {self.vertex}")


class Transitive(Assertion):
    kind = "transitive"
    form = "{depth:depth}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        table = subgroups.orbits(GenSet.from_group(group), self.depth)
        counts = table.counts[1:]
        return self._result(
            all(c == 1 for c in counts), f"orbit counts {table.counts}"
        )


class ProjectionWitness(Assertion):
    """`stab_word` fixes the vertex and its section there equals `target`."""

    kind = "projection_witness"
    form = "{vertex:vertex} : {stab_word} -> {target}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        u = parse_word(self.stab_word, group)
        v = group.vertex(self.vertex)
        if u.act(v) != v:
            return self._result(False, f"{self.stab_word} moves {self.vertex}")
        got = u.section(v)
        want = parse_word(self.target, group)
        return self._result(
            decide.equals(got, want),
            f"section at {self.vertex} is {got}, not {self.target}",
        )


class MemberByExpression(Assertion):
    """Normal-closure membership, certified by an explicit expression."""

    kind = "member_by_expression"
    form = "{word} = {expression}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        h = parse_word(self.expression, group)
        return self._result(
            decide.equals(g, h),
            f"{self.word} differs from the expansion of {self.expression}",
        )


class DistinctPositiveWords(Assertion):
    kind = "distinct_positive_words"
    form = "{gen_words:tuple} maxlen {maxlen:count} expect {expected:count}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        gens = GenSet.from_elements(
            [parse_word(w, group) for w in self.gen_words], self.gen_words
        )
        res = free_semigroup_check(gens, self.maxlen)
        if res.collision is not None:
            a, b = res.collision
            return self._result(False, f"collision: {a} = {b}")
        return self._result(
            res.distinct == self.expected,
            f"{res.distinct} distinct words, expected {self.expected}",
        )


class Certificate(NamedTuple):
    name: str
    group_name: Optional[str]
    assertions: Tuple[Assertion, ...]


class Report(_Record):
    """The results of one suite, in the order of its assertions, and its run time in seconds."""

    __slots__ = _fields = ("suite", "group", "results", "runtime")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> Tuple[int, int]:
        ok = sum(1 for r in self.results if r.passed)
        return ok, len(self.results)

    def lines(self) -> Iterator[str]:
        """The text report, one line at a time, formatted as it is read."""
        ok, total = self.counts
        yield (
            f"suite {self.suite} over group {self.group}: "
            f"{ok}/{total} passed in {self.runtime:.2f} s"
        )
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"  {mark}  {r.assertion.describe()}"
            if r.detail:
                line += f"  [{r.detail}]"
            yield line

    def to_payload(self) -> dict:
        # no runtime here: JSON output stays byte-identical across runs
        return {
            "suite": self.suite,
            "group": self.group,
            "passed": self.passed,
            "assertions": [
                {
                    "kind": r.assertion.kind,
                    "assertion": r.assertion.describe(),
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }


def run_suite(cert: Certificate, group: GroupDef) -> Report:
    """Evaluate every assertion in order; the report mirrors that order."""
    if cert.group_name is not None and cert.group_name != group.name:
        raise UnknownGroup(
            f"certificate {_shown(cert.name)} is for group {_shown(cert.group_name)},"
            f" got {_shown(group.name)}"
        )
    start = time.monotonic()
    results = tuple([assertion.evaluate(group) for assertion in cert.assertions])
    return Report(cert.name, group.name, results, time.monotonic() - start)


# -- growth experiments --------------------------------------------------------


class FreeSemigroupResult(NamedTuple):
    maxlen: int
    total_words: int
    distinct: int
    collision: Optional[Tuple[Element, Element]]  # first colliding pair


def _word_count(k: int, maxlen: int) -> int:
    """k + k^2 + ... + k^maxlen, the positive words of length 1..maxlen over k
    letters; BoundExceeded if that has over MAX_DIGITS digits."""
    what = f"the count of positive words up to length {_shown(maxlen)}"
    # for k >= 2 it is at least 2^maxlen, and 2^(4 MAX_DIGITS) = 16^MAX_DIGITS is
    # over MAX_DIGITS digits long, so a longer maxlen is refused before any power of k
    if k > 1 and maxlen > 4 * MAX_DIGITS:
        raise BoundExceeded(f"{what} has over {MAX_DIGITS} digits")
    return _printable(k * maxlen if k < 2 else (k ** (maxlen + 1) - k) // (k - 1), what)


def _spell(length: int, position: int, k: int) -> list:
    """The generator indices of the word at `position` among the words of
    `length` over k letters in product() order: its base-k digits."""
    idxs = [0] * length
    for i in range(length - 1, -1, -1):
        position, idxs[i] = divmod(position, k)
    return idxs


def free_semigroup_check(gens: GenSet, maxlen: int) -> FreeSemigroupResult:
    """Count pairwise distinct nonempty positive words of length <= maxlen.

    Words are enumerated in length-then-lexicographic generator order and
    deduplicated by interned id; the first collision (if any) is reported
    as (earlier word, later word).  The count stops at the first length
    that brings no new id: each of its words equals a shorter one, and so
    does each longer word.  Raises BoundExceeded if the number of words has
    over MAX_DIGITS digits, or before a length whose new words would bring
    the ids held past `decide.BALL_CAP`.
    """
    _count(maxlen, "maxlen", 1)
    total = _word_count(len(gens.elements), maxlen)
    with decide._InternTable(gens.group, "free_semigroup_check") as table:
        letters = [table.intern(e) for e in gens.elements]
        # id -> (length, position) of its first word: until the first collision the words of
        # a length come in product() order, so the position's base-k digits spell the word
        first: Dict[int, Tuple[int, int]] = {}
        collision = None
        level = [0]
        for length in range(1, maxlen + 1):
            _within(len(first) + len(level) * len(letters), decide.BALL_CAP,
                    "free semigroup words", f"ids at length {length}")
            # one id per word until the first collision, so a position names a word;
            # after it one per distinct id, as equal words have equal extensions
            level = table.products(level, letters)
            held = len(first)
            for position, x in enumerate(level):
                if x not in first:
                    first[x] = (length, position)
                elif collision is None:
                    collision = (first[x], (length, position))
            if len(first) == held:
                break
            level = list(dict.fromkeys(level))
    pair = None if collision is None else tuple(
        gens.group.element([x for i in _spell(length, position, len(letters))
                            for x in gens.elements[i].letters])
        for length, position in collision
    )
    return FreeSemigroupResult(maxlen, total, len(first), pair)


def ball_sizes(
    gens: GenSet, radius: int, max_elements: int = decide.BALL_CAP
) -> Tuple[int, ...]:
    """Sizes of word-metric balls B(0)..B(radius) over S and S^-1.

    Breadth-first search over the interned ids of S and S^-1, each distinct
    id multiplied once (see `decide._InternTable.spheres`); deterministic
    for a fixed generating set.  Raises BoundExceeded past `max_elements`,
    which may lower `decide.BALL_CAP` but not raise it.
    """
    _count(radius, "radius", 0, decide.BALL_CAP)  # no ball under the cap has more non-empty spheres
    _count(max_elements, "cap", 1, decide.BALL_CAP)
    sizes = [1]
    with decide._InternTable(gens.group, "ball_sizes") as table:
        letters = [table.intern(x) for e in gens.elements for x in (e, e.inverse())]
        for sphere in table.spheres(letters, radius, max_elements):
            sizes.append(sizes[-1] + len(sphere))
    return tuple(sizes)

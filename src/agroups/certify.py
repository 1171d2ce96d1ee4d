"""Certificate suites: machine-checkable assertion lists over one group.

A certificate is a list of assertions (identities, coordinate claims,
stabilizer membership, support claims, transitivity, projection and
normal-closure witnesses, positive-word distinctness counts).  Running a
suite evaluates every assertion with the engine and reports pass/fail per
assertion; the suite passes iff all do.

This module also carries the desk-scale growth experiments: positive-word
distinctness counting and Cayley-ball sizes, both deduplicated through
canonical keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

from . import decide, subgroups
from .core import BoundExceeded, Element, EngineError, GroupDef, Perm, format_cycles, format_vertex
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


@dataclass(frozen=True)
class CheckResult:
    assertion: "Assertion"
    passed: bool
    detail: str = ""


class Assertion:
    """Base class; subclasses implement `evaluate` and `describe`."""

    kind = "assertion"

    def describe(self) -> str:
        raise NotImplementedError

    def evaluate(self, group: GroupDef) -> CheckResult:
        raise NotImplementedError

    def _result(self, passed: bool, detail: str = "") -> CheckResult:
        return CheckResult(self, passed, "" if passed else detail)


@dataclass(frozen=True)
class Trivial(Assertion):
    word: str
    kind = "trivial"

    def describe(self) -> str:
        return f"trivial {self.word}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        return self._result(decide.is_trivial(g), f"{self.word} is not trivial")


@dataclass(frozen=True)
class Equal(Assertion):
    left: str
    right: str
    kind = "equal"

    def describe(self) -> str:
        return f"equal {self.left} = {self.right}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.left, group)
        h = parse_word(self.right, group)
        return self._result(
            decide.equals(g, h),
            f"{self.left} and {self.right} denote different automorphisms",
        )


@dataclass(frozen=True)
class CoordsIs(Assertion):
    """Slot tuple compared semantically, root permutation compared exactly."""

    word: str
    slots: Tuple[str, ...]
    cycles: Optional[Tuple[Tuple[int, ...], ...]]  # None = identity
    kind = "coords"

    def describe(self) -> str:
        perm = format_cycles(self.cycles or ())
        return f"coords {self.word} = ({', '.join(self.slots)}) {perm}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        cs = g.coords()
        want_perm = Perm.from_cycles(group.degree, self.cycles or ())
        if len(self.slots) != group.degree:
            return self._result(False, f"expected {group.degree} slots")
        computed = f"computed ({', '.join(map(str, cs.slots))}) {cs.perm}"
        if cs.perm != want_perm:
            return self._result(False, computed)
        for got, want_text in zip(cs.slots, self.slots):
            if not decide.equals(got, parse_word(want_text, group)):
                return self._result(False, computed)
        return self._result(True)


@dataclass(frozen=True)
class InLevelStab(Assertion):
    level: int
    word: str
    kind = "in_level_stab"

    def describe(self) -> str:
        return f"in_level_stab {self.level} : {self.word}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        moved = [v for v in group.vertices(self.level) if g.act(v) != v]
        return self._result(
            not moved,
            f"{self.word} moves {format_vertex(moved[0]) if moved else ''}",
        )


@dataclass(frozen=True)
class SupportedOnlyAt(Assertion):
    vertex: str
    word: str
    kind = "supported_only_at"

    def describe(self) -> str:
        return f"supported_only_at {self.vertex} : {self.word}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        ok = subgroups.is_supported_only_at(g, self.vertex)
        return self._result(ok, f"{self.word} is not supported only at {self.vertex}")


@dataclass(frozen=True)
class Transitive(Assertion):
    depth: int
    kind = "transitive"

    def describe(self) -> str:
        return f"transitive {self.depth}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        table = subgroups.orbits(GenSet.from_group(group), self.depth)
        counts = table.counts[1:]
        return self._result(
            all(c == 1 for c in counts), f"orbit counts {table.counts}"
        )


@dataclass(frozen=True)
class ProjectionWitness(Assertion):
    """`stab_word` fixes the vertex and its section there equals `target`."""

    vertex: str
    stab_word: str
    target: str
    kind = "projection_witness"

    def describe(self) -> str:
        return f"projection_witness {self.vertex} : {self.stab_word} -> {self.target}"

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


@dataclass(frozen=True)
class MemberByExpression(Assertion):
    """Normal-closure membership, certified by an explicit expression."""

    word: str
    expression: str
    kind = "member_by_expression"

    def describe(self) -> str:
        return f"member_by_expression {self.word} = {self.expression}"

    def evaluate(self, group: GroupDef) -> CheckResult:
        g = parse_word(self.word, group)
        h = parse_word(self.expression, group)
        return self._result(
            decide.equals(g, h),
            f"{self.word} differs from the expansion of {self.expression}",
        )


@dataclass(frozen=True)
class DistinctPositiveWords(Assertion):
    gen_words: Tuple[str, ...]
    maxlen: int
    expected: int
    kind = "distinct_positive_words"

    def describe(self) -> str:
        gens = ", ".join(self.gen_words)
        return f"distinct_positive_words ({gens}) maxlen {self.maxlen} expect {self.expected}"

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


@dataclass(frozen=True)
class Certificate:
    name: str
    group_name: Optional[str]
    assertions: Tuple[Assertion, ...]


@dataclass
class Report:
    suite: str
    group: str
    results: List[CheckResult] = field(default_factory=list)
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> Tuple[int, int]:
        ok = sum(1 for r in self.results if r.passed)
        return ok, len(self.results)

    def lines(self) -> List[str]:
        ok, total = self.counts
        out = [
            f"suite {self.suite} over group {self.group}: "
            f"{ok}/{total} passed in {self.runtime:.2f} s"
        ]
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"  {mark}  {r.assertion.describe()}"
            if r.detail:
                line += f"  [{r.detail}]"
            out.append(line)
        return out

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
            f"certificate {cert.name!r} is for group {cert.group_name!r}, got {group.name!r}"
        )
    report = Report(cert.name, group.name)
    start = time.monotonic()
    for assertion in cert.assertions:
        report.results.append(assertion.evaluate(group))
    report.runtime = time.monotonic() - start
    return report


# -- growth experiments --------------------------------------------------------


@dataclass(frozen=True)
class FreeSemigroupResult:
    maxlen: int
    total_words: int
    distinct: int
    collision: Optional[Tuple[Element, Element]]  # first colliding pair


def free_semigroup_check(gens: GenSet, maxlen: int) -> FreeSemigroupResult:
    """Count pairwise distinct nonempty positive words of length <= maxlen.

    Words are enumerated in length-then-lexicographic generator order and
    deduplicated by canonical key; the first collision (if any) is
    reported as (earlier word, later word).
    """
    if maxlen < 1:
        raise ValueError(f"maxlen must be at least 1, got {maxlen}")
    seen: Dict[object, Element] = {}
    collision: Optional[Tuple[Element, Element]] = None
    total = 0
    for length in range(1, maxlen + 1):
        for idxs in product(range(len(gens.elements)), repeat=length):
            w = gens.group.identity()
            for i in idxs:
                w = w * gens.elements[i]
            total += 1
            key = decide.canonical_key(w)
            if key in seen:
                if collision is None:
                    collision = (seen[key], w)
            else:
                seen[key] = w
    return FreeSemigroupResult(maxlen, total, len(seen), collision)


def ball_sizes(
    gens: GenSet, radius: int, max_elements: int = 500_000
) -> Tuple[int, ...]:
    """Sizes of word-metric balls B(0)..B(radius) over S and S^-1.

    Breadth-first search with canonical-key deduplication; deterministic
    for a fixed generating set.  Raises BoundExceeded past `max_elements`.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    group = gens.group
    letters: List[Element] = []
    for e in gens.elements:
        letters.append(e)
        letters.append(e.inverse())
    identity = group.identity()
    ball = {decide.canonical_key(identity)}
    sizes = [1]
    frontier = [identity]
    for _ in range(radius):
        new_elems = []
        for g in frontier:
            for s in letters:
                h = g * s
                key = decide.canonical_key(h)
                if key not in ball:
                    ball.add(key)
                    new_elems.append(h)
                    if len(ball) > max_elements:
                        raise BoundExceeded(
                            f"ball exceeded {max_elements} elements"
                        )
        frontier = new_elems
        sizes.append(len(ball))
    return tuple(sizes)

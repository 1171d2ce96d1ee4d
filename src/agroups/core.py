"""Wreath-recursion engine for groups acting on the rooted d-ary tree.

A group is presented by finitely many named states over the alphabet
{1, ..., d}.  Each state expands into a tuple of d slot entries (state
names or the identity) together with a root permutation.  Elements are
freely reduced words over the states; everything else is computed from
their wreath coordinates.

Conventions, fixed once and relied on throughout the package:

* coordinates multiply by the rule
  ``(a_1,...,a_d) e * (b_1,...,b_d) n = (a_1 b_{e^-1(1)}, ..., a_d b_{e^-1(d)}) (e n)``
  where ``e n`` means "apply n first, then e";
* products act with the right factor first, ``(g * h)(v) = g(h(v))``;
* an element g with coordinates ``(g_1,...,g_d) e`` sends the vertex
  ``i w`` to ``e(i) g_{e(i)}(w)``, so its section at the letter i is the
  slot ``g_{e(i)}``.

Letters are 1-based.  Words carry free reduction only; semantic equality
of the automorphisms they denote lives in :mod:`agroups.decide`.

All values are immutable after construction and all operations are pure,
so they can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "BadPerm",
    "BadStateName",
    "BadVertex",
    "BoundExceeded",
    "DuplicateState",
    "Element",
    "EmptyGroup",
    "EngineError",
    "GroupDef",
    "MixedGroups",
    "Perm",
    "UnknownGenerator",
    "UnknownState",
    "Vertex",
    "WreathCoords",
    "format_cycles",
    "format_vertex",
    "make_group",
]


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class BadPerm(EngineError):
    pass


class BadVertex(EngineError):
    pass


class BadStateName(EngineError):
    pass


class DuplicateState(EngineError):
    pass


class UnknownState(EngineError):
    pass


class UnknownGenerator(EngineError):
    pass


class EmptyGroup(EngineError):
    pass


class MixedGroups(EngineError):
    pass


class BoundExceeded(EngineError):
    pass


Vertex = Tuple[int, ...]

Letter = Tuple[str, int]  # (state name, exponent +1 or -1)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_@.]*\Z")


def format_cycles(cycles: Iterable[Iterable[int]]) -> str:
    """Cycle notation such as ``(1 2)(3 4)``, or ``id`` for no cycles."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "id"


class Perm:
    """A permutation of the letters 1..d, stored by its image tuple.

    The constructor checks that the image is a bijection; :meth:`_make`
    skips the check and is only for images derived from valid permutations.
    """

    __slots__ = ("image",)

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        if sorted(image) != list(range(1, len(image) + 1)):
            raise BadPerm(f"not a bijection of 1..{len(image)}: {image!r}")
        self.image = image

    @classmethod
    def _make(cls, image: Tuple[int, ...]) -> "Perm":
        perm = object.__new__(cls)
        perm.image = image
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._make(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        image = list(range(1, degree + 1))
        for cycle in cycles:
            cycle = list(cycle)
            for x in cycle:
                if not 1 <= x <= degree:
                    raise BadPerm(f"letter {x} outside 1..{degree}")
            if len(set(cycle)) != len(cycle):
                raise BadPerm(f"repeated letter in cycle {tuple(cycle)}")
            for i, x in enumerate(cycle):
                image[x - 1] = cycle[(i + 1) % len(cycle)]
        return cls(image)

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, letter: int) -> int:
        return self.image[letter - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(i) = p(q(i)): q acts first, matching the product convention.
        if not isinstance(other, Perm):
            return NotImplemented
        if len(self.image) != len(other.image):
            raise BadPerm(f"degrees differ: {self.degree} and {other.degree}")
        return Perm._make(tuple(self.image[j - 1] for j in other.image))

    def inv(self) -> "Perm":
        image = [0] * len(self.image)
        for i, j in enumerate(self.image, start=1):
            image[j - 1] = i
        return Perm._make(tuple(image))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.image, start=1))

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least letter, sorted."""
        seen = set()
        out = []
        for i in range(1, len(self.image) + 1):
            if i in seen or self(i) == i:
                continue
            cycle = [i]
            j = self(i)
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self(j)
            out.append(tuple(cycle))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return format_cycles(self.cycles())


class State(NamedTuple):
    slots: Tuple[Optional[str], ...]  # None marks the identity entry
    perm: Perm


class GroupDef:
    """A validated wreath-recursion presentation.

    Use :func:`make_group` (or the ``.agt`` file parser) to build one; the
    constructor trusts its input.

    It compiles the validated states once into the step table read by
    :meth:`Element.coords` and :meth:`Element.act`: each letter ``(name,
    1)`` or ``(name, -1)`` maps to its root image tuple and to its section
    letter (None for the identity) at each input letter.
    """

    __slots__ = ("name", "degree", "_states", "_sig", "_step")

    def __init__(self, name: str, degree: int, states: "dict[str, State]"):
        self.name = name
        self.degree = degree
        self._states = states
        self._sig = (
            name,
            degree,
            tuple((n, st.slots, st.perm.image) for n, st in states.items()),
        )
        self._step: "dict[Letter, tuple]" = {}
        for n, (slots, perm) in states.items():
            # s sends i w to e(i) s_{e(i)}(w), so s^-1 sends j w to e^-1(j) s_j^-1(w)
            by_input = (slots[j - 1] for j in perm.image)
            self._step[(n, 1)] = (perm.image, tuple((s, 1) if s else None for s in by_input))
            self._step[(n, -1)] = (perm.inv().image, tuple((s, -1) if s else None for s in slots))

    # -- states ---------------------------------------------------------

    @property
    def state_names(self) -> Tuple[str, ...]:
        return tuple(self._states)

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise UnknownState(f"no state named {name!r} in group {self.name!r}") from None

    # -- element construction -------------------------------------------

    def identity(self) -> "Element":
        return Element._make(self, ())

    def generator(self, name: str) -> "Element":
        if name not in self._states:
            raise UnknownGenerator(f"no generator named {name!r} in group {self.name!r}")
        return Element._make(self, ((name, 1),))

    def generators(self) -> "list[Element]":
        return [Element._make(self, ((n, 1),)) for n in self._states]

    def element(self, letters: Iterable[Letter]) -> "Element":
        return Element(self, letters)

    # -- vertices --------------------------------------------------------

    def vertex(self, v: Union[str, Sequence[int]]) -> Vertex:
        """Normalize a vertex given as a tuple or dot-separated text."""
        if isinstance(v, str):
            text = v.strip()
            if text in ("", "."):
                return ()
            parts = text.split(".")
            if not all(p.isdigit() for p in parts):
                raise BadVertex(f"malformed vertex {v!r}")
            v = tuple(int(p) for p in parts)
        v = tuple(v)
        for letter in v:
            if not 1 <= letter <= self.degree:
                raise BadVertex(f"letter {letter} outside 1..{self.degree} in vertex {format_vertex(v)}")
        return v

    def vertices(self, level: int) -> Iterator[Vertex]:
        """All level-`level` vertices in lexicographic order."""
        if level == 0:
            yield ()
            return
        letters = range(1, self.degree + 1)
        stack = [()]
        for _ in range(level):
            stack = [v + (i,) for v in stack for i in letters]
        yield from stack

    # -- misc -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupDef) and self._sig == other._sig

    def __hash__(self) -> int:
        return hash(self._sig)

    def __repr__(self) -> str:
        return f"GroupDef({self.name!r}, degree={self.degree}, states={list(self._states)})"


def format_vertex(v: Vertex) -> str:
    return ".".join(map(str, v)) if v else "."


def make_group(
    alphabet_size: int,
    states: Union[Mapping[str, tuple], Iterable[tuple]],
    name: str = "G",
) -> GroupDef:
    """Validate a state table and return the group it defines.

    `states` maps each state name to ``(slots, perm)`` where every slot
    entry is a state name, ``"1"`` or None for the identity, and `perm` is
    a :class:`Perm`, an iterable of cycles, or None for the identity.  An
    iterable of ``(name, slots, perm)`` triples is also accepted (and is
    the only form that can detect duplicate names).
    """
    if alphabet_size < 1:
        raise EngineError(f"alphabet size must be at least 1, got {alphabet_size}")
    if isinstance(states, Mapping):
        rows = [(n, slots, perm) for n, (slots, perm) in states.items()]
    else:
        rows = [tuple(row) for row in states]
    if not rows:
        raise EmptyGroup(f"group {name!r} declares no states")

    table: "dict[str, State]" = {}
    for state_name, slots, perm in rows:
        if not isinstance(state_name, str) or not _NAME_RE.match(state_name):
            raise BadStateName(f"invalid state name {state_name!r}")
        if state_name in table:
            raise DuplicateState(f"state {state_name!r} defined twice")
        if perm is None:
            perm = Perm.identity(alphabet_size)
        elif not isinstance(perm, Perm):
            perm = Perm.from_cycles(alphabet_size, perm)
        if perm.degree != alphabet_size:
            raise BadPerm(f"state {state_name!r}: permutation degree {perm.degree} != {alphabet_size}")
        slots = tuple(None if s in (None, "1") else s for s in slots)
        if len(slots) != alphabet_size:
            raise UnknownState(
                f"state {state_name!r}: expected {alphabet_size} slots, got {len(slots)}"
            )
        table[state_name] = State(slots, perm)

    known = set(table)
    for state_name, st in table.items():
        for entry in st.slots:
            if entry is not None and entry not in known:
                raise UnknownState(f"state {state_name!r} references undefined state {entry!r}")

    return GroupDef(name, alphabet_size, table)


class WreathCoords(NamedTuple):
    """First-level decomposition of an element: d slot elements + root perm."""

    slots: Tuple["Element", ...]
    perm: Perm


def _push(word: "list[Letter]", letter: Letter) -> None:
    # appending a single letter keeps the word freely reduced
    if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
        word.pop()
    else:
        word.append(letter)


def _reduce(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: "list[Letter]" = []
    for letter in letters:
        _push(out, letter)
    return tuple(out)


class Element:
    """A freely reduced word over the states of one group.

    Equality and hashing are *syntactic* (same reduced word over the same
    group).  Whether two words denote the same tree automorphism is
    decided by :func:`agroups.decide.equals`.
    """

    __slots__ = ("group", "letters")

    def __init__(self, group: GroupDef, letters: Iterable[Letter]):
        letters = tuple(letters)
        for name, exp in letters:
            if name not in group._states:
                raise UnknownState(f"no state named {name!r} in group {group.name!r}")
            if exp not in (1, -1):
                raise EngineError(f"letter exponent must be +1 or -1, got {exp}")
        self.group = group
        self.letters = _reduce(letters)

    @classmethod
    def _make(cls, group: GroupDef, letters: Tuple[Letter, ...]) -> "Element":
        # trusted path: letters already validated and reduced
        elem = object.__new__(cls)
        elem.group = group
        elem.letters = letters
        return elem

    # -- group operations -------------------------------------------------

    def _check_group(self, other: "Element") -> None:
        if self.group != other.group:
            raise MixedGroups(
                f"elements of {self.group.name!r} and {other.group.name!r} cannot be combined"
            )

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_group(other)
        word = list(self.letters)
        for letter in other.letters:
            _push(word, letter)
        return Element._make(self.group, tuple(word))

    def inverse(self) -> "Element":
        return Element._make(
            self.group, tuple((n, -e) for n, e in reversed(self.letters))
        )

    def __invert__(self) -> "Element":
        return self.inverse()

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        result = Element._make(self.group, ())
        for _ in range(abs(n)):
            result = result * base
        return result

    # -- wreath calculus ---------------------------------------------------

    def coords(self) -> WreathCoords:
        """Slot tuple and root permutation, read off the group's step table.

        Each input letter i walks the word right to left; it ends at e(i),
        and the section letters it meets, reduced in reverse, give slot e(i).
        """
        group = self.group
        rows = [group._step[letter] for letter in reversed(self.letters)]
        image, slots = [], [None] * group.degree
        for i in range(1, group.degree + 1):
            j, word = i, []
            for row_image, sections in rows:
                if sections[j - 1] is not None:
                    _push(word, sections[j - 1])
                j = row_image[j - 1]
            image.append(j)
            slots[j - 1] = Element._make(group, tuple(reversed(word)))
        return WreathCoords(tuple(slots), Perm._make(tuple(image)))

    def section(self, v: Union[str, Sequence[int]]) -> "Element":
        """The element induced on the subtree at vertex `v`."""
        v = self.group.vertex(v)
        g = self
        for i in v:
            cs = g.coords()
            g = cs.slots[cs.perm(i) - 1]
        return g

    def act(self, v: Union[str, Sequence[int]]) -> Vertex:
        """Image of the vertex `v`: each letter, right to left, walks down it."""
        step = self.group._step
        out = list(self.group.vertex(v))
        for state in reversed(self.letters):
            for depth, i in enumerate(out):
                image, sections = step[state]
                out[depth] = image[i - 1]
                state = sections[i - 1]
                if state is None:
                    break
        return tuple(out)

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and self.group == other.group
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.group, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(n if e == 1 else f"{n}^-1" for n, e in self.letters)

    def __repr__(self) -> str:
        return str(self)

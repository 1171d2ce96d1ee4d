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
so they can be shared freely between concurrent tasks.  The one exception
is the cache of letter closures that :func:`agroups.decide.canonical_key`
fills on a group: it only grows, and an entry gives the same keys
whichever call filled it.
"""

from __future__ import annotations

import re
from array import array
from itertools import product
from operator import itemgetter
from collections.abc import Mapping  # typing.Mapping's isinstance check takes 3x as long
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "BadArgument",
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


class BadArgument(EngineError, ValueError):
    """A number outside the range an operation accepts."""


Vertex = Tuple[int, ...]

Letter = Tuple[str, int]  # (state name, exponent +1 or -1)

_NAME = r"[A-Za-z_][A-Za-z0-9_@.]*"  # state, group and suite names, in every grammar that reads one
_NAME_RE = re.compile(_NAME + r"\Z")

VERTEX_CAP = 100_000  # vertices in one level, or vertex entries in one Schreier transversal
# digits in a number read from text, or in a count written (the tests, golden calls
# and benchmark write 4: free-semigroup totals up to 2,046); Python's int() reads at least 640
MAX_DIGITS = 640
SHOWN = 60  # characters of outside text that an error message echoes
# Letters in a word built from a short text or a power, checked before each
# expansion, so that neither can exhaust memory.
MAX_WORD_LETTERS = 1 << 20
# cells (states x alphabet size) of one presentation, checked before any state is
# built; a binary state costs about 1.5 KiB, so 2^17 cells stay near 100 MiB
CELL_CAP = 1 << 17
# entries (words x vertices) of the level permutations one call composes, checked before
# a level is built; the tests, golden calls and benchmark reach 8,384,512 (2,047 words on
# binary level 12)
LEVEL_ENTRY_CAP = 1 << 24
_DIGITS_BOUND = 10 ** MAX_DIGITS  # the least number of over MAX_DIGITS digits


def _is_number(text: str) -> bool:
    """True iff `text` is ASCII digits, at most MAX_DIGITS of them."""
    return text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS


def _printable(n: int, what: str) -> int:
    """`n`, if it has at most MAX_DIGITS digits; BoundExceeded naming `what` if not."""
    if abs(n) >= _DIGITS_BOUND:
        raise BoundExceeded(f"{what} has over {MAX_DIGITS} digits")
    return n


def _clip(text: str) -> str:
    """`text` for an error message: at most SHOWN characters, ending in '…' where cut."""
    return text if len(text) <= SHOWN else text[: SHOWN - 1] + "…"


def _shown(value: object) -> str:
    """repr(value) for an error message, clipped like `_clip`.  An int of over MAX_DIGITS
    digits (Python writes none past 4,300) reads ``<over 640 digits>``, after any '-'."""
    if isinstance(value, int) and abs(value) >= _DIGITS_BOUND:
        return f"{'-' if value < 0 else ''}<over {MAX_DIGITS} digits>"
    return _clip(repr(value))


def _count(n: int, what: str, low: int, cap: Optional[int] = None) -> int:
    """`n`, if it lies in low..cap; BadArgument below `low`, BoundExceeded above `cap`."""
    if n < low:
        least = "nonnegative" if low == 0 else f"at least {low}"
        raise BadArgument(f"{what} must be {least}, got {_shown(n)}")
    if cap is not None and n > cap:
        raise BoundExceeded(f"{what} {_shown(n)} exceeds cap {cap}")
    return n


def _within(n: int, cap: int, what: str, unit: str) -> int:
    """`n`, if it is at most `cap`; BoundExceeded, naming `what`, the cap and its `unit`, if not.
    For work counted while it runs, so the message echoes the cap and not `n`."""
    if n > cap:
        raise BoundExceeded(f"{what} exceeded {cap} {unit}")
    return n


def _gather(values: Sequence, ranks: Sequence[int]) -> tuple:
    """``tuple(values[r] for r in ranks)``, by one itemgetter call in C."""
    if len(ranks) > 1:
        return itemgetter(*ranks)(values)
    # an itemgetter of one index returns the bare value, and one of none is an error
    return (values[ranks[0]],) if ranks else ()


def _level_over(degree: int, level: int, cap: int) -> bool:
    """Whether level `level` of the max(degree, 2)-ary tree holds over `cap` vertices."""
    # base ** cap > cap for any base >= 2, so min() keeps the verdict and the power small
    return max(degree, 2) ** min(level, cap) > cap


def _letter_text(letter: Letter) -> str:
    """The printed form of one letter: ``a`` or ``a^-1``."""
    name, exp = letter
    return name if exp == 1 else f"{name}^-1"


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
        if not all(isinstance(x, int) for x in image) or sorted(image) != list(range(1, len(image) + 1)):
            raise BadPerm(f"not a bijection of 1..{len(image)}: {_shown(image)}")
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
                if not isinstance(x, int) or not 1 <= x <= degree:
                    raise BadPerm(f"letter {_shown(x)} outside 1..{degree}")
            if len(set(cycle)) != len(cycle):
                raise BadPerm(f"repeated letter in cycle {_shown(tuple(cycle))}")
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


class _Record:
    """Base of the records that are not tuples.  `_fields` names the values
    in constructor order; a record is equal, hashed and written by them, as
    ``Name(field=value, ...)``, and refuses assignment.  Nothing is generated
    per class, so defining one costs no time at import."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroupDef:
    """A validated wreath-recursion presentation.

    Use :func:`make_group` (or the ``.agt`` file parser) to build one; the
    constructor trusts its input.

    It compiles the validated states once into one step table, read by
    :meth:`Element.coords`, by the one descent of :meth:`Element.act` and
    :meth:`Element.section`, and by :meth:`level_perms`.  Each letter
    ``(name, 1)`` or ``(name, -1)`` maps to one entry per input letter i,
    a triple: the 0-based position its root permutation sends i to, the
    section letter there (None for the identity), and that section
    letter's inverse, against which free reduction compares.  The table
    holds one tuple per letter, so the walks compare letters by identity.  It
    also maps the printed text of each letter, ``a`` or ``a^-1``, to the
    letter.

    ``_letter_closures`` starts empty; :func:`agroups.decide.canonical_key`
    fills it, mapping each letter to the refined section closure it lies
    in, which holds only letters and the identity.
    """

    __slots__ = ("name", "degree", "_states", "_sig", "_table", "_printed", "_letter_closures")

    def __init__(self, name: str, degree: int, states: "dict[str, State]"):
        self.name = name
        self.degree = degree
        self._states = states
        self._sig = (name, degree, tuple([(n, st.slots, st.perm.image) for n, st in states.items()]))
        # one tuple per letter, shared by the table; None stands for the identity slot
        pos = {None: None}
        neg = {None: None}
        for n in states:
            pos[n] = (n, 1)
            neg[n] = (n, -1)
        table: "dict[Letter, tuple]" = {}
        for n, (slots, perm) in states.items():
            # s sends i w to e(i) s_{e(i)}(w), so s^-1 sends j w to e^-1(j) s_j^-1(w)
            forward, backward = [], [None] * degree
            for i, j in enumerate(perm.image):
                s = slots[j - 1]
                forward.append((j - 1, pos[s], neg[s]))
                backward[j - 1] = (i, neg[s], pos[s])
            table[pos[n]] = tuple(forward)
            table[neg[n]] = tuple(backward)
        self._table = table
        self._printed = {_letter_text(letter): letter for letter in table}
        self._letter_closures: "dict[Letter, tuple]" = {}

    # -- states ---------------------------------------------------------

    @property
    def state_names(self) -> Tuple[str, ...]:
        return tuple(self._states)

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise UnknownState(
                f"no state named {_shown(name)} in group {_shown(self.name)}"
            ) from None

    # -- element construction -------------------------------------------

    def identity(self) -> "Element":
        return Element._make(self, ())

    def generator(self, name: str) -> "Element":
        if name not in self._states:
            raise UnknownGenerator(
                f"no generator named {_shown(name)} in group {_shown(self.name)}"
            )
        return Element._make(self, ((name, 1),))

    def generators(self) -> "list[Element]":
        return [Element._make(self, ((n, 1),)) for n in self._states]

    def element(self, letters: Iterable[Letter]) -> "Element":
        return Element(self, letters)

    # -- vertices --------------------------------------------------------

    def vertex(self, v: Union[str, Sequence[int]]) -> Vertex:
        """Normalize a vertex given as a tuple or dot-separated text."""
        if isinstance(v, str):
            v = _parse_vertex(v) if v.strip() else ()
        v = tuple(v)
        for letter in v:
            if not isinstance(letter, int) or not 1 <= letter <= self.degree:
                raise BadVertex(
                    f"letter {_shown(letter)} outside 1..{self.degree}"
                    f" in vertex {_clip('.'.join(map(_shown, v)))}"
                )
        return v

    def _check_level(self, level: int, words: Sequence["Element"] = ()) -> None:
        """BoundExceeded if level `level` has over VERTEX_CAP vertices, or if the
        permutations of `words` on it hold over LEVEL_ENTRY_CAP entries."""
        if _level_over(self.degree, level, VERTEX_CAP):
            raise BoundExceeded(f"level {_shown(level)} has over {VERTEX_CAP} vertices")
        if len(words) * self.degree ** level > LEVEL_ENTRY_CAP:
            raise BoundExceeded(
                f"{len(words)} words on the {self.degree ** level} vertices of level {level}"
                f" exceed {LEVEL_ENTRY_CAP} entries"
            )

    def vertices(self, level: int) -> Iterator[Vertex]:
        """All level-`level` vertices in lexicographic order."""
        self._check_level(level)
        yield from product(range(1, self.degree + 1), repeat=level)

    # -- the level action -------------------------------------------------

    def level_perms(self, words: Sequence["Element"], depth: int) -> Iterator[Tuple[array, ...]]:
        """For n = 0..depth, each word's permutation of level n, as an array
        whose entry r is the rank of the image of the vertex of rank r (ranks
        follow :meth:`vertices`).  The arrays are shared; do not mutate them.

        A letter's permutation of level n follows from its table entry and its
        sections' permutations of level n - 1, as rank(i w) = (i - 1) d^(n-1) +
        rank(w).  Each is built on first use and kept for the call.  A word's
        letters compose right to left by gathers (:func:`_gather`), as tuples
        until the last letter, so each longer word makes one array; the empty
        word and a one-letter word return the shared array of the identity or
        of their letter.  Level `depth`, which has the most vertices and
        entries, is checked against VERTEX_CAP and LEVEL_ENTRY_CAP before any
        level is built.
        """
        self._check_level(depth, words)
        perms = {}
        for n in range(depth + 1):
            yield self._level(words, n, perms)

    def level_perm(self, words: Sequence["Element"], level: int) -> Tuple[array, ...]:
        """Each word's permutation of level `level` alone (see :meth:`level_perms`)."""
        return self._level(words, level, {})

    def _level(self, words: Sequence["Element"], n: int, perms: dict) -> Tuple[array, ...]:
        """Each word's permutation of level n.  ``perms[x, m]`` memoizes letter x's
        permutation of level m; x = None is the identity, whose slices are identity blocks."""
        self._check_level(n, words)
        d, table = self.degree, self._table

        def perm(x: Optional[Letter], m: int) -> array:
            out = perms.get((x, m))
            if out is None:
                if x is None or not m:
                    out = array("i", range(d ** m))
                else:
                    size, ident = d ** (m - 1), perm(None, m)
                    out = array("i")
                    for j, s, _ in table[x]:
                        offset = j * size
                        if s is None:
                            out += ident[offset : offset + size]
                        else:
                            out.fromlist([offset + r for r in perm(s, m - 1)])
                perms[x, m] = out
            return out

        composed = []
        for w in words:  # each word's letters compose right to left, as tuples until the last
            p = perm(w.letters[-1] if w.letters else None, n)
            if len(w.letters) > 1:
                for x in w.letters[-2::-1]:
                    p = _gather(perm(x, n), p)
                p = array("i", p)
            composed.append(p)
        return tuple(composed)

    # -- misc -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupDef) and self._sig == other._sig

    def __hash__(self) -> int:
        return hash(self._sig)

    def __repr__(self) -> str:
        return f"GroupDef({self.name!r}, degree={self.degree}, states={list(self._states)})"


def _parse_vertex(text: str) -> Vertex:
    """The letters of a vertex written as ``.`` or dot-separated numbers,
    checked for syntax only; BadVertex otherwise."""
    stripped = text.strip()
    parts = stripped.split(".") if stripped != "." else []
    if not all(_is_number(p) for p in parts):
        raise BadVertex(f"malformed vertex {_shown(text)}")
    return tuple(int(p) for p in parts)


def format_vertex(v: Vertex) -> str:
    return ".".join(map(str, v)) if v else "."


def _check_size(states: int, degree: int) -> None:
    """BoundExceeded if `degree` letters put over VERTEX_CAP vertices on level 1,
    or `states` states on them pass CELL_CAP cells."""
    if degree > VERTEX_CAP:  # level 1 has one vertex per letter
        raise BoundExceeded(f"alphabet size {_shown(degree)} puts over {VERTEX_CAP} vertices on level 1")
    if states * degree > CELL_CAP:
        raise BoundExceeded(f"{states} states x {degree} letters exceed {CELL_CAP} cells")


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
        raise EngineError(f"alphabet size must be at least 1, got {_shown(alphabet_size)}")
    if isinstance(states, Mapping):
        rows = [(n, slots, perm) for n, (slots, perm) in states.items()]
    else:
        rows = [tuple(row) for row in states]
    _check_size(len(rows), alphabet_size)
    if not rows:
        raise EmptyGroup(f"group {_shown(name)} declares no states")

    table: "dict[str, State]" = {}
    identity = Perm.identity(alphabet_size)  # shared: a Perm is immutable
    for state_name, slots, perm in rows:
        if not isinstance(state_name, str) or not _NAME_RE.match(state_name):
            raise BadStateName(f"invalid state name {_shown(state_name)}")
        if state_name in table:
            raise DuplicateState(f"state {_shown(state_name)} defined twice")
        if perm is None:
            perm = identity
        elif not isinstance(perm, Perm):
            perm = Perm.from_cycles(alphabet_size, perm)
        if perm.degree != alphabet_size:
            raise BadPerm(
                f"state {_shown(state_name)}: permutation degree {perm.degree} != {alphabet_size}"
            )
        slots = tuple([None if s is None or s == "1" else s for s in slots])
        if len(slots) != alphabet_size:
            raise UnknownState(
                f"state {_shown(state_name)}: expected {alphabet_size} slots, got {len(slots)}"
            )
        table[state_name] = State(slots, perm)

    for state_name, (slots, _) in table.items():
        for entry in slots:
            if entry is not None and entry not in table:
                raise UnknownState(
                    f"state {_shown(state_name)} references undefined state {_shown(entry)}"
                )

    return GroupDef(name, alphabet_size, table)


class WreathCoords(NamedTuple):
    """First-level decomposition of an element: d slot elements + root perm."""

    slots: Tuple["Element", ...]
    perm: Perm


def _reduce(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out: "list[Letter]" = [("", 0)]  # a sentinel that cancels no letter
    for letter in letters:
        last = out[-1]
        if last[0] == letter[0] and last[1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out[1:])


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
                raise UnknownState(f"no state named {_shown(name)} in group {_shown(group.name)}")
            if exp not in (1, -1):
                raise EngineError(f"letter exponent must be +1 or -1, got {_shown(exp)}")
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
                f"elements of {_shown(self.group.name)} and {_shown(other.group.name)}"
                " cannot be combined"
            )

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_group(other)
        # both words are reduced, so only the letters meeting at the join can cancel
        left, right = self.letters, other.letters
        n, k = len(left), 0
        while k < n and k < len(right):
            (name, exp), last = right[k], left[n - 1 - k]
            if last[0] != name or last[1] != -exp:
                break
            k += 1
        return Element._make(self.group, left[: n - k] + right[k:])

    def inverse(self) -> "Element":
        return Element._make(
            self.group, tuple((n, -e) for n, e in reversed(self.letters))
        )

    def __invert__(self) -> "Element":
        return self.inverse()

    def __pow__(self, n: int) -> "Element":
        if not isinstance(n, int):
            return NotImplemented
        base = (self if n >= 0 else self.inverse()).letters
        if not base:  # () * n overflows past sys.maxsize, though it stays empty
            return self
        if len(base) * abs(n) > MAX_WORD_LETTERS:
            raise BoundExceeded(
                f"power of a {len(base)}-letter word has over {MAX_WORD_LETTERS} letters"
            )
        return Element._make(self.group, _reduce(base * abs(n)))

    # -- wreath calculus ---------------------------------------------------

    def coords(self) -> WreathCoords:
        """Slot tuple and root permutation, read off the group's step table.

        Each input letter i walks the word right to left; it ends at e(i),
        and the section letters it meets, reduced in reverse, give slot e(i).
        """
        group = self.group
        table = group._table
        rows = [table[letter] for letter in reversed(self.letters)]
        image, slots = [], [None] * group.degree
        for i in range(group.degree):
            j, word = i, [None]  # a sentinel that cancels no letter
            for row in rows:
                j, s, inv = row[j]
                if s is not None:
                    if word[-1] is inv:
                        word.pop()
                    else:
                        word.append(s)
            image.append(j + 1)
            slots[j] = Element._make(group, tuple(word[:0:-1]))
        return WreathCoords(tuple(slots), Perm._make(tuple(image)))

    def section(self, v: Union[str, Sequence[int]]) -> "Element":
        """The element induced on the subtree at vertex `v` (see :meth:`_descend`)."""
        return Element._make(self.group, self._descend(v)[1])

    def act(self, v: Union[str, Sequence[int]]) -> Vertex:
        """Image of the vertex `v` (see :meth:`_descend`)."""
        return self._descend(v)[0]

    def _descend(self, v: Union[str, Sequence[int]]) -> Tuple[Vertex, Tuple[Letter, ...]]:
        """The image of the vertex `v` and the letters of the section there.
        Each letter, right to left, walks down v; a letter that reaches the
        bottom ends in a state, and these states, reduced in reverse, spell
        the section.  BoundExceeded if letters x depth passes MAX_WORD_LETTERS."""
        table = self.group._table
        out = list(self.group.vertex(v))
        if not out:
            return (), self.letters
        # the tests, golden calls and benchmark reach 4,096 letters x depth
        if len(self.letters) * len(out) > MAX_WORD_LETTERS:
            raise BoundExceeded(
                f"a {len(self.letters)}-letter word down a {len(out)}-letter vertex"
                f" takes over {MAX_WORD_LETTERS} steps"
            )
        word = [None]  # a sentinel that cancels no letter
        for state in reversed(self.letters):
            for depth, i in enumerate(out):
                j, state, inv = table[state][i - 1]
                out[depth] = j + 1
                if state is None:
                    break
            else:
                if word[-1] is inv:
                    word.pop()
                else:
                    word.append(state)
        return tuple(out), tuple(word[:0:-1])

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
        return " ".join(map(_letter_text, self.letters))

    def __repr__(self) -> str:
        return str(self)

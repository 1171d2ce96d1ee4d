"""Independent answers for the benchmark's correctness checks.

The state tables below are written out here, not read from the package,
and the level action is computed letter by letter straight from them.
Nothing in this module calls into ``agroups``, so it can stand witness
for the answers the program gives on seeds that have no reference digest.

Conventions match the package: letters are 1-based, a state with slots
``(s_1, ..., s_d)`` and root image ``e`` sends ``i w`` to ``e(i) s_{e(i)}(w)``,
and a word acts with its rightmost letter first.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

Letter = Tuple[str, int]
# state name -> (slot states, None for the identity; root image tuple)
Table = Dict[str, Tuple[Tuple[Optional[str], ...], Tuple[int, ...]]]

TABLES: Dict[str, Table] = {
    "grigorchuk": {
        "a": ((None, None), (2, 1)),
        "b": (("a", "c"), (1, 2)),
        "c": (("a", "d"), (1, 2)),
        "d": ((None, "b"), (1, 2)),
    },
    "basilica": {
        "a": ((None, "b"), (1, 2)),
        "b": ((None, "a"), (2, 1)),
    },
    # the ternary group of the package's own tests: its root permutations
    # do not commute, so it pins the product and action conventions
    "rot3": {
        "r": ((None, None, None), (2, 3, 1)),
        "u": ((None, None, None), (2, 1, 3)),
        "t": (("u", None, "t"), (1, 2, 3)),
        "w": (("r", "t", None), (2, 1, 3)),
    },
}

# Short words that denote the identity (checked once against the package by
# the benchmark's own test); conjugates of them are trivial by construction.
RELATORS: Dict[str, Tuple[str, ...]] = {
    "grigorchuk": ("a a", "b b", "c c", "d d", "b c d"),
    "basilica": ("a b a b^-1 a^-1 b a^-1 b^-1", "a b^-1 a b a^-1 b^-1 a^-1 b"),
    "rot3": ("u u", "t t", "r r r", "r u r u"),
}


def degree(table: Table) -> int:
    return len(next(iter(table.values()))[1])


def agt_text(name: str) -> str:
    """The ``.agt`` file for one of the tables above."""
    table = TABLES[name]
    lines = [f"group {name}", f"alphabet {degree(table)}"]
    for state, (slots, image) in table.items():
        slot_text = ", ".join(s or "1" for s in slots)
        cycles = cycle_text(image)
        lines.append(f"gen {state} = ({slot_text})" + ("" if cycles == "id" else f" {cycles}"))
    return "\n".join(lines) + "\n"


def cycle_text(image: Sequence[int]) -> str:
    """Cycle notation as the package prints it: least letter first, ``id`` if none."""
    seen = set()
    out = []
    for i in range(1, len(image) + 1):
        if i in seen or image[i - 1] == i:
            continue
        cycle = [i]
        j = image[i - 1]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = image[j - 1]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "id"


def is_odd(image: Sequence[int]) -> bool:
    """Parity of a permutation from its cycle lengths."""
    seen = set()
    transpositions = 0
    for i in range(1, len(image) + 1):
        length = 0
        j = i
        while j not in seen:
            seen.add(j)
            j = image[j - 1]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 1


def parse(text: str) -> List[Letter]:
    """Letters of a word printed as ``x``, ``x^-1`` tokens, or ``1``."""
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return out


def text(letters: Sequence[Letter]) -> str:
    return " ".join(n if e == 1 else f"{n}^-1" for n, e in letters) or "1"


def act(table: Table, letters: Sequence[Letter], vertex: Sequence[int]) -> Tuple[int, ...]:
    """Image of `vertex` under the word, rightmost letter first."""
    v = list(vertex)
    for name, exp in reversed(letters):
        state: Optional[str] = name
        for k, i in enumerate(v):
            if state is None:
                break
            slots, image = table[state]
            if exp == 1:
                j = image[i - 1]
                state = slots[j - 1]
            else:
                j = image.index(i) + 1
                state = slots[i - 1]
            v[k] = j
    return tuple(v)


def root_image(table: Table, letters: Sequence[Letter], prefix: Sequence[int]) -> Tuple[int, ...]:
    """Root permutation of the section at `prefix`, as an image tuple."""
    n = len(prefix)
    return tuple(act(table, letters, tuple(prefix) + (j,))[n] for j in range(1, degree(table) + 1))


def sign_odd(table: Table, letters: Sequence[Letter]) -> bool:
    """True when the root permutation of the word is odd (so it is nontrivial)."""
    return sum(is_odd(table[n][1]) for n, _ in letters) % 2 == 1


# -- seeded words ---------------------------------------------------------------


def _push(word: List[Letter], letter: Letter) -> None:
    if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
        word.pop()
    else:
        word.append(letter)


def random_word(rng: random.Random, table: Table, length: int) -> List[Letter]:
    """A freely reduced word of exactly `length` letters."""
    states = sorted(table)
    word: List[Letter] = []
    while len(word) < length:
        letter = (rng.choice(states), rng.choice((1, -1)))
        if word and word[-1][0] == letter[0] and word[-1][1] == -letter[1]:
            continue
        word.append(letter)
    return word


def trivial_word(rng: random.Random, group: str, length: int) -> List[Letter]:
    """A product of conjugated relators, freely reduced, of about `length` letters."""
    table = TABLES[group]
    word: List[Letter] = []
    while len(word) < length:
        rel = parse(rng.choice(RELATORS[group]))
        if rng.random() < 0.5:
            rel = [(n, -e) for n, e in reversed(rel)]
        x = random_word(rng, table, rng.randint(1, 4))
        for letter in x + rel + [(n, -e) for n, e in reversed(x)]:
            _push(word, letter)
    return word


def quiet_letter(rng: random.Random, group: str) -> Letter:
    """A generator with identity root permutation; every generator here is nontrivial."""
    table = TABLES[group]
    name = rng.choice(sorted(n for n, (_, image) in table.items() if image == tuple(sorted(image))))
    return (name, rng.choice((1, -1)))


def nontrivial_word(rng: random.Random, group: str, length: int) -> List[Letter]:
    """A conjugate of a quiet generator, freely reduced: nontrivial, yet its
    root permutation is the identity, so deciding it needs the sections."""
    x = random_word(rng, TABLES[group], max(length // 2, 1))
    word: List[Letter] = []
    for letter in x + [quiet_letter(rng, group)] + [(n, -e) for n, e in reversed(x)]:
        _push(word, letter)
    return word

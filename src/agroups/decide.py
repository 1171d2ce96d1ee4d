"""Decision procedures on single elements.

Triviality runs a breadth-first search over the section words reachable
from an element.  Every section of a word of length n is again a word of
length at most n over the same states, so the reachable set is finite and
the search terminates; the element is trivial iff every reachable section
has an identity root permutation.

Canonical keys come from the same closure: nodes are merged by partition
refinement (two nodes are equivalent iff they carry equal root
permutations and letter-wise equivalent children), and the quotient is
serialized by a breadth-first numbering from the element's own class.
Two words get the same key exactly when they denote the same
automorphism.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import Element, MixedGroups, Perm

__all__ = [
    "OrderResult",
    "Portrait",
    "SectionClosure",
    "activity_sequence",
    "canonical_key",
    "equals",
    "is_trivial",
    "order",
    "portrait",
    "section_closure",
]


def is_trivial(g: Element) -> bool:
    """True iff `g` denotes the identity automorphism."""
    seen = {g.letters}
    queue = deque([g])
    while queue:
        h = queue.popleft()
        cs = h.coords()
        if not cs.perm.is_identity():
            return False
        for s in cs.slots:
            if s.letters and s.letters not in seen:
                seen.add(s.letters)
                queue.append(s)
    return True


def equals(g: Element, h: Element) -> bool:
    """Semantic equality of the automorphisms denoted by `g` and `h`."""
    if g.group != h.group:
        raise MixedGroups(
            f"cannot compare elements of {g.group.name!r} and {h.group.name!r}"
        )
    return is_trivial(g * h.inverse())


# -- section closure and canonical keys ------------------------------------


def _syntactic_closure(g: Element):
    """BFS over reachable section words.

    Returns (nodes, perms, edges) where edges[i][k-1] is the node index of
    node i's section at letter k.
    """
    d = g.group.degree
    nodes: List[Element] = [g]
    index: Dict[tuple, int] = {g.letters: 0}
    perms: List[Perm] = []
    edges: List[Tuple[int, ...]] = []
    i = 0
    while i < len(nodes):
        cs = nodes[i].coords()
        row = []
        for k in range(1, d + 1):
            child = cs.slots[cs.perm(k) - 1]
            j = index.get(child.letters)
            if j is None:
                j = len(nodes)
                index[child.letters] = j
                nodes.append(child)
            row.append(j)
        perms.append(cs.perm)
        edges.append(tuple(row))
        i += 1
    return nodes, perms, edges


def _refine(perms: List[Perm], edges: List[Tuple[int, ...]]) -> List[int]:
    """Partition refinement: class assignment per node, by first occurrence."""
    n = len(perms)
    cls = _rank([p.image for p in perms])
    while True:
        sigs = [(cls[i], tuple(cls[j] for j in edges[i])) for i in range(n)]
        new = _rank(sigs)
        if new == cls:
            return cls
        cls = new


def _rank(keys: list) -> List[int]:
    ranks: Dict[object, int] = {}
    out = []
    for k in keys:
        if k not in ranks:
            ranks[k] = len(ranks)
        out.append(ranks[k])
    return out


def _canonical_order(cls: List[int], perms, edges, start: int):
    """BFS numbering of the classes reachable from `start`'s class.

    Returns (class order list, per-class edge rows) where entry i of the
    rows is (perm image, tuple of class numbers of the children).
    """
    node_of_class: Dict[int, int] = {}
    for i, c in enumerate(cls):
        node_of_class.setdefault(c, i)
    number: Dict[int, int] = {cls[start]: 0}
    order = [cls[start]]
    rows = []
    pos = 0
    while pos < len(order):
        c = order[pos]
        pos += 1
        i = node_of_class[c]
        children = []
        for j in edges[i]:
            cj = cls[j]
            if cj not in number:
                number[cj] = len(order)
                order.append(cj)
            children.append(number[cj])
        rows.append((perms[i].image, tuple(children)))
    return order, rows


def canonical_key(g: Element):
    """A total-ordered key with ``key(g) == key(h)`` iff ``equals(g, h)``."""
    nodes, perms, edges = _syntactic_closure(g)
    cls = _refine(perms, edges)
    _, rows = _canonical_order(cls, perms, edges, 0)
    return tuple(rows)


@dataclass(frozen=True)
class SectionClosure:
    """All distinct sections of one element, with letter-labeled edges.

    ``elements[0]`` is the element itself; ``edges[i][k-1]`` indexes the
    section of ``elements[i]`` at letter k.
    """

    element: Element
    elements: Tuple[Element, ...]
    edges: Tuple[Tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def section_closure(g: Element) -> SectionClosure:
    nodes, perms, edges = _syntactic_closure(g)
    cls = _refine(perms, edges)
    order, rows = _canonical_order(cls, perms, edges, 0)

    # representative per class: the element itself for its own class,
    # otherwise the shortest (then lexicographically least) member word
    members: Dict[int, List[int]] = {}
    for i, c in enumerate(cls):
        members.setdefault(c, []).append(i)
    reps: Dict[int, Element] = {cls[0]: g}
    for c, idxs in members.items():
        if c not in reps:
            best = min(idxs, key=lambda i: (len(nodes[i].letters), nodes[i].letters))
            reps[c] = nodes[best]

    out_elems = tuple(reps[c] for c in order)
    out_edges = tuple(children for _, children in rows)
    return SectionClosure(g, out_elems, out_edges)


# -- order ------------------------------------------------------------------


@dataclass(frozen=True)
class OrderResult:
    """Exact order when found within the bound, otherwise the bound."""

    value: Optional[int]
    bound: int

    @property
    def exact(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return str(self.value) if self.exact else f"exceeds bound {self.bound}"


def order(g: Element, bound: int = 64) -> OrderResult:
    """Smallest n <= bound with g^n trivial, by iterated multiplication."""
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    identity_key = canonical_key(g.group.identity())
    power = g.group.identity()
    for n in range(1, bound + 1):
        power = power * g
        if canonical_key(power) == identity_key:
            return OrderResult(n, bound)
    return OrderResult(None, bound)


# -- portraits ----------------------------------------------------------------


@dataclass(frozen=True)
class Portrait:
    """Finite tree of root permutations; leaves keep the residual element.

    The child at letter i describes the subtree at vertex i, i.e. the
    section there, so the node reached along a vertex v carries
    ``coords(g.section(v)).perm``.
    """

    perm: Optional[Perm]
    children: Tuple["Portrait", ...]
    residual: Optional[Element]

    @property
    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + self.children[0].depth


def portrait(g: Element, depth: int) -> Portrait:
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if depth == 0:
        return Portrait(None, (), g)
    cs = g.coords()
    kids = tuple(
        portrait(cs.slots[cs.perm(i) - 1], depth - 1)
        for i in range(1, g.group.degree + 1)
    )
    return Portrait(cs.perm, kids, None)


# -- activity -----------------------------------------------------------------


def activity_sequence(g: Element, levels: int) -> Tuple[int, ...]:
    """Counts of level-n vertices with nontrivial section, n = 0..levels.

    Level by level expansion; each level keeps a multiset of nontrivial
    section words, and triviality checks are memoized per invocation.
    """
    if levels < 0:
        raise ValueError(f"levels must be nonnegative, got {levels}")
    memo: Dict[tuple, bool] = {}

    def trivial(e: Element) -> bool:
        v = memo.get(e.letters)
        if v is None:
            v = is_trivial(e)
            memo[e.letters] = v
        return v

    counts = []
    current: Dict[tuple, Tuple[Element, int]] = {}
    if not trivial(g):
        current[g.letters] = (g, 1)
    counts.append(sum(c for _, c in current.values()))
    for _ in range(levels):
        nxt: Dict[tuple, Tuple[Element, int]] = {}
        for elem, mult in current.values():
            # the slot multiset equals the section multiset over letters
            for s in elem.coords().slots:
                if not trivial(s):
                    old = nxt.get(s.letters)
                    nxt[s.letters] = (s, mult if old is None else old[1] + mult)
        current = nxt
        counts.append(sum(c for _, c in current.values()))
    return tuple(counts)

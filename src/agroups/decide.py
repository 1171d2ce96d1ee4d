"""Decision procedures on single elements.

Triviality runs a breadth-first search over the section words reachable
from an element.  Every section of a word of length n is again a word of
length at most n over the same states, so the reachable set is finite and
the search terminates; the element is trivial iff every reachable section
has an identity root permutation.

`is_trivial`, the section closure, `portrait` and `activity_sequence`
expand each distinct section word once per call, by `Element.coords`,
into a memo that lives for the call (`_Expansions`); `activity_sequence`
shares its memo with the triviality checks it makes.  The words one call
expands hold at most LETTER_CAP letters in all, next to the CLOSURE_CAP
words of a closure or triviality check, so a long word in a group whose
sections do not shrink ends in BoundExceeded, not in a long run.

Canonical keys come from the same closure: nodes are merged by partition
refinement (two nodes are equivalent iff they carry equal root
permutations and letter-wise equivalent children), and the quotient is
serialized by a breadth-first numbering from the element's own class.
Two words get the same key exactly when they denote the same
automorphism.  The closure of a one-letter word holds only letters and
the identity, so a group keeps it, refined, for every letter in it
(`_letter_closure`); each letter's key is numbered from it when first
asked for.  This is the one thing kept across calls.

The product loops (`order` here, `ball_sizes` and `free_semigroup_check` in
:mod:`agroups.certify`), `rist_elements` and the Schreier generators of
:mod:`agroups.subgroups` multiply ids of minimized automaton states, in a
table built per call, as GAP's FR and AutomGrp do.  Words enter by their keys,
and a table maps each key it has seen to its id.  A letter's id is read from
its letter closure, which a table absorbs once; a longer word is absorbed
from its key's rows.
A product is found by one row lookup when the products of its sections are
already known; otherwise a walk over its section pairs settles the pairs
whose sections have ids, and `_cycles` refines the pairs left on a cycle
together with the ids on cycles of the table, so that no keys are built.
The nodes one table's slow paths refine are bounded by REFINE_CAP.
Spheres and free-semigroup levels batch their products through `products`;
`order` and the Schreier pass chain each on the one before, so they call `mul`.
"""

from __future__ import annotations

import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from .core import BoundExceeded, Element, MixedGroups, Perm, WreathCoords
from .core import _count, _level_over, _printable, _shown

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

PORTRAIT_LEAF_CAP = 4096  # binary depth 12, ternary depth 7; desk scale
BALL_CAP = 500_000  # elements in one Cayley ball
ORDER_BOUND_CAP = 16_384  # powers tried by `order`
ACTIVITY_LEVELS_CAP = 4096  # levels counted by `activity_sequence`
CLOSURE_CAP = 100_000  # section words in one closure, or reached by one `is_trivial`
# letters of the section words one call expands.  Tests, golden calls and the benchmark
# reach 3,397, and 662,597 where a closure trips CLOSURE_CAP first.
LETTER_CAP = 1_000_000
# nodes the slow paths of one intern table refine, over its life.  Tests reach 84,268,
# the benchmark 109.
REFINE_CAP = 250_000


def _closure_full(size: int) -> None:
    if size > CLOSURE_CAP:
        raise BoundExceeded(f"section closure exceeded {CLOSURE_CAP} nodes")


class _Expansions(dict):
    """The expansions of one call: a word's letters -> its WreathCoords.

    Calling it on an element expands the element's word by `Element.coords`
    the first time only, and counts the word's letters against LETTER_CAP.
    """

    __slots__ = ("letters",)

    def __init__(self):
        super().__init__()
        self.letters = 0

    def __call__(self, g: Element) -> WreathCoords:
        cs = self.get(g.letters)
        if cs is None:
            self.letters += len(g.letters)
            if self.letters > LETTER_CAP:
                raise BoundExceeded(f"section words of one call exceeded {LETTER_CAP} letters")
            cs = self[g.letters] = g.coords()
        return cs


def is_trivial(g: Element, expand: Optional[_Expansions] = None) -> bool:
    """True iff `g` denotes the identity automorphism.  A caller that checks
    many sections passes its own `expand`, so that they share expansions."""
    if expand is None:
        expand = _Expansions()
    identity = tuple(range(1, g.group.degree + 1))
    seen = {g.letters}
    queue = [g]
    for h in queue:  # the list grows while it is walked
        cs = expand(h)
        if cs.perm.image != identity:
            return False
        for s in cs.slots:
            if s.letters and s.letters not in seen:
                seen.add(s.letters)
                queue.append(s)
                _closure_full(len(seen))
    return True


def equals(g: Element, h: Element) -> bool:
    """Semantic equality of the automorphisms denoted by `g` and `h`."""
    if g.group != h.group:
        raise MixedGroups(
            f"cannot compare elements of {_shown(g.group.name)} and {_shown(h.group.name)}"
        )
    return is_trivial(g * h.inverse())


# -- section closure and canonical keys ------------------------------------


def _syntactic_closure(g: Element):
    """BFS over reachable section words.

    Returns (nodes, images, edges) where images[i] is node i's root image
    tuple and edges[i][k-1] is the node index of its section at letter k.
    """
    expand = _Expansions()
    nodes: List[Element] = [g]
    index: Dict[tuple, int] = {g.letters: 0}
    images: List[Tuple[int, ...]] = []
    edges: List[Tuple[int, ...]] = []
    for h in nodes:  # the list grows while it is walked
        slots, perm = expand(h)
        row = []
        for k in perm.image:  # the section at letter i is the slot e(i)
            child = slots[k - 1]
            j = index.get(child.letters)
            if j is None:
                j = len(nodes)
                index[child.letters] = j
                nodes.append(child)
                _closure_full(len(nodes))
            row.append(j)
        images.append(perm.image)
        edges.append(tuple(row))
    return nodes, images, edges


def _refine(images: List[Tuple[int, ...]], edges: List[Tuple[int, ...]]) -> List[int]:
    """Partition refinement: class assignment per node, by first occurrence."""
    n = len(images)
    cls = _rank(images)
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


def _canonical_order(cls: List[int], images, edges, start: int):
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
        rows.append((images[i], tuple(children)))
    return order, rows


class _Closure:
    """The refined section closure of an element: its section words `nodes`
    (node 0 is the element), their root `images`, the `edges` to each node's
    sections and the class `cls` of each node.  `keys` holds the canonical
    keys numbered so far, by node.  Every section of a letter is a letter or
    the identity, so one letter's closure serves each letter in it, and
    `_letter_closure` keeps it on the group for all of them."""

    __slots__ = ("nodes", "images", "edges", "cls", "keys")

    def __init__(self, g: Element):
        self.nodes, self.images, self.edges = _syntactic_closure(g)
        self.cls = _refine(self.images, self.edges)
        self.keys: Dict[int, tuple] = {}

    def key(self, i: int) -> tuple:
        """The canonical key of node i, numbered the first time it is asked for."""
        key = self.keys.get(i)
        if key is None:
            key = self.keys[i] = tuple(_canonical_order(self.cls, self.images, self.edges, i)[1])
        return key

    def refs(self) -> List[Tuple[int, ...]]:
        """The edges with the identity node as ``~0``, as `_InternTable._absorb` reads them."""
        nodes = self.nodes
        return [tuple([j if nodes[j].letters else ~0 for j in row]) for row in self.edges]


def _letter_closure(g: Element) -> Tuple[_Closure, int]:
    """The closure of a one-letter word and the word's node in it.  A group
    builds a closure the first time one of its letters is asked for, and
    keeps it for every letter in it that no earlier closure holds."""
    cache = g.group._letter_closures
    found = cache.get(g.letters[0])
    if found is None:
        closure = _Closure(g)
        for i, h in enumerate(closure.nodes):
            if h.letters:
                cache.setdefault(h.letters[0], (closure, i))
        found = cache[g.letters[0]]
    return found


def canonical_key(g: Element):
    """A total-ordered key with ``key(g) == key(h)`` iff ``equals(g, h)``."""
    if len(g.letters) == 1:
        closure, i = _letter_closure(g)
        return closure.key(i)
    return _Closure(g).key(0)


class SectionClosure(NamedTuple):
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
    closure = _Closure(g)
    nodes, cls = closure.nodes, closure.cls
    order, rows = _canonical_order(cls, closure.images, closure.edges, 0)

    # representative per class: the element itself for its own class,
    # otherwise the shortest (then lexicographically least) member word
    reps: Dict[int, Element] = {cls[0]: g}
    for i in sorted(range(len(nodes)), key=lambda i: (len(nodes[i].letters), nodes[i].letters)):
        reps.setdefault(cls[i], nodes[i])

    out_elems = tuple(reps[c] for c in order)
    out_edges = tuple(children for _, children in rows)
    return SectionClosure(g, out_elems, out_edges)


# -- interned minimized automata ------------------------------------------------


class _Composed(dict):
    """Root image of q -> of p -> of ``p * q``, the tuple `shared` keeps; filled on a miss."""

    def __init__(self, shared, after=None):  # dict.__new__ made it empty
        self.shared, self.after = shared, after

    def __missing__(self, image):
        if self.after is None:  # the root image of a new q
            value = self[image] = _Composed(self.shared, image)
            return value
        value = tuple([image[j - 1] for j in self.after])
        value = self[image] = self.shared.setdefault(value, value)
        return value


class _InternTable:
    """Minimized automaton states of one group: id x has root image
    ``images[x]`` and section ``kids[x][k-1]`` at letter k; 0 is the identity.
    No two ids denote the same automorphism, so a state whose sections have
    ids is found by its row.  `mul` finds a product by one row lookup when
    each section product is trivial or memoized; otherwise it walks the
    section pairs, and `_absorb` looks up each pair whose sections got ids.
    Only states on cycles go to `_cycles`, which refines them together with
    the ids on cycles of the table.  `products` batches `mul` over many pairs."""

    def __init__(self, group):
        row = (tuple(range(1, group.degree + 1)), (0,) * group.degree)
        self.images, self.kids = [row[0]], [row[1]]
        self._ids: Dict[tuple, int] = {row: 0}  # by row (image, kids)
        self._distinct_images = {row[0]: row[0]}  # one tuple per root image, shared by rows
        self._composed = _Composed(self._distinct_images)
        self._made = [0]  # 0 and the ids `_cycles` made: every id on a cycle
        self._products: Dict[Tuple[int, int], int] = {}
        self._by_key: Dict[tuple, int] = {}  # canonical key -> id, filled by `intern`
        self._absorbed: Dict[_Closure, List[int]] = {}  # letter closure -> its nodes' ids
        self.walks = self.slow = self.refined = 0  # refined: nodes `_cycles` refined

    def intern(self, g: Element) -> int:
        """The id of `g`, memoized on its canonical key.  A letter's id is read
        from its letter closure, which the table absorbs once for all the
        letters in it; a longer word is absorbed from its key's rows."""
        key = canonical_key(g)
        x = self._by_key.get(key)
        if x is None:
            if len(g.letters) == 1:
                closure, i = _letter_closure(g)
                ids = self._absorbed.get(closure)
                if ids is None:
                    ids = self._absorbed[closure] = self._absorb(closure.images, closure.refs())
                x = ids[i]
            else:
                x = self._absorb([image for image, _ in key], [kids for _, kids in key])[0]
            self._by_key[key] = x
        return x

    def mul(self, p: int, q: int) -> int:
        """The id of ``p * q`` (q acts first), memoized on ``(p, q)``.  When
        every section pair is trivial or memoized, one row lookup finds it."""
        products = self._products
        x = products.get((p, q)) if p and q else p or q
        if x is not None:
            return x
        images, kids_p, row = self.images, self.kids[p], []
        for j, b in zip(images[q], self.kids[q]):
            a = kids_p[j - 1]
            x = products.get((a, b)) if a and b else a or b
            if x is None:
                return self._walk(p, q)
            row.append(x)
        x = products[p, q] = self._state(self._composed[images[q]][images[p]], tuple(row))
        return x

    def products(self, ps: List[int], qs: List[int]) -> List[int]:
        """``[self.mul(p, q) for p in ps for q in qs]``, making the same states."""
        return self._times(ps, self._factors(qs))

    def _factors(self, qs: List[int]) -> list:
        """Each q as `_times` reads it: q, its (image index, kid) pairs, `_composed[q's image]`."""
        images, kids, composed = self.images, self.kids, self._composed
        return [(q, [*zip([j - 1 for j in images[q]], kids[q])], composed[images[q]]) for q in qs]

    def _times(self, ps: List[int], factors: list) -> List[int]:
        """`products` of `ps` and the `_factors` of qs: `mul`, with `_state` inlined."""
        products, images, kids, ids, out = self._products, self.images, self.kids, self._ids, []
        for p in ps:
            kids_p, image = kids[p], images[p]
            for q, pairs, after in factors:
                x = products.get((p, q)) if p and q else p or q
                if x is None:
                    row = []
                    for j, b in pairs:
                        a = kids_p[j]
                        x = products.get((a, b)) if a and b else a or b
                        if x is None:
                            x = self._walk(p, q)
                            break
                        row.append(x)
                    else:
                        key = (after[image], tuple(row))
                        x = products[p, q] = ids.setdefault(key, len(images))
                        if x == len(images):  # a new state; its image is shared already
                            images.append(key[0])
                            kids.append(key[1])
                out.append(x)
        return out

    def _walk(self, p: int, q: int) -> int:
        """`mul` for a pair with an unknown section product: a breadth-first
        walk over the section pairs, then `_absorb`."""
        self.walks += 1
        images, kids, products, composed = self.images, self.kids, self._products, self._composed
        pairs, index, new_images, refs = [(p, q)], {(p, q): 0}, [], []
        for x, y in pairs:  # the list grows while it is walked
            new_images.append(composed[images[y]][images[x]])
            row = []
            for j, b in zip(images[y], kids[y]):
                a = kids[x][j - 1]
                z = products.get((a, b)) if a and b else a or b
                if z is not None:
                    row.append(~z)
                    continue
                if (a, b) not in index:
                    index[a, b] = len(pairs)
                    pairs.append((a, b))
                row.append(index[a, b])
            refs.append(tuple(row))
        products.update(zip(pairs, self._absorb(new_images, refs)))
        return products[(p, q)]

    def spheres(self, letters: List[int], radius: int, cap: int = BALL_CAP):
        """Yield spheres 1..radius of the Cayley graph on the ids `letters`:
        lists of ``(id, position of its parent in the previous sphere, letter
        index)`` in first-occurrence order.  Each distinct id is multiplied
        once, and an entry names the first letter that has it (an involution
        and its inverse share one).  Raises BoundExceeded once the ball holds
        more than `cap` elements, within one frontier element's batch."""
        first = {x: letters.index(x) for x in letters}  # id -> index of its first letter
        ball, frontier, factors = {0}, [0], self._factors(list(first))
        for _ in range(radius):
            sphere = []
            for pos, g in enumerate(frontier):
                for i, h in zip(first.values(), self._times([g], factors)):
                    if h not in ball:
                        ball.add(h)
                        sphere.append((h, pos, i))
                        if len(ball) > cap:
                            raise BoundExceeded(f"ball exceeded {cap} elements")
            frontier = [h for h, _, _ in sphere]
            yield sphere

    def log(self, job: str) -> None:
        # a process that never imported logging has set no handler or level that
        # would take the record, and loading it costs a cold process 4-6 ms
        if "logging" not in sys.modules:
            return
        import logging

        logging.getLogger("agroups").debug(
            "%s: %d states, %d memoized products, %d walks, %d slow paths",
            job, len(self.images), len(self._products), self.walks, self.slow,
        )

    def _absorb(self, images, refs) -> List[int]:
        """Ids of new states; ``refs[i][k-1]`` is a new state's index or ``~id``.
        When a pass finds no state whose sections all have ids, `_cycles` runs."""
        ids: Dict[int, int] = {}
        left = list(range(len(images) - 1, -1, -1))  # sections tend to come later
        while left:
            todo, left = left, []
            for i in todo:
                kids = tuple(~r if r < 0 else ids.get(r) for r in refs[i])
                if None in kids:
                    left.append(i)
                    continue
                ids[i] = self._state(images[i], kids)
            if len(left) == len(todo):
                left = self._cycles(images, refs, ids, left)
        return [ids[i] for i in range(len(images))]

    def _state(self, image: Tuple[int, ...], kids: Tuple[int, ...]) -> int:
        """The id of the state with this row, appended if it is new."""
        x = self._ids.get((image, kids))
        if x is None:
            image = self._distinct_images.setdefault(image, image)
            x = self._ids[(image, kids)] = len(self.images)
            self.images.append(image)
            self.kids.append(kids)
        return x

    def _cycles(self, images, refs, ids, left) -> list:
        """Refine the new states `left` together with the ids in `_made` and
        every id these reach.  A class holding an id takes it.  If none does,
        each class gets a new id: every state left reaches a cycle of states
        left, so an equal id would map it onto a cycle of ids, and every id on
        a cycle is in `_made`, as `_state` gives an id only sections that
        existed first.  Returns the states left."""
        self.slow += 1
        nodes = [*left, *(~x for x in self._made)]  # new states as indices, ids as ~id
        at = {r: n for n, r in enumerate(nodes)}
        node_images, edges = [], []
        for r in nodes:  # the list grows while it is walked
            if r >= 0:
                node_images.append(images[r])
                out = [~ids[c] if c in ids else c for c in refs[r]]
            else:
                node_images.append(self.images[~r])
                out = [~k for k in self.kids[~r]]
            for c in out:
                if c not in at:
                    at[c] = len(nodes)
                    nodes.append(c)
            edges.append(tuple(at[c] for c in out))
        self.refined += len(nodes)
        if self.refined > REFINE_CAP:
            raise BoundExceeded(f"intern table refinement exceeded {REFINE_CAP} nodes")
        cls = _refine(node_images, edges)
        m = len(left)  # nodes[:m] are the new states
        found = {c: ~r for r, c in zip(nodes[m:], cls[m:])}
        if not any(c in found for c in cls[:m]):
            # class -> one of its new states (all share a row), in order of first occurrence
            member = dict(zip(cls[:m], range(m)))
            found.update((c, len(self.images) + i) for i, c in enumerate(member))
            self._made += [self._state(node_images[n], tuple(found[cls[j]] for j in edges[n]))
                           for n in member.values()]
        ids.update((r, found[c]) for r, c in zip(left, cls) if c in found)
        return [r for r in left if r not in ids]


# -- order ------------------------------------------------------------------


class OrderResult(NamedTuple):
    """Exact order when found within the bound, otherwise the bound."""

    value: Optional[int]
    bound: int

    @property
    def exact(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return str(self.value) if self.exact else f"exceeds bound {self.bound}"


def order(g: Element, bound: int = 64) -> OrderResult:
    """Smallest n <= bound with g^n trivial, by iterated multiplication of ids."""
    _count(bound, "bound", 1, ORDER_BOUND_CAP)
    table = _InternTable(g.group)
    try:
        x = table.intern(g)
        power, n = x, 1
        while power and n < bound:
            power, n = table.mul(power, x), n + 1
    finally:
        table.log("order")
    return OrderResult(None if power else n, bound)


# -- portraits ----------------------------------------------------------------


class Portrait(NamedTuple):
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
    _count(depth, "depth", 0)
    if _level_over(g.group.degree, depth, PORTRAIT_LEAF_CAP):
        raise BoundExceeded(f"depth {_shown(depth)} gives over {PORTRAIT_LEAF_CAP} leaves")
    expand = _Expansions()

    def draw(h: Element, depth: int) -> Portrait:
        if depth == 0:
            return Portrait(None, (), h)
        slots, perm = expand(h)
        return Portrait(perm, tuple(draw(slots[j - 1], depth - 1) for j in perm.image), None)

    return draw(g, depth)


# -- activity -----------------------------------------------------------------


def activity_sequence(g: Element, levels: int) -> Tuple[int, ...]:
    """Counts of level-n vertices with nontrivial section, n = 0..levels.

    Level by level expansion; each level keeps a multiset of nontrivial
    section words.  Triviality checks are memoized per invocation, and they
    share its expansions, so each distinct section word is expanded once.
    BoundExceeded once a count has over MAX_DIGITS digits.
    """
    _count(levels, "levels", 0, ACTIVITY_LEVELS_CAP)
    expand = _Expansions()
    memo: Dict[tuple, bool] = {}

    def trivial(e: Element) -> bool:
        v = memo.get(e.letters)
        if v is None:
            v = memo[e.letters] = is_trivial(e, expand)
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
            for s in expand(elem).slots:
                if not trivial(s):
                    old = nxt.get(s.letters)
                    nxt[s.letters] = (s, mult if old is None else old[1] + mult)
        current = nxt
        count = sum(c for _, c in current.values())
        counts.append(_printable(count, f"the activity count of level {len(counts)}"))
    return tuple(counts)

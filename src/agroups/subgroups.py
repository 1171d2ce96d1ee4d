"""Finite-level subgroup machinery.

Orbits of a generating set on tree levels, level/vertex stabilizers via
Schreier generators, projections, rigid-stabilizer witness search, orbit
chains, and the commutator construction that plants a chosen element as
an inner coordinate of a commutator.

Orbit computations walk the finite level action only; statements about
infinite index or full subgroup membership are out of reach from finite
data and are certified elsewhere through explicit witnesses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import decide
from .core import (
    BadArgument,
    Element,
    EngineError,
    GroupDef,
    MixedGroups,
    VERTEX_CAP,
    Vertex,
    _Record,
    _clip,
    _count,
    _gather,
    _shown,
    _within,
    format_vertex,
    make_group,
)

__all__ = [
    "CommutatorWitness",
    "GenSet",
    "NotLevelFixing",
    "NotVertexFixing",
    "OrbitChainReport",
    "OrbitLevel",
    "OrbitTable",
    "PermFixesM",
    "StabilizerGens",
    "commutator_witness",
    "embedded_group",
    "embed_element",
    "fixes_level",
    "is_supported_only_at",
    "moved_vertex",
    "orbit_chain",
    "orbits",
    "projection_gens",
    "rist_elements",
    "stabilizer_gens",
    "vertex_stabilizer_gens",
]

ORBIT_DEPTH_CAP = 12  # 4096 vertices on a binary tree; desk scale


class PermFixesM(EngineError):
    """The inner section's root permutation fixes the requested slot."""


class NotLevelFixing(EngineError):
    """The element was required to fix its first level but does not."""


class NotVertexFixing(EngineError):
    """A generator was required to fix the base vertex but moves it."""


class GenSet(_Record):
    """A nonempty list of named elements of one group.  Not a tuple: its
    length is its number of elements."""

    __slots__ = _fields = ("group", "names", "elements")

    def __init__(self, group: GroupDef, names: Tuple[str, ...], elements: Tuple[Element, ...]):
        if not elements:
            raise EngineError("generating set must be nonempty")
        if len(names) != len(elements):
            raise EngineError("names and elements differ in length")
        for e in elements:
            if e.group != group:
                raise MixedGroups("generating set mixes groups")
        super().__init__(group, names, elements)

    @classmethod
    def from_group(cls, group: GroupDef) -> "GenSet":
        return cls(group, group.state_names, tuple(group.generators()))

    @classmethod
    def from_elements(
        cls, elements: Sequence[Element], names: Optional[Sequence[str]] = None
    ) -> "GenSet":
        elements = tuple(elements)
        if not elements:
            raise EngineError("generating set must be nonempty")
        if names is None:
            names = tuple(str(e) for e in elements)
        return cls(elements[0].group, tuple(names), elements)

    def items(self) -> Iterable[Tuple[str, Element]]:
        return zip(self.names, self.elements)

    def __len__(self) -> int:
        return len(self.elements)


# -- orbits -------------------------------------------------------------------


class OrbitLevel(NamedTuple):
    """Orbit partition of one level; blocks sorted by their least vertex."""

    level: int
    blocks: Tuple[Tuple[Vertex, ...], ...]
    parent: Tuple[int, ...]  # block index at the previous level, per block

    @property
    def count(self) -> int:
        return len(self.blocks)

    def block_of(self, v: Vertex) -> int:
        for i, block in enumerate(self.blocks):
            if v in block:
                return i
        raise KeyError(v)


class OrbitTable(NamedTuple):
    """Per-level orbit partitions with the parent map between orbit sets."""

    gens: GenSet
    depth: int
    levels: Tuple[OrbitLevel, ...]  # index n = level n, starting at the root

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(lv.count for lv in self.levels)

    def level(self, n: int) -> OrbitLevel:
        return self.levels[n]


def orbits(gens: GenSet, depth: int) -> OrbitTable:
    """Exact orbit partition of every level up to `depth` under the gens.

    Each generator permutes the finite level set, so forward closure under
    the generators alone already yields the full group orbits.  A block's
    parent is read off its seed, its least vertex: a tree automorphism maps
    the parent of v to the parent of v's image, so every member's parent lies
    in the seed's orbit, and every orbit above has a child block.
    """
    _count(depth, "depth", 1, ORBIT_DEPTH_CAP)
    group = gens.group
    levels = [OrbitLevel(0, (((),),), ())]
    prev_assigned = [0]  # orbit index per rank of the previous level
    for n, perms in enumerate(group.level_perms(gens.elements, depth)):
        if not n:
            continue
        perms = list({perm.tobytes(): perm for perm in perms}.values())  # equal actions once
        verts = list(group.vertices(n))
        assigned = [-1] * len(verts)
        blocks: List[Tuple[Vertex, ...]] = []
        parent = []
        for seed in range(len(verts)):
            if assigned[seed] >= 0:
                continue
            idx = assigned[seed] = len(blocks)
            members = [seed]
            for r in members:  # the walk reads members as it appends them
                for perm in perms:
                    w = perm[r]
                    if assigned[w] < 0:
                        assigned[w] = idx
                        members.append(w)
            members.sort()
            blocks.append(_gather(verts, members))
            parent.append(prev_assigned[seed // group.degree])  # the parent of rank r is r // d
        levels.append(OrbitLevel(n, tuple(blocks), tuple(parent)))
        prev_assigned = assigned
    return OrbitTable(gens, depth, tuple(levels))


# -- stabilizers ---------------------------------------------------------------


class StabilizerGens(NamedTuple):
    """Schreier generators of a level or vertex stabilizer, one per automorphism.

    `transversal` records, per reached point, a word moving the base point
    there; points are level-action configurations for level stabilizers
    and plain vertices otherwise.
    """

    gens: GenSet
    level: Optional[int]
    vertex: Optional[Vertex]
    generators: Tuple[Element, ...]
    transversal: Tuple[Tuple[object, Element], ...]


def _schreier(gens: GenSet, base: object, actions):
    """Breadth-first transversal (frontiers in sorted order), and in the same pass
    the raw Schreier generator t_y^-1 s t_x, y = s(x), of each point x and generator
    s as ``(id, t_y, s, t_x)``; `actions` holds each generator's action on points.
    A tree edge, where t_y = s t_x, gives the identity and is left out.  Returns
    the (x, t_x) pairs, the raw list and the table."""
    with decide._InternTable(gens.group, "schreier") as table:
        steps = [(s, act, table.intern(s), table.intern(s.inverse()))
                 for s, act in zip(gens.elements, actions)]
        transversal = {base: (gens.group.identity(), 0, 0)}  # x -> t_x, its id, id of t_x^-1
        order, frontier, raw = [], [base], []
        while frontier:
            discovered = []
            for x in sorted(frontier):
                order.append(x)
                t_x, tid, tinv = transversal[x]
                for s, act, sid, sinv in steps:
                    y, st = act(x), table.mul(sid, tid)
                    t_y = transversal.get(y)
                    if t_y is None:
                        transversal[y] = (s * t_x, st, table.mul(tinv, sinv))
                        discovered.append(y)
                        _within(len(transversal) * len(base), VERTEX_CAP,
                                "transversal", "vertex entries")
                        # one raw generator per pair; the tests, golden calls and
                        # benchmark reach 16,384 pairs
                        _within(len(transversal) * len(steps), decide.BALL_CAP,
                                "Schreier pass", "point-generator pairs")
                    else:
                        raw.append((table.mul(t_y[2], st), t_y[0], s, t_x))
            frontier = discovered
    return tuple((x, transversal[x][0]) for x in order), raw, table


def _dedupe_gens(group: GroupDef, raw) -> Dict[int, Element]:
    """By id, the word of the first raw generator per nonzero id (equal ids
    are equal automorphisms), or the identity alone if there is none."""
    kept: Dict[int, Element] = {}
    for gid, t_y, s, t_x in raw:
        if gid and gid not in kept:
            kept[gid] = t_y.inverse() * s * t_x
    return kept or {0: group.identity()}


def stabilizer_gens(gens: GenSet, level: int) -> StabilizerGens:
    """Generators of the subgroup fixing every vertex of the given level.

    The kernel of the level action is the stabilizer of the identity
    configuration under left composition, so Schreier's lemma applies to
    the finite orbit of configurations.
    """
    _count(level, "level", 0)
    verts = tuple(gens.group.vertices(level))
    # a configuration holds ranks, which sort like the vertices; each generator permutes them
    perms = gens.group.level_perm(gens.elements, level)
    actions = [lambda c, image=perm: _gather(image, c) for perm in perms]
    base = tuple(range(len(verts)))  # the identity configuration
    transversal, raw, _ = _schreier(gens, base, actions)
    transversal = tuple((_gather(verts, c), t) for c, t in transversal)
    generators = tuple(_dedupe_gens(gens.group, raw).values())
    return StabilizerGens(gens, level, None, generators, transversal)


def vertex_stabilizer_gens(gens: GenSet, vertex: Union[str, Vertex]) -> StabilizerGens:
    """Generators of the subgroup fixing one vertex, via Schreier's lemma."""
    vertex = gens.group.vertex(vertex)
    transversal, raw, _ = _schreier(gens, vertex, [s.act for s in gens.elements])
    generators = tuple(_dedupe_gens(gens.group, raw).values())
    return StabilizerGens(gens, None, vertex, generators, transversal)


def projection_gens(gens: GenSet, vertex: Union[str, Vertex]) -> GenSet:
    """Sections at `vertex` of the vertex stabilizer's Schreier generators.

    These generate the projection of the stabilizer of `vertex` to the
    subtree below it.  They are deduplicated by id, read off the table's kids
    along `vertex`; trivial ones are kept, so the result is never empty.
    """
    vertex = gens.group.vertex(vertex)
    _, raw, table = _schreier(gens, vertex, [s.act for s in gens.elements])
    first: Dict[int, Element] = {}
    for x, g in _dedupe_gens(gens.group, raw).items():
        for k in vertex:
            x = table.kids[x][k - 1]
        first.setdefault(x, g)
    return GenSet.from_elements([g.section(vertex) for g in first.values()])


# -- rigid stabilizer witnesses --------------------------------------------------


def moved_vertex(g: Element, level: int) -> Optional[Vertex]:
    """The least vertex of the given level that `g` moves, or None."""
    perm, = g.group.level_perm((g,), level)
    moved = next((r for r, image in enumerate(perm) if image != r), None)
    d = g.group.degree  # the vertex of rank r spells r's base-d digits, each plus one
    return None if moved is None else tuple(moved // d**k % d + 1 for k in reversed(range(level)))


def fixes_level(g: Element, level: int) -> bool:
    return moved_vertex(g, level) is None


def is_supported_only_at(g: Element, vertex: Union[str, Vertex]) -> bool:
    """True iff `g` fixes level |v| pointwise and every section away from
    `vertex` on that level is trivial: walking down `vertex`, each section
    met fixes its first level and is trivial in every slot off the path."""
    vertex = g.group.vertex(vertex)
    g.group._check_level(len(vertex))
    for i in vertex:
        slots, perm = g.coords()
        if not perm.is_identity() or not all(
            decide.is_trivial(s) for j, s in enumerate(slots, 1) if j != i
        ):
            return False
        g = slots[i - 1]
    return True


def rist_elements(
    gens: GenSet, vertex: Union[str, Vertex], maxlen: int
) -> List[Element]:
    """Witness search: nontrivial elements of length <= maxlen supported
    only at `vertex`.

    Walks the Cayley ball over the generators and their inverses sphere by
    sphere up to the first empty one, after which none holds an element, so
    each element is reported once, by its first word in length-then-generator
    order.  This is a bounded search, not a membership decision.
    """
    _count(maxlen, "maxlen", 1)
    group = gens.group
    vertex = group.vertex(vertex)
    letters = [x for e in gens.elements for x in (e, e.inverse())]
    with decide._InternTable(group, "rist_elements") as table:
        words, found = [group.identity()], []
        for sphere in table.spheres([table.intern(x) for x in letters], maxlen):
            if not sphere:
                break
            # the word of an element extends its parent's word by one letter
            words = [words[parent] * letters[i] for _, parent, i in sphere]
            found.extend(w for w in words if is_supported_only_at(w, vertex))
    return found


# -- orbit chains ----------------------------------------------------------------


class OrbitChainReport(NamedTuple):
    """Orbit counts below a vertex and the stabilized chain, if any.

    `stable_level` is the least level from which the counts stay constant
    through the computed depth; `chain` then follows the unique child
    orbit of the lexicographically least orbit at that level.
    """

    vertex: Vertex
    table: OrbitTable
    counts: Tuple[int, ...]
    stabilized: bool
    stable_level: Optional[int]
    chain: Optional[Tuple[Tuple[Vertex, ...], ...]]


def orbit_chain(
    gens: GenSet, vertex: Union[str, Vertex], depth: int
) -> OrbitChainReport:
    """Orbit structure of the generators' action on the subtree at `vertex`.

    Every generator must fix `vertex`; the action below it is the action
    of the sections there.  The parent maps of the orbit table are onto, so
    counts never drop: the stable level is the first whose count equals the
    count at `depth`, and from there each parent map is one-to-one, so each
    orbit of the chain has exactly one child.
    """
    group = gens.group
    vertex = group.vertex(vertex)
    sections = []
    for name, e in gens.items():
        if e.act(vertex) != vertex:
            raise NotVertexFixing(
                f"generator {_shown(name)} moves vertex {_clip(format_vertex(vertex))}"
            )
        sections.append(e.section(vertex))
    below = GenSet(group, gens.names, tuple(sections))
    table = orbits(below, depth)
    counts = table.counts
    stable_level = counts.index(counts[depth])
    if stable_level == depth:
        return OrbitChainReport(vertex, table, counts, False, None, None)
    chain = [table.level(stable_level).blocks[0]]
    idx = 0
    for lv in table.levels[stable_level + 1 :]:
        idx = lv.parent.index(idx)
        chain.append(lv.blocks[idx])
    return OrbitChainReport(vertex, table, counts, True, stable_level, tuple(chain))


# -- the commutator construction ---------------------------------------------------


def embedded_group(group: GroupDef, vertex: Union[str, Vertex]) -> GroupDef:
    """Extend `group` with states that replay each original state inside
    the subtree at `vertex` and do nothing elsewhere.

    The added state ``s@v`` has the identity root permutation and carries
    ``s@v'`` (one letter shorter) in the slot picked out by the first
    letter of v.
    """
    vertex = group.vertex(vertex)
    if not vertex:
        return group
    d = group.degree
    rows = [(n, group.state(n).slots, group.state(n).perm) for n in group.state_names]
    for k in range(len(vertex) - 1, -1, -1):
        suffix = vertex[k:]
        tag = ".".join(map(str, suffix))
        inner_tag = ".".join(map(str, suffix[1:]))
        for name in group.state_names:
            inner = name if not inner_tag else f"{name}@{inner_tag}"
            slots = tuple(inner if i == suffix[0] else None for i in range(1, d + 1))
            rows.append((f"{name}@{tag}", slots, None))
    return make_group(d, rows, name=f"{group.name}@{format_vertex(vertex)}")


def embed_element(
    g: Element, vertex: Union[str, Vertex], egroup: Optional[GroupDef] = None
) -> Element:
    """The element acting as `g` on the subtree at `vertex`, trivially
    elsewhere, expressed in the extended group."""
    group = g.group
    vertex = group.vertex(vertex)
    if egroup is None:
        egroup = embedded_group(group, vertex)
    if not vertex:
        return egroup.element(g.letters)
    tag = ".".join(map(str, vertex))
    return egroup.element(tuple((f"{n}@{tag}", e) for n, e in g.letters))


class CommutatorWitness(NamedTuple):
    """Result of the commutator construction, with its verification."""

    egroup: GroupDef  # original group extended by the embedded states
    g: Element  # the level-fixing element, lifted
    h: Element  # the embedded companion
    commutator: Element  # [g, h] = g^-1 h^-1 g h
    vertex: Vertex  # where the witness surfaces: (k, m)
    target: Element  # w, lifted
    verified: bool


def commutator_witness(g: Element, k: int, m: int, w: Element) -> CommutatorWitness:
    """Plant `w` as the section of a commutator at the vertex k.m.

    Requires `g` to fix its first level and the section of `g` at letter k
    to carry a root permutation moving m.  With h acting as `w` on the
    subtree at k.m and trivially elsewhere, the section of [g, h] at k.m
    is exactly `w`; the returned record carries the checked result.
    """
    group = g.group
    d = group.degree
    if w.group != group:
        raise MixedGroups("witness element must live in the same group as g")
    if not (1 <= k <= d and 1 <= m <= d):
        raise BadArgument(f"slot indices must lie in 1..{d}, got k={_shown(k)}, m={_shown(m)}")
    cs = g.coords()
    if not cs.perm.is_identity():
        raise NotLevelFixing(f"element {_shown(g)} does not fix level 1")
    s = cs.slots[k - 1].coords().perm  # g fixes the root, so its section at k is slot k
    if s(m) == m:
        raise PermFixesM(
            f"section at letter {k} has root permutation {_shown(s)}, which fixes {m}"
        )
    egroup = embedded_group(group, (k, m))
    g_lift = egroup.element(g.letters)
    w_lift = egroup.element(w.letters)
    h = embed_element(w, (k, m), egroup)
    comm = g_lift.inverse() * h.inverse() * g_lift * h
    got = comm.section((k, m))
    verified = decide.equals(got, w_lift)
    return CommutatorWitness(egroup, g_lift, h, comm, (k, m), w_lift, verified)

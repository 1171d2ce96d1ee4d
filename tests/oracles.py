"""Independent oracles used to derive and cross-check expected values.

Everything here goes through the level action only (coords + recursion or
plain vertex images); none of it touches the section-closure machinery in
`agroups.decide`, so it can stand witness against it.  The coordinates
come from `coords_reference`, a per-letter fold of the product rule kept
apart from the table-driven `Element.coords` it checks.
"""

from agroups import decide
from agroups.core import Element, Perm, WreathCoords, _push


def coords_reference(g: Element) -> WreathCoords:
    """Slot tuple and root permutation, by folding the product rule."""
    group = g.group
    d = group.degree
    slot_words = [[] for _ in range(d)]
    eps = Perm.identity(d)
    for name, exp in g.letters:
        st = group._states[name]
        inv_eps = eps.inv()
        if exp == 1:
            for k in range(1, d + 1):
                entry = st.slots[inv_eps(k) - 1]
                if entry is not None:
                    _push(slot_words[k - 1], (entry, 1))
            eps = eps * st.perm
        else:
            sperm = st.perm
            for k in range(1, d + 1):
                entry = st.slots[sperm(inv_eps(k)) - 1]
                if entry is not None:
                    _push(slot_words[k - 1], (entry, -1))
            eps = eps * sperm.inv()
    slots = tuple(Element._make(group, tuple(w)) for w in slot_words)
    return WreathCoords(slots, eps)


def walk_reference(g: Element, v):
    """Image of `v` under `g` and the section of `g` there, via `coords_reference`."""
    out = []
    for i in v:
        cs = coords_reference(g)
        j = cs.perm(i)
        out.append(j)
        g = cs.slots[j - 1]
    return tuple(out), g


def fixes_all_vertices(g: Element, depth: int, memo=None) -> bool:
    """Level-action triviality to a depth: g fixes every vertex of depth <= `depth`."""
    if memo is None:
        memo = {}

    def walk(e, d):
        if not e.letters or d == 0:
            return True
        key = (e.letters, d)
        cached = memo.get(key)
        if cached is not None:
            return cached
        cs = coords_reference(e)
        ok = cs.perm.is_identity() and all(walk(s, d - 1) for s in cs.slots)
        memo[key] = ok
        return ok

    return walk(g, depth)


def activity_oracle(g: Element, levels: int, depth: int = 12):
    """Activity counts by expansion, with the level-action triviality oracle."""
    memo = {}
    counts = []
    current = [] if fixes_all_vertices(g, depth, memo) else [g]
    counts.append(len(current))
    for _ in range(levels):
        nxt = []
        for e in current:
            for s in coords_reference(e).slots:
                if not fixes_all_vertices(s, depth, memo):
                    nxt.append(s)
        current = nxt
        counts.append(len(current))
    return tuple(counts)


def orbit_images_bruteforce(gens, v, steps):
    """Images of `v` under all products of <= `steps` generators/inverses."""
    letters = []
    for e in gens.elements:
        letters.append(e)
        letters.append(e.inverse())
    images = {v}
    for _ in range(steps):
        new = {s.act(u) for u in images for s in letters} - images
        if not new:
            break
        images |= new
    return images


def pairwise_ball_sizes(gens, radius):
    """Ball sizes with deduplication by pairwise semantic comparison only."""
    group = gens.group
    letters = []
    for e in gens.elements:
        letters.append(e)
        letters.append(e.inverse())
    reps = [group.identity()]
    sizes = [1]
    frontier = [group.identity()]
    for _ in range(radius):
        new = []
        for g in frontier:
            for s in letters:
                h = g * s
                if any(decide.equals(h, r) for r in reps + new):
                    continue
                new.append(h)
        reps.extend(new)
        frontier = new
        sizes.append(len(reps))
    return tuple(sizes)

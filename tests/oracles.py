"""Independent oracles used to derive and cross-check expected values.

Everything here goes through the level action only (coords + recursion or
plain vertex images); none of it touches the section-closure machinery in
`agroups.decide`, so it can stand witness against it.  The coordinates
come from `coords_reference`, a per-letter fold of the product rule kept
apart from the table-driven `Element.coords` it checks; it has its own
free reduction, `_push_reference`, which `reduce_reference` applies to a
whole word.  `is_trivial_reference`, `section_closure_reference`,
`portrait_reference` and `activity_sequence_reference` are the consumers
of `Element.coords` in `agroups.decide` as they were before each distinct
section word was expanded once per call: they call `coords` once per
visit, and they share only `_closure_full`, `_refine` and
`_canonical_order` with the package.  So does `canonical_key_reference`,
the key of a word's own closure, which a letter's key kept on its group
must equal.  `rist_reference`
is an exception too: the word-enumerating witness search that
`subgroups.rist_elements` replaced, kept with its canonical-key dedupe;
it tests support with `is_supported_only_at_reference`, the whole-level
check (level permutation, then every section of the level) that the walk
down the vertex in `subgroups.is_supported_only_at` replaced.
So are `schreier_reference`, `dedupe_reference` and `first_per_key`: the
word-based Schreier transversal and generator dedupe that the id-based
`subgroups._schreier` replaced.  `word_letters_reference` and
`parse_word_reference` are the token-list word parser that the one-scan
`agroups.words` replaced, kept as it was but for the column that its
end-of-word errors now name, one past the end of the text.  `orbits_reference` and
`schreier_dot_reference` are the one-`act`-per-vertex loops that the
compiled level permutations of `GroupDef.level_perms` replaced; they check
that each block has one parent orbit and that the parent map is onto.
`orbit_chain_reference` is `subgroups.orbit_chain` on `orbits_reference`
as it was before the stable level was read off the counts and the chain
off the parent map, with its scans and its one-child check.
`InternTableReference` is the intern table whose `mul` walks the section
pairs of every product, recursing into the memoized ones, as it did before
the one-row lookup of `decide._InternTable.mul`, and whose batches of
products are one such `mul` per pair.  `parse_certificate_reference`
is the keyword-by-keyword `.cert` reader that the assertion forms of
`agroups.certify` replaced.  `parse_group_file_reference` is the `.agt`
reader as it was before a clean `gen` line was read by one regex.  Both
read tuples and cycles with their own copies of the readers of
`agroups.formats`.  `free_semigroup_reference` is
`certify.free_semigroup_check` as it was before it kept a position per id
in place of its first word and stopped at the first length with no new id.
"""

import re
from collections import deque
from itertools import product, repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from agroups import certify, decide
from agroups.cli import _quote
from agroups.core import MAX_DIGITS, BadArgument, BoundExceeded, Element, EngineError, GroupDef
from agroups.core import Letter, Perm, UnknownGenerator, Vertex, WreathCoords, _clip, _shown
from agroups.core import _NAME, _NAME_RE, _is_number, format_vertex, make_group
from agroups.subgroups import ORBIT_DEPTH_CAP, GenSet, NotVertexFixing, OrbitChainReport, OrbitLevel
from agroups.subgroups import OrbitTable, fixes_level
from agroups.words import MAX_NESTING, MAX_WORD_LETTERS, ParseError, word_letters


def _push_reference(word: List[Letter], letter: Letter) -> None:
    """Append `letter` to the reduced `word`, cancelling it against an inverse last letter."""
    if word and word[-1] == (letter[0], -letter[1]):
        word.pop()
    else:
        word.append(letter)


def reduce_reference(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    """`letters` freely reduced, one `_push_reference` per letter."""
    word: List[Letter] = []
    for letter in letters:
        _push_reference(word, letter)
    return tuple(word)


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
                    _push_reference(slot_words[k - 1], (entry, 1))
            eps = eps * st.perm
        else:
            sperm = st.perm
            for k in range(1, d + 1):
                entry = st.slots[sperm(inv_eps(k)) - 1]
                if entry is not None:
                    _push_reference(slot_words[k - 1], (entry, -1))
            eps = eps * sperm.inv()
    slots = tuple(Element._make(group, tuple(w)) for w in slot_words)
    return WreathCoords(slots, eps)


def is_trivial_reference(g: Element) -> bool:
    """Triviality by a breadth-first search over section words, one `coords` per word."""
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
                decide._closure_full(len(seen))
    return True


def _syntactic_closure_reference(g: Element):
    d = g.group.degree
    nodes: List[Element] = [g]
    index: Dict[tuple, int] = {g.letters: 0}
    images: List[Tuple[int, ...]] = []
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
                decide._closure_full(len(nodes))
            row.append(j)
        images.append(cs.perm.image)
        edges.append(tuple(row))
        i += 1
    return nodes, images, edges


def canonical_key_reference(g: Element) -> tuple:
    """`decide.canonical_key` as it was before a letter's key came from a
    closure kept on its group: one closure of `g` alone per call."""
    nodes, images, edges = _syntactic_closure_reference(g)
    cls = decide._refine(images, edges)
    _, rows = decide._canonical_order(cls, images, edges, 0)
    return tuple(rows)


def section_closure_reference(g: Element) -> decide.SectionClosure:
    nodes, images, edges = _syntactic_closure_reference(g)
    cls = decide._refine(images, edges)
    order, rows = decide._canonical_order(cls, images, edges, 0)
    reps: Dict[int, Element] = {cls[0]: g}
    for i in sorted(range(len(nodes)), key=lambda i: (len(nodes[i].letters), nodes[i].letters)):
        reps.setdefault(cls[i], nodes[i])
    out_elems = tuple(reps[c] for c in order)
    out_edges = tuple(children for _, children in rows)
    return decide.SectionClosure(g, out_elems, out_edges)


def portrait_reference(g: Element, depth: int) -> decide.Portrait:
    """The portrait to `depth`, recursing with one `coords` per node (no caps)."""
    if depth == 0:
        return decide.Portrait(None, (), g)
    cs = g.coords()
    kids = tuple(
        portrait_reference(cs.slots[cs.perm(i) - 1], depth - 1)
        for i in range(1, g.group.degree + 1)
    )
    return decide.Portrait(cs.perm, kids, None)


def activity_sequence_reference(g: Element, levels: int) -> Tuple[int, ...]:
    """Activity counts with memoized `is_trivial_reference`, each level expanded again."""
    memo: Dict[tuple, bool] = {}

    def trivial(e: Element) -> bool:
        v = memo.get(e.letters)
        if v is None:
            v = is_trivial_reference(e)
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
            for s in elem.coords().slots:
                if not trivial(s):
                    old = nxt.get(s.letters)
                    nxt[s.letters] = (s, mult if old is None else old[1] + mult)
        current = nxt
        counts.append(sum(c for _, c in current.values()))
    return tuple(counts)


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


def orbits_reference(gens: GenSet, depth: int) -> OrbitTable:
    """Exact orbit partition of every level up to `depth` under the gens.

    Each generator permutes the finite level set, so forward closure under
    the generators alone already yields the full group orbits.
    """
    if depth < 1:
        raise BadArgument(f"depth must be at least 1, got {depth}")
    if depth > ORBIT_DEPTH_CAP:
        raise BoundExceeded(f"depth {depth} exceeds cap {ORBIT_DEPTH_CAP}")
    group = gens.group
    levels = [OrbitLevel(0, (((),),), ())]
    prev_assigned: Dict[Vertex, int] = {(): 0}
    for n in range(1, depth + 1):
        verts = list(group.vertices(n))
        assigned: Dict[Vertex, int] = {}
        blocks: List[Tuple[Vertex, ...]] = []
        for seed in verts:
            if seed in assigned:
                continue
            idx = len(blocks)
            frontier = [seed]
            assigned[seed] = idx
            members = [seed]
            while frontier:
                v = frontier.pop()
                for s in gens.elements:
                    w = s.act(v)
                    if w not in assigned:
                        assigned[w] = idx
                        members.append(w)
                        frontier.append(w)
            blocks.append(tuple(sorted(members)))
        prev = levels[n - 1]
        parent = []
        for block in blocks:
            parents = {prev_assigned[v[:-1]] for v in block}
            if len(parents) != 1:
                raise EngineError(
                    f"orbit parent map ill-defined at level {n} (block {block[0]})"
                )
            parent.append(parents.pop())
        if set(parent) != set(range(prev.count)):
            raise EngineError(f"orbit parent map not surjective at level {n}")
        levels.append(OrbitLevel(n, tuple(blocks), tuple(parent)))
        prev_assigned = assigned
    return OrbitTable(gens, depth, tuple(levels))


def orbit_chain_reference(
    gens: GenSet, vertex: Union[str, Vertex], depth: int
) -> OrbitChainReport:
    """Orbit structure of the generators' action on the subtree at `vertex`.

    Every generator must fix `vertex`; the action below it is the action
    of the sections there.
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
    table = orbits_reference(below, depth)
    counts = table.counts
    stable_level: Optional[int] = None
    for n0 in range(depth):
        if all(counts[k] == counts[n0] for k in range(n0, depth + 1)):
            stable_level = n0
            break
    if stable_level is None:
        return OrbitChainReport(vertex, table, counts, False, None, None)
    chain = [table.level(stable_level).blocks[0]]
    idx = 0
    for n in range(stable_level + 1, depth + 1):
        lv = table.level(n)
        children = [i for i, p in enumerate(lv.parent) if p == idx]
        if len(children) != 1:
            raise EngineError(f"expected a single child orbit at level {n}")
        idx = children[0]
        chain.append(lv.blocks[idx])
    return OrbitChainReport(vertex, table, counts, True, stable_level, tuple(chain))


def schreier_dot_reference(table: OrbitTable, level: int) -> str:
    lines = [f"digraph schreier_level_{level} {{", "  node [shape=circle];"]
    verts = [v for block in table.level(level).blocks for v in block]
    for v in sorted(verts):
        lines.append(f"  {_quote(format_vertex(v))};")
    for name, elem in table.gens.items():
        for v in sorted(verts):
            w = elem.act(v)
            lines.append(
                f"  {_quote(format_vertex(v))} -> {_quote(format_vertex(w))}"
                f" [label={_quote(name)}];"
            )
    lines.append("}")
    return "\n".join(lines)


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


def is_supported_only_at_reference(g: Element, vertex: Union[str, Vertex]) -> bool:
    """True iff `g` fixes level |v| pointwise and every section away from
    `vertex` on that level is trivial."""
    group = g.group
    vertex = group.vertex(vertex)
    n = len(vertex)
    if not fixes_level(g, n):
        return False
    for w in group.vertices(n):
        if w != vertex and not decide.is_trivial(g.section(w)):
            return False
    return True


def rist_reference(gens, vertex, maxlen: int) -> List[Element]:
    """Witness search: nontrivial words of length <= maxlen supported only
    at `vertex`.

    Enumerates freely reduced words over the generators and their inverses
    in length-then-generator order; results are deduplicated semantically.
    This is a bounded search, not a membership decision.
    """
    if maxlen < 1:
        raise BadArgument(f"maxlen must be at least 1, got {maxlen}")
    group = gens.group
    vertex = group.vertex(vertex)
    letters = []
    for e in gens.elements:
        letters.append(e)
        letters.append(e.inverse())
    # letter 2j is gens[j], letter 2j+1 its inverse: index i inverts to i ^ 1

    found: List[Element] = []
    keys = set()
    frontier: List[Tuple[int, Element]] = [(-2, group.identity())]
    for _ in range(maxlen):
        nxt = []
        for last, w in frontier:
            for i, s in enumerate(letters):
                if i == last ^ 1:
                    continue  # immediate cancellation: word already enumerated
                u = w * s
                nxt.append((i, u))
                if is_supported_only_at_reference(u, vertex) and not decide.is_trivial(u):
                    k = decide.canonical_key(u)
                    if k not in keys:
                        keys.add(k)
                        found.append(u)
        frontier = nxt
    return found


def schreier_reference(gens: GenSet, base: object, apply) -> Tuple[Tuple[object, Element], List[Element]]:
    """Breadth-first transversal (frontiers in sorted order) + Schreier gens."""
    group = gens.group
    transversal: Dict[object, Element] = {base: group.identity()}
    order = [base]
    frontier = [base]
    while frontier:
        discovered = []
        for x in sorted(frontier):
            for s in gens.elements:
                y = apply(s, x)
                if y not in transversal:
                    transversal[y] = s * transversal[x]
                    discovered.append(y)
        order.extend(sorted(discovered))
        frontier = discovered
    raw = []
    for x in order:
        t_x = transversal[x]
        for s in gens.elements:
            y = apply(s, x)
            raw.append(transversal[y].inverse() * s * t_x)
    return tuple((x, transversal[x]) for x in order), raw


def first_per_key(elements: Iterable[Element]) -> List[Element]:
    """The first of `elements` denoting each automorphism, in order."""
    first: Dict[tuple, Element] = {}
    for g in elements:
        first.setdefault(decide.canonical_key(g), g)
    return list(first.values())


def dedupe_reference(group: GroupDef, raw: List[Element]) -> Tuple[Element, ...]:
    out = first_per_key(g for g in raw if not decide.is_trivial(g))
    return tuple(out or [group.identity()])


class Token(NamedTuple):
    kind: str
    value: object
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_@.]*)"
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[()\[\],^=:])"
)


def tokenize(text: str, line: Optional[int] = None) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {_shown(text[pos])}", line, pos + 1)
        if m.lastgroup == "name":
            tokens.append(Token("name", m.group(), pos + 1))
        elif m.lastgroup == "int":
            if len(m.group().lstrip("-")) > MAX_DIGITS:
                raise ParseError(f"number longer than {MAX_DIGITS} digits", line, pos + 1)
            tokens.append(Token("int", int(m.group()), pos + 1))
        elif m.lastgroup == "arrow":
            tokens.append(Token("->", "->", pos + 1))
        elif m.lastgroup == "sym":
            tokens.append(Token(m.group(), m.group(), pos + 1))
        pos = m.end()
    return tokens


def _invert(letters: List[Letter]) -> List[Letter]:
    return [(n, -e) for n, e in reversed(letters)]


class _WordParser:
    """Recursive-descent parser producing a flat letter list."""

    def __init__(self, tokens: List[Token], line: Optional[int] = None, end: Optional[int] = None):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0
        self.end = end  # the column of the end of the text

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of word", self.line, self.end)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {_shown(tok.value)}", self.line, tok.col)
        return tok

    def fits(self, n: int, col: int) -> None:
        if n > MAX_WORD_LETTERS:
            raise ParseError(f"word longer than {MAX_WORD_LETTERS} letters", self.line, col)

    def word(self, stop: Tuple[str, ...] = ()) -> List[Letter]:
        letters: List[Letter] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind in stop:
                return letters
            term = self.term(stop)
            self.fits(len(letters) + len(term), tok.col)
            letters.extend(term)

    def term(self, stop: Tuple[str, ...]) -> List[Letter]:
        letters = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "^":
                return letters
            self.take()
            nxt = self.peek()
            if nxt is None:
                raise ParseError("dangling '^'", self.line, self.end)
            if nxt.kind == "int":
                self.take()
                k = nxt.value
                self.fits(abs(k) * len(letters), nxt.col)
                if letters:  # [] * k overflows past sys.maxsize, though it stays empty
                    letters = (letters if k >= 0 else _invert(letters)) * abs(k)
            else:
                conj = self.atom()
                self.fits(2 * len(conj) + len(letters), nxt.col)
                letters = _invert(conj) + letters + conj

    def atom(self) -> List[Letter]:
        tok = self.take()
        if tok.kind == "name":
            return [(tok.value, 1)]
        if tok.kind == "int":
            if tok.value == 1:
                return []
            raise ParseError(f"unexpected number {_clip(str(tok.value))}", self.line, tok.col)
        if tok.kind in ("(", "["):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", self.line, tok.col)
        if tok.kind == "(":
            inner = self.word(stop=(")",))
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "[":
            left = self.word(stop=(",",))
            self.expect(",")
            right = self.word(stop=("]",))
            self.expect("]")
            self.depth -= 1
            self.fits(2 * (len(left) + len(right)), tok.col)
            return _invert(left) + _invert(right) + left + right
        raise ParseError(f"unexpected token {_shown(tok.value)}", self.line, tok.col)


def word_letters_reference(text: str, line: Optional[int] = None) -> List[Letter]:
    """Parse `text` without resolving names against any group."""
    tokens = tokenize(text, line)
    if not tokens:
        raise ParseError("empty word (use '1' for the identity)", line)
    parser = _WordParser(tokens, line, len(text) + 1)
    letters = parser.word()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"unexpected token {_shown(tok.value)}", line, tok.col)
    return letters


def parse_word_reference(text: str, group: GroupDef) -> Element:
    """Parse `text` into a freely reduced element of `group`."""
    letters = word_letters_reference(text)
    for name, _ in letters:
        if name not in group.state_names:
            raise UnknownGenerator(
                f"no generator named {_shown(name)} in group {_shown(group.name)}"
            )
    return group.element(letters)


class InternTableReference(decide._InternTable):
    """`decide._InternTable` with its earlier `mul` and `_absorb`, kept as they were,
    and `_times`, the batch that `products` and `spheres` make, as one `mul` per pair."""

    def _times(self, ps, factors) -> List[int]:
        return [self.mul(p, q) for p in ps for q, _, _ in factors]

    def mul(self, p: int, q: int) -> int:
        if not p or not q or (p, q) in self._products:
            return self._products.get((p, q), p or q)
        images, kids = self.images, self.kids
        pairs, index, new_images, refs = [(p, q)], {(p, q): 0}, [], []
        for a, b in pairs:  # the list grows while it is walked
            new_images.append(tuple(images[a][j - 1] for j in images[b]))
            row = []
            for j, kid in zip(images[b], kids[b]):
                pair = (kids[a][j - 1], kid)
                if not pair[0] or not pair[1] or pair in self._products:
                    row.append(~self.mul(*pair))
                    continue
                if pair not in index:
                    index[pair] = len(pairs)
                    pairs.append(pair)
                row.append(index[pair])
            refs.append(tuple(row))
        self._products.update(zip(pairs, self._absorb(new_images, refs)))
        return self._products[(p, q)]

    def _absorb(self, images, refs) -> List[int]:
        ids: Dict[int, int] = {}
        left = list(range(len(images) - 1, -1, -1))  # sections tend to come later
        while left:
            todo, left = left, []
            for i in todo:
                kids = tuple(~r if r < 0 else ids.get(r) for r in refs[i])
                if None in kids:
                    left.append(i)
                    continue
                if (images[i], kids) not in self._ids:
                    self._ids[(images[i], kids)] = len(self.images)
                    self.images.append(images[i])
                    self.kids.append(kids)
                ids[i] = self._ids[(images[i], kids)]
            if len(left) == len(todo):
                left = self._cycles(images, refs, ids, left)
        return [ids[i] for i in range(len(images))]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycles_reference(text: str, line_no: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
    text = text.strip()
    if text in ("", "id"):
        return None
    if _CYCLE_RE.sub("", text).strip():
        raise ParseError(f"malformed cycle notation {_shown(text)}", line_no)
    cycles = []
    for m in _CYCLE_RE.finditer(text):
        tokens = m.group(1).replace(",", " ").split()
        if not tokens or not all(_is_number(t) for t in tokens):
            raise ParseError(f"malformed cycle ({_clip(m.group(1))})", line_no)
        cycles.append(tuple(int(t) for t in tokens))
    return tuple(cycles)


def _parse_tuple_then_rest_reference(text: str, line_no: int) -> Tuple[List[str], str]:
    """Split ``( p1, p2, ... ) rest``; commas split only at tuple depth, and
    `rest` keeps the text after ``)`` as it is."""
    text = text.strip()
    if not text.startswith("("):
        raise ParseError("expected '(' starting a tuple", line_no)
    depth = 0
    bracket = 0
    parts: List[str] = []
    cur: List[str] = []
    end = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth == 1:
                continue
        elif ch == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
        elif ch == "[":
            bracket += 1
        elif ch == "]":
            bracket -= 1
        elif ch == "," and depth == 1 and bracket == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    if end is None:
        raise ParseError("unbalanced '(' in tuple", line_no)
    parts.append("".join(cur).strip())
    return parts, text[end + 1 :]


_VERTEX_RE = re.compile(r"(\.|[0-9]+(\.[0-9]+)*)\Z")
_DISTINCT_RE = re.compile(r"\(([^()]*)\)\s+maxlen\s+([0-9]+)\s+expect\s+([0-9]+)\Z")


def _check_word(text: str, line_no: int) -> str:
    word_letters(text, line_no)
    return text.strip()


def _check_vertex(text: str, line_no: int) -> str:
    text = text.strip()
    if not _VERTEX_RE.match(text):
        raise ParseError(f"malformed vertex {_shown(text)}", line_no)
    return text


def _split_once(rest: str, sep: str, line_no: int) -> Tuple[str, str]:
    if sep not in rest:
        raise ParseError(f"expected {sep!r}", line_no)
    left, right = rest.split(sep, 1)
    return left.strip(), right.strip()


def parse_certificate_reference(text: str) -> certify.Certificate:
    name: Optional[str] = None
    group_name: Optional[str] = None
    assertions: List[certify.Assertion] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        split = line.split(None, 1)
        keyword, rest = split[0], (split[1].strip() if len(split) > 1 else "")
        if keyword == "suite":
            if not _NAME_RE.match(rest):
                raise ParseError(f"invalid suite name {_shown(rest)}", line_no)
            name = rest
        elif keyword == "group":
            if not _NAME_RE.match(rest):
                raise ParseError(f"invalid group name {_shown(rest)}", line_no)
            group_name = rest
        elif keyword == "trivial":
            assertions.append(certify.Trivial(_check_word(rest, line_no)))
        elif keyword == "equal":
            left, right = _split_once(rest, "=", line_no)
            assertions.append(certify.Equal(_check_word(left, line_no), _check_word(right, line_no)))
        elif keyword == "member_by_expression":
            left, right = _split_once(rest, "=", line_no)
            assertions.append(
                certify.MemberByExpression(_check_word(left, line_no), _check_word(right, line_no))
            )
        elif keyword == "coords":
            left, right = _split_once(rest, "=", line_no)
            slots, tail = _parse_tuple_then_rest_reference(right, line_no)
            assertions.append(
                certify.CoordsIs(
                    _check_word(left, line_no),
                    tuple(_check_word(s, line_no) for s in slots),
                    _parse_cycles_reference(tail, line_no),
                )
            )
        elif keyword == "in_level_stab":
            level, word = _split_once(rest, ":", line_no)
            if not _is_number(level):
                raise ParseError(f"invalid level {_shown(level)}", line_no)
            assertions.append(certify.InLevelStab(int(level), _check_word(word, line_no)))
        elif keyword == "supported_only_at":
            vertex, word = _split_once(rest, ":", line_no)
            assertions.append(
                certify.SupportedOnlyAt(_check_vertex(vertex, line_no), _check_word(word, line_no))
            )
        elif keyword == "transitive":
            if not _is_number(rest) or int(rest) < 1:
                raise ParseError(f"invalid depth {_shown(rest)}", line_no)
            assertions.append(certify.Transitive(int(rest)))
        elif keyword == "projection_witness":
            vertex, remainder = _split_once(rest, ":", line_no)
            stab_word, target = _split_once(remainder, "->", line_no)
            assertions.append(
                certify.ProjectionWitness(
                    _check_vertex(vertex, line_no),
                    _check_word(stab_word, line_no),
                    _check_word(target, line_no),
                )
            )
        elif keyword == "distinct_positive_words":
            m = _DISTINCT_RE.match(rest)
            if m is None or not all(map(_is_number, m.group(2, 3))):
                raise ParseError("expected '(gens) maxlen N expect M' after keyword", line_no)
            gens = tuple(_check_word(g, line_no) for g in m.group(1).split(",") if g.strip())
            if not gens:
                raise ParseError("empty generator list", line_no)
            assertions.append(certify.DistinctPositiveWords(gens, int(m.group(2)), int(m.group(3))))
        else:
            raise ParseError(f"unknown assertion keyword {_shown(keyword)}", line_no)
    if name is None:
        raise ParseError("missing 'suite' line")
    return certify.Certificate(name, group_name, tuple(assertions))


_GEN_RE = re.compile(rf"({_NAME})\s*=\s*(.+)\Z")


def parse_group_file_reference(text: str) -> GroupDef:
    header: dict = {}
    rows: List[tuple] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        split = raw.split("#", 1)[0].split(None, 1)
        if not split:
            continue
        keyword, rest = split[0], split[1].rstrip() if len(split) > 1 else ""
        if keyword == "group":
            if not _NAME_RE.match(rest):
                raise ParseError(f"invalid group name {_shown(rest)}", line_no)
            value = rest
        elif keyword == "alphabet":
            if not _is_number(rest) or int(rest) < 1:
                raise ParseError(f"invalid alphabet size {_shown(rest)}", line_no)
            value = int(rest)
        elif keyword == "gen":
            if not {"group", "alphabet"} <= header.keys():
                raise ParseError("'gen' before 'group' and 'alphabet'", line_no)
            m = _GEN_RE.match(rest)
            if m is None:
                raise ParseError("malformed 'gen' line", line_no)
            slots, tail = _parse_tuple_then_rest_reference(m.group(2), line_no)
            for entry in slots:
                if entry != "1" and not _NAME_RE.match(entry):
                    raise ParseError(f"invalid slot entry {_shown(entry)}", line_no)
            rows.append((m.group(1), tuple(slots), _parse_cycles_reference(tail, line_no)))
            continue
        else:
            raise ParseError(f"unknown keyword {_shown(keyword)}", line_no)
        if keyword in header:
            raise ParseError(f"duplicate {keyword!r} line", line_no)
        header[keyword] = value
    for keyword in ("group", "alphabet"):
        if keyword not in header:
            raise ParseError(f"missing {keyword!r} line")
    return make_group(header["alphabet"], rows, name=header["group"])


def free_semigroup_reference(gens: GenSet, maxlen: int) -> certify.FreeSemigroupResult:
    """Count pairwise distinct nonempty positive words of length <= maxlen.

    Words are enumerated in length-then-lexicographic generator order and
    deduplicated by interned id; the first collision (if any) is reported
    as (earlier word, later word).  Raises BoundExceeded before a length
    whose new words would bring the ids held past `decide.BALL_CAP`.
    """
    if maxlen < 1:
        raise BadArgument(f"maxlen must be at least 1, got {_clip(str(maxlen))}")
    table = decide._InternTable(gens.group)
    letters = [table.intern(e) for e in gens.elements]
    first: Dict[int, Optional[Tuple[int, ...]]] = {}  # id -> generator indices of its first word
    collision = None
    level, total = [0], 0
    for length in range(1, maxlen + 1):
        if len(first) + len(level) * len(letters) > decide.BALL_CAP:
            raise BoundExceeded(
                f"free semigroup words exceeded {decide.BALL_CAP} ids at length {length}"
            )
        # one id per word in product() order until the first collision; after
        # it one per distinct id, as equal words have equal extensions
        level = table.products(level, letters)
        words = product(range(len(letters)), repeat=length) if collision is None else repeat(None)
        for idxs, x in zip(words, level):
            if x not in first:
                first[x] = idxs
            elif collision is None:
                collision = (first[x], idxs)
        level = list(dict.fromkeys(level))
        total += len(letters) ** length
    table.log("free_semigroup_check")
    pair = None if collision is None else tuple(
        gens.group.element([x for i in idxs for x in gens.elements[i].letters]) for idxs in collision
    )
    return certify.FreeSemigroupResult(maxlen, total, len(first), pair)

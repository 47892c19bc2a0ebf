"""Bitmask graphs, induced-subgraph queries and graph6 I/O.

Vertices are 0..n-1 and adjacency is stored as one Python int per vertex,
so neighborhood intersections and containment tests are single integer
operations.  Everything here is exact and deterministic; the size cap of
128 vertices keeps the graph6 reader and writer simple.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

MAX_VERTICES = 128


class Graph6Error(ValueError):
    """Malformed graph6 input.  ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_int(value, lo: int, hi: int | None = None, what: str = "value") -> int:
    """``value`` if it is an integer in lo..hi (no upper bound if ``hi`` is
    None), else ValueError naming it.

    The one rule for every integer argument: type() rather than isinstance(),
    because a bool is an int and True would pass as 1, and a float such as
    2.0 is refused even where it equals an integer in range.
    """
    if type(value) is not int or value < lo or hi is not None and value > hi:
        want = (f"an integer in {lo}..{hi}" if hi is not None
                else "a positive integer" if lo == 1 else f"an integer of at least {lo}")
        raise ValueError(f"{what} must be {want}: {value!r} is out of range")
    return value


class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitset adjacency rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_int(n, 0, MAX_VERTICES, "vertex count")
        rows = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r}, {v!r}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Graph":
        n = check_int(len(rows), 0, MAX_VERTICES, "vertex count")
        g = cls.__new__(cls)
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if type(row) is not int or row & ~full:
                raise ValueError(f"adjacency row {v} is not a bitmask over 0..{n - 1}: {row!r}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric between {u} and {v}")
        g.n = n
        g.rows = tuple(rows)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        u, v = (check_int(x, 0, self.n - 1, "vertex") for x in (u, v))
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[check_int(v, 0, self.n - 1, "vertex")].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return bits(self.rows[check_int(v, 0, self.n - 1, "vertex")])

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in bits(self.rows[v] >> (v + 1) << (v + 1))]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {self.edges()!r})"


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


# ---------------------------------------------------------------------------
# standard constructions


def path_graph(t: int) -> Graph:
    check_int(t, 0, MAX_VERTICES, "path length")
    return Graph(t, [(i, i + 1) for i in range(t - 1)])


def cycle_graph(t: int) -> Graph:
    check_int(t, 3, MAX_VERTICES, "cycle length")
    return Graph(t, [(i, (i + 1) % t) for i in range(t)])


def claw_graph() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


def disjoint_union(*graphs: Graph) -> Graph:
    rows: list[int] = []
    off = 0
    for g in graphs:
        rows.extend(r << off for r in g.rows)
        off += g.n
    return Graph.from_rows(rows)


_PATTERN_RE_PATH = re.compile(r"^P(\d+)$")
_PATTERN_RE_CYCLE = re.compile(r"^C(\d+)$")
_PATTERN_RE_P4KP1 = re.compile(r"^P4\+(\d+)P1$")


def parse_pattern(text: str) -> Graph:
    """The graph of a named forbidden pattern.

    Recognized names are paths ``P1``..``P12``, cycles ``C3``..``C12``,
    ``claw``, ``2P2+P1``, ``2P3`` and the parametric family ``P4+kP1``
    written with an explicit integer k, for example ``P4+3P1``.
    Surrounding whitespace is ignored.
    """
    text = text.strip()
    m = _PATTERN_RE_PATH.match(text)
    if m:
        t = int(m.group(1))
        if not 1 <= t <= 12:
            raise ValueError(f"path pattern out of supported range P1..P12: {text}")
        return path_graph(t)
    m = _PATTERN_RE_CYCLE.match(text)
    if m:
        t = int(m.group(1))
        if not 3 <= t <= 12:
            raise ValueError(f"cycle pattern out of supported range C3..C12: {text}")
        return cycle_graph(t)
    if text == "claw":
        return claw_graph()
    if text == "2P2+P1":
        return disjoint_union(path_graph(2), path_graph(2), path_graph(1))
    if text == "2P3":
        return disjoint_union(path_graph(3), path_graph(3))
    m = _PATTERN_RE_P4KP1.match(text)
    if m:
        k = int(m.group(1))
        if 4 + k > MAX_VERTICES:
            raise ValueError(f"unsupported parameter in pattern {text}")
        return disjoint_union(path_graph(4), *[path_graph(1)] * k)
    raise ValueError(f"unrecognized pattern name: {text!r}")


def pattern_graph(h) -> Graph:
    """Coerce a Graph or pattern name to its Graph."""
    if isinstance(h, Graph):
        return h
    if isinstance(h, str):
        return parse_pattern(h)
    raise TypeError(f"expected Graph or name, got {type(h).__name__}")


# ---------------------------------------------------------------------------
# induced subgraphs and components


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabeled 0..k-1 in ascending order.

    Duplicate, non-integer and out-of-range vertices are rejected.
    """
    xs = sorted(check_int(v, 0, g.n - 1, "vertex") for v in vertices)
    if any(a == b for a, b in zip(xs, xs[1:])):
        raise ValueError("duplicate vertex in selection")
    pos = {v: 1 << i for i, v in enumerate(xs)}
    selection = sum(1 << v for v in xs)
    return Graph.from_rows([sum(pos[u] for u in bits(g.rows[v] & selection)) for v in xs])


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(bits(comp))
    return out


# ---------------------------------------------------------------------------
# induced-pattern detection
#
# Every check asks for an induced copy of a pattern that uses one anchor
# vertex, among the live vertices ``alive`` of a graph given by its raw
# adjacency rows.  The rows are read, never edited, and may name dead
# vertices: only ``alive`` decides which vertices exist.  The rows are
# trusted otherwise, so enumeration loops can check without building
# Graph objects.

def _match_plan(h: Graph, start: int) -> tuple[tuple, ...]:
    """The match order from ``start``, compiled for :func:`_embed`.

    The order starts at ``start``, then prefers vertices with many already
    placed neighbors, then high degree, so the backtracking stays connected
    where possible.  Level k of the plan is ``(p, ins, outs)``: the pattern
    vertex p placed k-th, the earlier levels that hold its pattern
    neighbours and those that hold its non-neighbours.
    """
    rows = h.rows
    order = [start]
    placed = 1 << start
    rest = [v for v in range(h.n) if v != start]
    while rest:
        best = max(rest, key=lambda v: ((rows[v] & placed).bit_count(), rows[v].bit_count()))
        rest.remove(best)
        order.append(best)
        placed |= 1 << best
    return tuple(
        (p,
         tuple(j for j, q in enumerate(order[:k]) if rows[p] >> q & 1),
         tuple(j for j, q in enumerate(order[:k]) if not rows[p] >> q & 1))
        for k, p in enumerate(order)
    )


class PatternSearch:
    """The anchored check for one pattern, built once per pattern.

    A path goes to the walker :func:`_arm`; any other pattern goes to the
    matcher :func:`_embed`, once per orbit of Aut(H), with the orbit's
    lowest vertex on the anchor: a copy with p on the anchor, composed with
    an automorphism that maps q to p, has q there.
    Vertex p is decided the first time the search reaches it: it joins the
    orbit of an earlier kept q of its degree iff ``_embed`` embeds H into
    itself with q on p, since an induced self-embedding is an automorphism.
    A kept p gets its match order then, compiled once by
    :func:`_match_plan`.  So a large pattern whose first order finds a
    copy pays for no other order and no orbit test.  Instances pickle, so
    workers can share them.
    """

    __slots__ = ("h", "path", "orders")

    def __init__(self, h):
        self.h = pattern_graph(h)
        self.path = _as_path_length(self.h)
        # orders[p] is None until p is decided, then the match plan that
        # starts at p if p represents its orbit, else False.  The empty
        # pattern has one empty plan, so every anchor holds a copy.
        self.orders = [None] * self.h.n or [()]

    def through(self, rows: Sequence[int], alive: int, anchor: int) -> int:
        """The vertex mask of an induced copy among ``alive`` that uses
        ``anchor``, or 0 if there is none.

        The mask always holds the anchor (the empty pattern answers with
        the anchor alone), so it is non-zero exactly when a copy exists.
        The graph induced on the mask is the copy, so a caller may keep the
        mask as a witness: any graph that agrees with these rows on the
        mask's vertices contains the same copy.
        """
        if self.path is not None:
            return has_induced_path_through(rows, alive, anchor, self.path)
        image = self.embedding(rows, alive, anchor)
        if image is None:
            return 0
        mask = 1 << anchor
        for v in image:
            mask |= 1 << v
        return mask

    def embedding(self, rows: Sequence[int], alive: int, anchor: int) -> list[int] | None:
        """The matcher's image of a copy that uses ``anchor``, or None."""
        h, orders = self.h, self.orders
        for p, plan in enumerate(orders):
            if plan is None:
                hrows, deg = h.rows, h.rows[p].bit_count()
                plan = orders[p] = not any(
                    kept and hrows[kept[0][0]].bit_count() == deg
                    and _embed(hrows, (1 << h.n) - 1, kept, p) is not None
                    for kept in orders[:p]
                ) and _match_plan(h, p)
            if plan is not False:
                image = _embed(rows, alive, plan, anchor)
                if image is not None:
                    return image
        return None


# Repeated whole-graph queries share one search per pattern graph.
_search = lru_cache(PatternSearch)


def _embed(rows: Sequence[int], alive: int, plan: Sequence[tuple], anchor: int) -> list[int] | None:
    """Backtracking search for an induced copy of a pattern among the
    vertices of the bitmask ``alive``, with the plan's first vertex on
    ``anchor``.

    ``plan`` is a match order compiled by :func:`_match_plan`.  The search
    is one loop over an explicit stack of levels, and level k holds its
    untried candidates, the vertices used below it and the row of the
    vertex placed there.  Level k's candidates are the unused live vertices
    in the row of every level in its ``ins`` and in the row of none in its
    ``outs``, tried lowest first.  Returns the image list indexed by
    pattern vertex, or None.
    """
    hn = len(plan)
    if hn > alive.bit_count():
        return None
    image = [-1] * hn
    cands = [0] * hn
    useds = [0] * hn
    prows = [0] * hn
    k, cand, used = 0, 1 << anchor, 0
    while k < hn:
        if not cand:
            k -= 1
            if k < 0:
                return None
            cand, used = cands[k], useds[k]
            continue
        b = cand & -cand
        cands[k], useds[k] = cand ^ b, used
        v = b.bit_length() - 1
        image[plan[k][0]] = v
        prows[k] = rows[v]
        used |= b
        k += 1
        if k < hn:
            _, ins, outs = plan[k]
            cand = alive & ~used
            for j in ins:
                cand &= prows[j]
            for j in outs:
                cand &= ~prows[j]
    return image


def find_induced_embedding(g: Graph, h) -> tuple[int, ...] | None:
    """An induced embedding of pattern ``h`` into ``g``, or None.

    The embedding preserves both edges and non-edges.  Entry i is the image
    of pattern vertex i.  This is the anchor loop of
    :func:`contains_induced` with the matcher for every pattern, paths
    included, since only the matcher yields an image: the first copy
    through the lowest anchor that has one.
    """
    h = pattern_graph(h)
    if h.n > g.n:
        return None
    if not h.n:
        return ()
    search = _search(h)
    full = (1 << g.n) - 1
    images = (search.embedding(g.rows, full >> v << v, v) for v in range(g.n))
    return next((tuple(image) for image in images if image is not None), None)


def contains_induced(g: Graph, h) -> bool:
    """Does ``g`` contain the pattern ``h`` as an induced subgraph?

    The whole-graph anchor loop: anchor v searches the vertices v..n-1, as
    every copy is found at its lowest vertex.
    """
    h = pattern_graph(h)
    if h.n > g.n:
        return False
    search = _search(h)
    full = (1 << g.n) - 1
    return not h.n or any(search.through(g.rows, full >> v << v, v) for v in range(g.n))


def _as_path_length(h: Graph) -> int | None:
    """If h is a path, its vertex count, else None."""
    is_tree = h.edge_count() == h.n - 1 and len(components(h)) == 1
    return h.n if is_tree and max(map(int.bit_count, h.rows)) <= 2 else None


def has_induced_path(g: Graph, t: int) -> bool:
    """Does ``g`` contain an induced path on ``t`` vertices?"""
    check_int(t, 1, what="path length")
    return t <= g.n and contains_induced(g, path_graph(t))


def has_induced_path_through(rows: Sequence[int], alive: int, anchor: int, t: int) -> int:
    """The vertex mask of an induced path on ``t`` vertices among ``alive``
    that uses vertex ``anchor``, or 0 if there is none.

    The path check of :class:`PatternSearch`.  The mask is exactly the
    path's t vertices, so it stays a witness wherever the rows agree on them.
    """
    if t < 2:
        return 1 << anchor if t == 1 else 0
    return _arm(rows, anchor, t, anchor, 1 << anchor, 1, (t + 2) // 2, (1 << len(rows)) - 1 ^ alive)


def _arm(rows: Sequence[int], anchor: int, t: int, end: int, used: int, m: int,
         switch: int, acc: int) -> int:
    """The walker: grow the path on ``used`` (m vertices; the arm being
    grown ends at ``end``) to t vertices.  The mask at the hit, or 0.

    The anchor may lie inside the path, so the path is two arms out of it.
    The second opens at the anchor, with the switch closed (``switch = t``),
    only once the first holds ``switch`` vertices with the anchor, so each
    path is tried in one orientation only.  ``acc`` is the union of the
    rows of the placed vertices other than the tip and the anchor; it
    starts as the dead vertices, so no candidate is ever dead.  Candidates
    go highest first: the enumeration anchors at its newest (highest)
    vertex and most of its queries hit, so time to the first hit dominates.
    """
    row = rows[end]
    if end == anchor:
        cand = row & ~(used | acc)
    else:
        cand = row & ~(used | acc | rows[anchor])
        acc |= row
    if cand and m == t - 1:
        return used | 1 << cand.bit_length() - 1
    while cand:
        w = cand.bit_length() - 1
        b = 1 << w
        cand ^= b
        hit = _arm(rows, anchor, t, w, used | b, m + 1, switch, acc)
        if hit:
            return hit
    return _arm(rows, anchor, t, anchor, used, m, t, acc) if m >= switch else 0


# ---------------------------------------------------------------------------
# graph6


def _pairs(n: int) -> Iterable[tuple[int, int]]:
    """The pairs (i, j), i < j, in graph6 order: (0, 1), (0, 2), (1, 2), (0, 3), ..."""
    return ((i, j) for j in range(1, n) for i in range(j))


def _pack(bitstr: str) -> str:
    """A string of '0'/'1' as graph6 bytes: six bits a byte, most significant
    first, the last byte padded with zero bits, each byte offset by 63."""
    bitstr += "0" * (-len(bitstr) % 6)
    return "".join(chr(int(bitstr[k:k + 6], 2) + 63) for k in range(0, len(bitstr), 6))


def _unpack(text: str) -> str:
    """The inverse of :func:`_pack`, padding bits included."""
    return "".join(f"{ord(ch) - 63:06b}" for ch in text)


def write_graph6(g: Graph) -> str:
    """Header-less graph6 encoding of ``g``."""
    n, rows = g.n, g.rows
    head = _pack(f"{n:06b}") if n <= 62 else "~" + _pack(f"{n:018b}")
    return head + _pack("".join("01"[rows[j] >> i & 1] for i, j in _pairs(n)))


def parse_graph6(text: str) -> Graph:
    """Parse a header-less graph6 string; raises :class:`Graph6Error` on faults."""
    s = text.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 input", 0)
    for off, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"byte {code} outside graph6 range 63..126", off)
    if s[0] != "~":
        head, body_start = s[0], 1
    elif len(s) < 4:
        raise Graph6Error("truncated extended vertex-count field", len(s))
    elif s[1] == "~":
        raise Graph6Error("vertex counts above 258047 are not supported", 1)
    else:
        head, body_start = s[1:4], 4
    n = int(_unpack(head), 2)
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - body_start < need:
        raise Graph6Error(f"adjacency data truncated, need {need} bytes", len(s))
    if len(s) - body_start > need:
        raise Graph6Error("trailing bytes after adjacency data", body_start + need)
    body = _unpack(s[body_start:])
    if "1" in body[nbits:]:
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    rows = [0] * n
    for i, j in compress(_pairs(n), map("1".__eq__, body)):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph.from_rows(rows)

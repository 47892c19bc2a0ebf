"""List systems over the palette {1,2,3}: exact solving and updating along a path.

A list system stores one 3-bit mask per vertex (bit c-1 for color c).  The
solver works on three color classes instead, bitmasks of the live vertices
whose list still holds color 1, 2 or 3, and a deletion is a mask of live
vertices.  It is backtracking with unit propagation and smallest-list-first
branching, which is exact and more than fast enough at the sizes studied
here.  :func:`update_along_path` colors the first vertex of a path and
deletes each forced color from the list of the next vertex, which is how
the Hr family is certified.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import MAX_VERTICES, Graph, bits, check_int

PALETTE = (1, 2, 3)
FULL_MASK = 0b111


def color_bit(c: int) -> int:
    """The mask bit of color ``c``; a one-color mask's color is its bit_length()."""
    return 1 << check_int(c, 1, 3, "color") - 1


def mask_colors(mask: int) -> tuple[int, ...]:
    return tuple(c for c in PALETTE if mask & color_bit(c))


class ListSystem:
    """Per-vertex color lists over {1,2,3}, stored as 3-bit masks."""

    __slots__ = ("masks",)

    def __init__(self, masks: Iterable[int]):
        self.masks = tuple(check_int(m, 0, FULL_MASK, f"list mask of vertex {v}")
                           for v, m in enumerate(masks))

    @classmethod
    def full(cls, n: int) -> "ListSystem":
        return cls([FULL_MASK] * check_int(n, 0, MAX_VERTICES, "vertex count"))

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "ListSystem":
        masks = []
        for s in sets:
            m = 0
            for c in s:
                m |= color_bit(c)
            masks.append(m)
        return cls(masks)

    def to_sets(self) -> list[tuple[int, ...]]:
        return [mask_colors(m) for m in self.masks]

    @property
    def n(self) -> int:
        return len(self.masks)

    def size(self, v: int) -> int:
        return self.masks[check_int(v, 0, self.n - 1, "vertex")].bit_count()

    def colors(self, v: int) -> tuple[int, ...]:
        return mask_colors(self.masks[check_int(v, 0, self.n - 1, "vertex")])

    def __eq__(self, other) -> bool:
        return isinstance(other, ListSystem) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"ListSystem.from_sets({self.to_sets()!r})"


def lists_to_json(l: ListSystem) -> dict:
    return {"n": l.n, "lists": [list(cs) for cs in l.to_sets()]}


def lists_from_json(obj) -> ListSystem:
    if not isinstance(obj, dict) or "n" not in obj or "lists" not in obj:
        raise ValueError('list-system JSON must be {"n": ..., "lists": [...]}')
    n = obj["n"]
    lists = obj["lists"]
    check_int(n, 0, MAX_VERTICES, "n")
    if not isinstance(lists, list) or len(lists) != n:
        raise ValueError(f"list-system JSON needs exactly n={n} lists")
    for v, cs in enumerate(lists):
        if not isinstance(cs, list):
            raise ValueError(f"the list of vertex {v} must be a list of colors, got {cs!r}")
    return ListSystem.from_sets(lists)


def _check_dims(g: Graph, l: ListSystem, *vertices: int):
    if l.n != g.n:
        raise ValueError(f"list system has {l.n} entries for a {g.n}-vertex graph")
    for v in vertices:
        check_int(v, 0, g.n - 1, "vertex")


# ---------------------------------------------------------------------------
# exact solver


def l_colorable(g: Graph, l: ListSystem) -> tuple[int, ...] | None:
    """A proper coloring choosing each vertex's color from its list, or None.

    An empty list anywhere simply makes the instance infeasible; it is not
    an error.  Every returned coloring is re-checked against the graph and
    the lists before it leaves this function.
    """
    _check_dims(g, l)
    res = _l_colorable(g.rows, l.masks, (1 << g.n) - 1)
    if res is None:
        return None
    p1, p2, _ = res
    return tuple(1 if p1 >> v & 1 else 2 if p2 >> v & 1 else 3 for v in range(g.n))


def _l_colorable(rows, masks, alive):
    """The color classes of a coloring of the vertices in ``alive`` and the
    edges between them, or None.  They are re-checked before they are
    returned: they split ``alive``, lie inside the lists and hold no edge.
    """
    by_list = [0] * 8
    for v in bits(alive):
        by_list[masks[v]] |= 1 << v
    empty, s1, s2, s12, s3, s13, s23, s123 = by_list
    if empty:
        return None
    lists = s1 | s12 | s13 | s123, s2 | s12 | s23 | s123, s3 | s13 | s23 | s123
    res = _solve(rows, *lists, 0)
    if res is None:
        return None
    p1, p2, p3 = res
    if p1 | p2 | p3 != alive or p1 & p2 | p1 & p3 | p2 & p3:
        raise RuntimeError("solver left a vertex without exactly one color")
    if any(p & ~q for p, q in zip(res, lists)):
        raise RuntimeError("solver produced a color outside its list")
    if any(rows[v] & p for p in res for v in bits(p)):
        raise RuntimeError("solver produced an improper coloring")
    return res


def _propagate(rows, p1, p2, p3, done):
    """Unit propagation on the color classes p1, p2, p3, or None on a clash.

    Each vertex in exactly one class and not in ``done`` clears its row from
    that class, batch by batch; a vertex left in no class is a clash.
    Returns the classes and ``done`` at the fixpoint, which no order changes.
    """
    live = p1 | p2 | p3
    while one := (p1 ^ p2 ^ p3) & ~(p1 & p2 & p3) & ~done:
        done |= one
        # A vertex cleared by an earlier one of its batch is in no class,
        # which the check after the batch catches.
        m = one
        while m:
            b = m & -m
            m ^= b
            r = ~rows[b.bit_length() - 1]
            if p1 & b:
                p1 &= r
            elif p2 & b:
                p2 &= r
            elif p3 & b:
                p3 &= r
        if p1 | p2 | p3 != live:
            return None
    return p1, p2, p3, done


def _solve(rows, p1, p2, p3, done):
    # Branch on the lowest vertex with the fewest colors, trying 1, 2, 3.
    res = _propagate(rows, p1, p2, p3, done)
    if res is None:
        return None
    p1, p2, p3, done = res
    three = p1 & p2 & p3
    pick = (p1 & p2 | p1 & p3 | p2 & p3) & ~three or three
    if not pick:
        return p1, p2, p3
    b = pick & -pick
    if p1 & b and (res := _solve(rows, p1, p2 & ~b, p3 & ~b, done)):
        return res
    if p2 & b and (res := _solve(rows, p1 & ~b, p2, p3 & ~b, done)):
        return res
    if p3 & b:
        return _solve(rows, p1 & ~b, p2 & ~b, p3, done)
    return None


# ---------------------------------------------------------------------------
# updating along a path


def update_along_path(
    g: Graph, l: ListSystem, path: Sequence[int], alpha: int
) -> tuple[int | None, ...]:
    """Color the first path vertex ``alpha`` and update along the path.

    Each later vertex is updated from its predecessor whenever the
    predecessor's list is down to one color at that moment.  Returns one
    entry per vertex of ``g``: the color of a path vertex whose final list
    holds one color, and None for every other vertex.
    """
    _check_dims(g, l, *path)
    if not path:
        raise ValueError("path must be non-empty")
    if len(set(path)) != len(path):
        raise ValueError("path repeats a vertex")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"consecutive path vertices {a} and {b} are not adjacent")
    abit = color_bit(alpha)
    if not l.masks[path[0]] & abit:
        raise ValueError(f"color {alpha} is not in the list of vertex {path[0]}")
    masks = list(l.masks)
    masks[path[0]] = abit
    for prev, cur in zip(path, path[1:]):
        if masks[prev].bit_count() == 1:
            masks[cur] &= ~masks[prev]
    colors: list[int | None] = [None] * g.n
    for v in path:
        if masks[v].bit_count() == 1:
            colors[v] = masks[v].bit_length()
    return tuple(colors)

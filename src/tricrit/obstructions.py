"""Obstruction predicates: minimality, critical vertices, minimal cores.

An obstruction is a pair (G, L) with no proper coloring from the lists.
It is minimal when deleting any single vertex (with its list) restores
colorability; for list obstructions vertex deletion is the right notion
of minimality, and the predicates here only ever delete vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coloring import ListSystem, _l_colorable, l_colorable, lists_to_json
from .graphs import Graph, bits, induced_subgraph


def is_obstruction(g: Graph, l: ListSystem) -> bool:
    """True when (g, l) admits no proper coloring from the lists."""
    return l_colorable(g, l) is None


def is_minimal_obstruction(g: Graph, l: ListSystem) -> bool:
    """Uncolorable, and colorable again after deleting any one vertex."""
    return is_obstruction(g, l) and not _peel(g, l) and _critical(g, l, 0) == (1 << g.n) - 1


def critical_vertices(g: Graph, l: ListSystem) -> list[int]:
    """Vertices whose deletion restores colorability.

    Only defined for obstructions; a colorable instance raises ValueError.
    """
    if not is_obstruction(g, l):
        raise ValueError("critical vertices are only defined for uncolorable instances")
    return list(bits(_critical(g, l, _peel(g, l))))


def _peel(g: Graph, l: ListSystem) -> int:
    """The mask P of vertices removed by repeatedly deleting a vertex with
    fewer live neighbors than colors in its list.

    Whatever else is deleted, a coloring of the rest extends greedily to P in
    the reverse order of removal, so deleting P never changes colorability,
    and in an obstruction every vertex of P is non-critical.  The result does
    not depend on the order of removal.
    """
    rows, masks = g.rows, l.masks
    alive = todo = (1 << g.n) - 1
    while todo:
        b = todo & -todo
        todo ^= b
        v = b.bit_length() - 1
        if alive & b and (rows[v] & alive).bit_count() < masks[v].bit_count():
            alive ^= b
            todo |= rows[v] & alive
    return (1 << g.n) - 1 & ~alive


def _critical(g: Graph, l: ListSystem, peeled: int) -> int:
    """The mask of critical vertices of the obstruction (g, l), given its
    :func:`_peel` mask ``peeled``.

    Each vertex v not yet decided costs one solve of the instance without
    v and ``peeled``.  A coloring found there certifies v, and it certifies
    more: if a vertex x, given a color a of its list, clashes with exactly
    one neighbor u in class a, then recoloring x with a and deleting u is a
    coloring without u, so u is critical too.  Each such certificate is
    checked the same way in turn.
    """
    rows, masks = g.rows, l.masks
    live = todo = (1 << g.n) - 1 & ~peeled
    critical = 0
    while todo:
        b = todo & -todo
        todo ^= b
        classes = _l_colorable(rows, masks, live & ~b)
        if classes is None:
            continue
        critical |= b
        work = [(b.bit_length() - 1, classes)]
        while work:
            x, classes = work.pop()
            for a in range(3):
                hit = rows[x] & classes[a]
                if not masks[x] >> a & 1 or hit & (hit - 1) or not hit & todo:
                    continue
                todo ^= hit
                critical |= hit
                cert = [c & ~hit for c in classes]
                if rows[x] & cert[a]:
                    raise RuntimeError("certificate leaves a clash at the recolored vertex")
                cert[a] |= 1 << x
                work.append((hit.bit_length() - 1, cert))
    return critical


def extract_minimal(g: Graph, l: ListSystem) -> tuple[tuple[int, ...], Graph, ListSystem]:
    """Shrink an uncolorable instance to a minimal obstruction inside it.

    One pass in index order deletes every vertex whose deletion, on top of
    the deletions already made, keeps the instance uncolorable.  A vertex
    kept is critical in every smaller obstruction too, so the result is the
    same core as repeatedly deleting the lowest-indexed non-critical vertex
    and recomputing.  The vertices of :func:`_peel` are deleted without a
    solve, and every solve runs without them.  Returns the surviving
    original vertex indices with the induced graph and lists.
    """
    if not is_obstruction(g, l):
        raise ValueError("extract_minimal needs an uncolorable instance")
    return _extract(g, l, range(g.n), _peel(g, l))


def _extract(g: Graph, l: ListSystem, candidates: Iterable[int], peeled: int):
    """The pass of :func:`extract_minimal` over ``candidates`` only, in
    increasing order; every other vertex must be critical in (g, l), and
    ``peeled`` is its :func:`_peel` mask."""
    alive = (1 << g.n) - 1 & ~peeled
    for v in candidates:
        b = 1 << v
        if alive & b and _l_colorable(g.rows, l.masks, alive & ~b) is None:
            alive ^= b
    keep = tuple(bits(alive))
    return keep, induced_subgraph(g, keep), ListSystem(l.masks[v] for v in keep)


def is_4_vertex_critical(g: Graph) -> bool:
    """Not 3-colorable, but 3-colorable after deleting any one vertex."""
    return is_minimal_obstruction(g, ListSystem.full(g.n))


@dataclass(frozen=True)
class ObstructionReport:
    """Everything the ``check`` command reports about one instance.

    ``witness`` is a coloring, or None for an obstruction; ``non_critical``
    and ``extracted`` are empty and None for a colorable instance.
    """

    witness: tuple[int, ...] | None
    non_critical: tuple[int, ...]
    extracted: tuple[tuple[int, ...], Graph, ListSystem] | None

    @property
    def colorable(self) -> bool:
        return self.witness is not None

    @property
    def minimal(self) -> bool:
        return not self.colorable and not self.non_critical

    def to_json_dict(self) -> dict:
        out: dict = {
            "colorable": self.colorable,
            "witness": list(self.witness) if self.witness is not None else None,
            "minimal": self.minimal,
            "non_critical": list(self.non_critical),
        }
        if self.extracted is None:
            out["extracted"] = None
        else:
            verts, _, ls = self.extracted
            out["extracted"] = {"vertices": list(verts), "lists": lists_to_json(ls)}
        return out


def obstruction_report(g: Graph, l: ListSystem) -> ObstructionReport:
    """Solve, test minimality, list non-critical vertices, extract a core.

    One whole-instance solve, then one solve per vertex that no earlier
    coloring certified critical (:func:`_critical`) and one per non-critical
    vertex outside the peel, since a critical vertex stays critical in every
    obstruction inside (g, l).  Gr and Hr take 2 solves.
    """
    witness = l_colorable(g, l)
    if witness is not None:
        return ObstructionReport(witness, (), None)
    peeled = _peel(g, l)
    critical = _critical(g, l, peeled)
    non_crit = tuple(v for v in range(g.n) if not critical >> v & 1)
    return ObstructionReport(None, non_crit, _extract(g, l, non_crit, peeled))

"""Structural classification of patterns into finite and infinite regimes.

For a pattern H, two questions have a complete answer: whether only
finitely many 4-vertex-critical graphs avoid H, and whether only finitely
many minimal list obstructions avoid H.  Both hinge on the shape of H:
any cycle, any claw, or an induced 2P2+P1 puts H in the infinite regime
for both questions; 2P3 keeps 4-vertex-critical graphs finite but admits
infinitely many minimal list obstructions; everything else is a linear
forest inside P6 or inside P4+kP1 and both classes are finite.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, find_induced_embedding, induced_subgraph, path_graph, pattern_graph

CASE_CONTAINS_CYCLE = "contains-cycle"
CASE_CONTAINS_CLAW = "contains-claw"
CASE_CONTAINS_2P2_P1 = "contains-2P2+P1"
CASE_EQUALS_2P3 = "equals-2P3"
CASE_SUBGRAPH_OF_P6 = "induced-subgraph-of-P6"
CASE_SUBGRAPH_OF_P4_KP1 = "induced-subgraph-of-P4+kP1"

# case -> (finite 4-vertex-critical, finite list obstructions, what the
# sentence of :func:`describe` names); ``{k}`` stands for the verdict's k.
_CASES = {
    CASE_CONTAINS_CYCLE: (False, False, "a cycle"),
    CASE_CONTAINS_CLAW: (False, False, "an induced claw"),
    CASE_CONTAINS_2P2_P1: (False, False, "an induced 2P2+P1"),
    CASE_EQUALS_2P3: (True, False, "2P3"),
    CASE_SUBGRAPH_OF_P6: (True, True, "P6"),
    CASE_SUBGRAPH_OF_P4_KP1: (True, True, "P4+{k}P1"),
}
ALL_CASES = tuple(_CASES)

_SENTENCES = {
    (False, False): "The pattern contains {}, so infinitely many 4-vertex-critical "
                    "graphs and infinitely many minimal list obstructions avoid it.",
    (True, False): "The pattern is exactly {}: only finitely many 4-vertex-critical "
                   "graphs avoid it, but infinitely many minimal list obstructions do.",
    (True, True): "The pattern embeds in {}: only finitely many 4-vertex-critical "
                  "graphs and finitely many minimal list obstructions avoid it.",
}


@dataclass(frozen=True)
class DichotomyVerdict:
    """Classification of one pattern.

    ``finite_vertex_critical`` says whether only finitely many
    4-vertex-critical graphs avoid the pattern; ``finite_list_obstructions``
    says the same about minimal list obstructions.  Both are read off the
    case.  ``witness`` is the embedded forbidden structure for the infinite
    cases, or the embedding into the host path(s) for the finite cases.
    ``k`` is the minimal k for the P4+kP1 case.  That host has 4 + k
    vertices, which can exceed ``MAX_VERTICES``: ``classify(Graph(128))``
    gives k = 126, so the host cannot always be built as a :class:`Graph`
    or parsed as a pattern.
    """

    case: str
    witness: tuple[int, ...] | None = None
    k: int | None = None

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"unknown case {self.case!r}")

    @property
    def finite_vertex_critical(self) -> bool:
        return _CASES[self.case][0]

    @property
    def finite_list_obstructions(self) -> bool:
        return _CASES[self.case][1]

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "finite_vertex_critical": self.finite_vertex_critical,
            "finite_list_obstructions": self.finite_list_obstructions,
            "witness": list(self.witness) if self.witness is not None else None,
            "k": self.k,
        }


def is_induced_subgraph_of_P6(h) -> tuple[int, ...] | None:
    """An embedding of ``h`` into the 6-vertex path, or None.

    The embedding maps each vertex of ``h`` to a position 0..5; edges and
    non-edges are both preserved.
    """
    return find_induced_embedding(path_graph(6), h)


def is_induced_subgraph_of_P4kP1(h) -> tuple[int, tuple[int, ...]] | None:
    """The minimal k with ``h`` inside P4 plus k isolated vertices, or None.

    Returns (k, embedding) where host vertices 0..3 form the path and
    4..3+k are the isolated vertices.
    """
    g = pattern_graph(h)
    # Every vertex with a neighbor must sit on the P4; isolated vertices are
    # interchangeable, so only how many of them ride on the P4 matters.
    lone = [v for v in range(g.n) if not g.rows[v]]
    core = [v for v in range(g.n) if g.rows[v]]
    for s in range(min(len(lone), 4 - len(core)), -1, -1):
        on_path = sorted(core + lone[:s])
        emb = find_induced_embedding(path_graph(4), induced_subgraph(g, on_path))
        if emb is not None:
            image = dict(zip(on_path, emb)) | dict(zip(lone[s:], range(4, 4 + g.n)))
            return len(lone) - s, tuple(image[v] for v in range(g.n))
    return None


def _find_short_cycle(g: Graph) -> tuple[int, ...] | None:
    """A shortest cycle, which is always chordless, or None in a forest.

    For each edge (u, v), a BFS from u that avoids the edge finds a
    shortest u-v path, so a shortest cycle through the edge.  The BFS stops
    at v, and before a layer that could only tie the best cycle so far; the
    first triangle ends the search.
    """
    rows = g.rows
    best: list[int] | None = None
    for u, v in g.edges():
        first = rows[u] & ~(1 << v)
        prev = dict.fromkeys(bits(first), u)
        seen = first | 1 << u
        queue = list(prev)
        size = 3  # the cycle's vertex count if the next layer reaches v
        while queue and not seen >> v & 1 and (best is None or size < len(best)):
            layer = []
            for a in queue:
                new = rows[a] & ~seen
                seen |= new
                for b in bits(new):
                    prev[b] = a
                    layer.append(b)
                if new >> v & 1:
                    break
            queue = layer
            size += 1
        if seen >> v & 1:
            best = [v]
            while best[-1] != u:
                best.append(prev[best[-1]])
            if len(best) == 3:
                break
    return tuple(best) if best is not None else None


def classify(h) -> DichotomyVerdict:
    """Decide the finite/infinite regime of a pattern.

    The finite hosts are tried first: exactly 2P3, then P4+kP1 with the
    least k, then P6.  A pattern that fits none of them contains a cycle, a
    claw or an induced 2P2+P1, searched for in that order.
    """
    g = pattern_graph(h)
    emb = find_induced_embedding(g, "2P3") if g.n == 6 else None
    if emb is not None:
        return DichotomyVerdict(CASE_EQUALS_2P3, emb)
    res = is_induced_subgraph_of_P4kP1(g)
    if res is not None:
        k, emb = res
        return DichotomyVerdict(CASE_SUBGRAPH_OF_P4_KP1, emb, k)
    emb = is_induced_subgraph_of_P6(g)
    if emb is not None:
        return DichotomyVerdict(CASE_SUBGRAPH_OF_P6, emb)
    cyc = _find_short_cycle(g)
    if cyc is not None:
        return DichotomyVerdict(CASE_CONTAINS_CYCLE, cyc)
    emb = find_induced_embedding(g, "claw")
    if emb is not None:
        return DichotomyVerdict(CASE_CONTAINS_CLAW, emb)
    emb = find_induced_embedding(g, "2P2+P1")
    if emb is not None:
        return DichotomyVerdict(CASE_CONTAINS_2P2_P1, emb)
    raise AssertionError("a pattern outside every finite host has an infinite witness")


def describe(verdict: DichotomyVerdict) -> str:
    """One readable sentence stating what the verdict means."""
    finite_vc, finite_lo, phrase = _CASES[verdict.case]
    return _SENTENCES[finite_vc, finite_lo].format(phrase.format(k=verdict.k))

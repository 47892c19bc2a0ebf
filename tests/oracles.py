"""Independent reference implementations used to check the package.

Everything here is deliberately naive: exhaustive products over colorings,
permutation backtracking for isomorphism, subset enumeration for induced
containment, and a from-scratch filter for propagation configurations.
The canonical-form search that builds the graph census, unit propagation
one vertex at a time and domination live here too, since only the tests
use them.  None of it shares code with the paths it is used to check.

The paper's own rules (the chord admissibility rule, the P6 count vector
and the G_r/H_r constructions) are not restated here: the tests take them
from the benchmark's ``bench/reference.py``, which imports nothing from
tricrit, and the configuration filter below uses its ``chord_ok``.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Sequence

from tricrit.coloring import ListSystem
from tricrit.graphs import Graph

from reference import chord_ok

# Number of isomorphism classes of simple graphs on 0..8 vertices, the
# standard census values; used to validate the generated class lists.
GRAPH_CENSUS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def brute_l_colorable(g: Graph, lists: ListSystem) -> tuple[int, ...] | None:
    """Try every assignment from the lists; first proper one wins."""
    choices = [lists.colors(v) for v in range(g.n)]
    edges = g.edges()
    for assignment in product(*choices):
        if all(assignment[a] != assignment[b] for a, b in edges):
            return assignment
    return None


def critical_vertices_brute(g: Graph, lists: ListSystem) -> list[int]:
    """Vertices whose deletion leaves a colorable instance, by one exhaustive
    search of each vertex-deleted subgraph."""
    out = []
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        new = {u: i for i, u in enumerate(keep)}
        sub = Graph(g.n - 1, [(new[a], new[b]) for a, b in g.edges() if v not in (a, b)])
        if brute_l_colorable(sub, ListSystem(lists.masks[u] for u in keep)) is not None:
            out.append(v)
    return out


def is_4_vertex_critical_brute(g: Graph) -> bool:
    """Not 3-colorable, while every vertex-deleted subgraph is."""
    full = ListSystem.full(g.n)
    return brute_l_colorable(g, full) is None and len(critical_vertices_brute(g, full)) == g.n


def l_colorable_reference(g: Graph, l: ListSystem) -> tuple[int, ...] | None:
    """The queue-based solver that the bitset solver replaced, kept to pin
    its search tree: the same fail-first branching must return the same
    coloring.  One vertex mask per vertex; the queue holds the one-color
    vertices whose color is not yet deleted from their neighbors' lists."""
    if l.n != g.n:
        raise ValueError(f"list system has {l.n} entries for a {g.n}-vertex graph")
    if 0 in l.masks:
        return None
    masks = list(l.masks)
    res = _solve_reference(g.rows, masks, [v for v in range(g.n) if masks[v].bit_count() == 1])
    if res is None:
        return None
    return tuple({1: 1, 2: 2, 4: 3}[m] for m in res)


def _solve_reference(rows, masks, queue):
    # A clash between two one-color neighbors shows up as an emptied list.
    while queue:
        v = queue.pop()
        bit = masks[v]
        m = rows[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            mu = masks[u]
            if mu & bit:
                mu &= ~bit
                if not mu:
                    return None
                masks[u] = mu
                if mu.bit_count() == 1:
                    queue.append(u)
    pick = min(
        (v for v, m in enumerate(masks) if m.bit_count() > 1),
        key=lambda v: masks[v].bit_count(),
        default=None,
    )
    if pick is None:
        return masks
    for b in (1, 2, 4):
        if masks[pick] & b:
            branch = masks[:]
            branch[pick] = b
            res = _solve_reference(rows, branch, [pick])
            if res is not None:
                return res
    return None


def is_iso_brute(g1: Graph, g2: Graph) -> bool:
    """Isomorphism by permutation backtracking with degree pruning."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    n = g1.n
    d1 = [g1.degree(v) for v in range(n)]
    d2 = [g2.degree(v) for v in range(n)]
    if sorted(d1) != sorted(d2):
        return False
    image = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for u in range(n):
            if used[u] or d1[v] != d2[u]:
                continue
            if any(
                g1.has_edge(v, w) != g2.has_edge(u, image[w])
                for w in range(v)
            ):
                continue
            image[v] = u
            used[u] = True
            if place(v + 1):
                return True
            used[u] = False
            image[v] = -1
        return False

    return place(0)


def contains_induced_brute(g: Graph, h: Graph) -> bool:
    """Induced containment by trying every vertex subset of the right size."""
    if h.n > g.n:
        return False
    from tricrit.graphs import induced_subgraph

    for subset in combinations(range(g.n), h.n):
        if is_iso_brute(induced_subgraph(g, subset), h):
            return True
    return False


def contains_induced_through_brute(g: Graph, h: Graph, a: int) -> bool:
    """Induced containment using vertex ``a``, over every subset holding ``a``."""
    from tricrit.graphs import induced_subgraph

    others = [v for v in range(g.n) if v != a]
    for subset in combinations(others, h.n - 1):
        if is_iso_brute(induced_subgraph(g, (a, *subset)), h):
            return True
    return False


def is_witness_brute(g: Graph, h: Graph, alive: int, a: int, mask: int) -> bool:
    """Is ``mask`` the vertex mask of an induced copy of ``h`` in ``g`` that
    uses ``a`` and lies inside ``alive``?"""
    from tricrit.graphs import bits, induced_subgraph

    return bool(
        mask >> a & 1
        and not mask & ~alive
        and mask.bit_count() == h.n
        and is_iso_brute(induced_subgraph(g, bits(mask)), h)
    )


def complete_graph(t: int) -> Graph:
    return Graph(t, [(i, j) for i in range(t) for j in range(i + 1, t)])


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of ``g`` under ``perm``: vertex v becomes perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def automorphism_orbits_brute(h: Graph) -> list[list[int]]:
    """The orbits of Aut(h), each sorted, ordered by lowest vertex; every
    permutation of the vertex set is tried, so h has at most 7 vertices."""
    if h.n > 7:
        raise ValueError(f"brute-force orbits need at most 7 vertices, got {h.n}")
    edges = h.edges()
    auts = [
        perm for perm in permutations(range(h.n))
        if all(h.rows[perm[u]] >> perm[v] & 1 for u, v in edges)
    ]
    return sorted(map(sorted, {frozenset(perm[v] for perm in auts) for v in range(h.n)}))


# ---------------------------------------------------------------------------
# canonical forms


def canonical_form(g: Graph) -> bytes:
    """A canonical byte string for ``g``.

    Two graphs get the same string exactly when they are isomorphic.  The
    string is produced by equitable refinement plus individualization,
    taking the lexicographically smallest discrete encoding.
    """
    if g.n == 0:
        return bytes([0])
    return _canon_search(g.rows, [tuple(range(g.n))], g.n)


def _refine(rows: Sequence[int], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        cells = new_cells
        if not changed:
            return cells


def _canon_search(rows, cells, n) -> bytes:
    cells = _refine(rows, cells)
    for idx, cell in enumerate(cells):
        if len(cell) > 1:
            # Swapping two twins is an automorphism that fixes the partition,
            # so one vertex of each set of twins stands for the whole set.
            reps: list[int] = []
            for v in cell:
                if not any(rows[u] & ~(1 << v) == rows[v] & ~(1 << u) for u in reps):
                    reps.append(v)
            best = None
            for v in reps:
                child = cells[:idx] + [(v,), tuple(u for u in cell if u != v)] + cells[idx + 1:]
                cand = _canon_search(rows, child, n)
                if best is None or cand < best:
                    best = cand
            return best
    order = [cell[0] for cell in cells]
    return _encode_labeled(rows, order, n)


def _encode_labeled(rows, order, n) -> bytes:
    out = bytearray([n])
    acc = 0
    nbits = 0
    for i in range(n):
        ri = rows[order[i]]
        for j in range(i + 1, n):
            acc = acc << 1 | (ri >> order[j] & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


@lru_cache(maxsize=None)
def graphs_on(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class on exactly n vertices."""
    if n == 0:
        return (Graph(0),)
    seen: dict[bytes, Graph] = {}
    for g in graphs_on(n - 1):
        for nb in range(1 << (n - 1)):
            rows = [r | ((nb >> v & 1) << (n - 1)) for v, r in enumerate(g.rows)]
            rows.append(nb)
            cand = Graph.from_rows(rows)
            key = canonical_form(cand)
            if key not in seen:
                seen[key] = cand
    out = tuple(seen.values())
    if n < len(GRAPH_CENSUS):
        assert len(out) == GRAPH_CENSUS[n], (n, len(out))
    return out


def graphs_upto(n: int) -> list[Graph]:
    out: list[Graph] = []
    for k in range(n + 1):
        out.extend(graphs_on(k))
    return out


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def random_lists(rng: random.Random, n: int, allow_empty: bool = False) -> ListSystem:
    lo = 0 if allow_empty else 1
    return ListSystem([rng.randint(lo, 7) for _ in range(n)])


# ---------------------------------------------------------------------------
# unit propagation, one vertex at a time


def propagate_reference(g: Graph, l: ListSystem) -> tuple[ListSystem, frozenset[int]] | None:
    """Each one-color vertex in turn deletes its color from its neighbors'
    lists, until no list changes.  Returns the lists and the set of
    one-color vertices, or None once a list is empty."""
    masks = list(l.masks)
    changed = True
    while changed:
        if 0 in masks:
            return None
        changed = False
        for v in range(g.n):
            if masks[v].bit_count() == 1:
                for u in g.neighbors(v):
                    if masks[u] & masks[v]:
                        masks[u] &= ~masks[v]
                        changed = True
    return ListSystem(masks), frozenset(v for v in range(g.n) if masks[v].bit_count() == 1)


# ---------------------------------------------------------------------------
# propagation configurations, from scratch


def config_color_seqs(k: int) -> list[tuple[int, ...]]:
    seqs: list[list[int]] = [[1]]
    for _ in range(k - 1):
        seqs = [s + [c] for s in seqs for c in (1, 2, 3) if c != s[-1]]
    return [tuple(s) for s in seqs]


def config_graph(k: int, chords) -> Graph:
    edges = [(i, i + 1) for i in range(k - 1)]
    edges.extend((i - 1, j - 1) for i, j in chords)
    return Graph(k, edges)


def brute_configs(forbidden_graphs: list[Graph], k: int) -> list[tuple[tuple[int, ...], tuple]]:
    """Every admissible pattern-free configuration of length exactly k, as
    (colors, chords) with 1-based chords in increasing (i, j) order."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 2, k + 1)]
    out = []
    for cs in config_color_seqs(k):
        ok_pairs = [p for p in pairs if chord_ok(cs, *p)]
        for mask in range(1 << len(ok_pairs)):
            chosen = tuple(ok_pairs[t] for t in range(len(ok_pairs)) if mask >> t & 1)
            g = config_graph(k, chosen)
            if not any(contains_induced_brute(g, h) for h in forbidden_graphs):
                out.append((cs, chosen))
    return out


def dfs_stream_uncached(forbidden_graphs: list[Graph], max_n: int) -> str:
    """The emission stream of every admissible pattern-free configuration of
    length 1..``max_n``, grown depth first over all three colors.

    Each candidate is checked with ``PatternSearch.through`` at its new
    vertex, with no witnesses and no 2<->3 symmetry, so it checks the
    propagation search's bookkeeping rather than the pattern search.
    """
    from tricrit.graphs import PatternSearch

    searches = [PatternSearch(h) for h in forbidden_graphs]
    lines = []

    def free(rows: list[int]) -> bool:
        k = len(rows) - 1
        return not any(s.through(rows, (2 << k) - 1, k) for s in searches)

    def grow(cs: tuple[int, ...], chords: tuple, rows: list[int]) -> None:
        k = len(cs)
        es = ",".join(f"{i}-{j}" for i, j in sorted(chords))
        lines.append((k, "".join(map(str, cs)), es or "-"))
        if k == max_n:
            return
        for alpha in (1, 2, 3):
            if alpha == cs[-1]:
                continue
            ext = cs + (alpha,)
            ok = [i for i in range(1, k) if chord_ok(ext, i, k + 1)]
            for mask in range(1 << len(ok)):
                chosen = [i for t, i in enumerate(ok) if mask >> t & 1]
                new = rows + [1 << (k - 1)]
                new[k - 1] |= 1 << k
                for i in chosen:
                    new[i - 1] |= 1 << k
                    new[k] |= 1 << (i - 1)
                if free(new):
                    grow(ext, chords + tuple((i, k + 1) for i in chosen), new)

    if max_n and free([0]):
        grow((1,), (), [0])
    return "".join(f"{k} {cs} {es}\n" for k, cs, es in sorted(lines))


def assert_minimal_obstruction_sane(g: Graph, lists: ListSystem):
    """The sanity battery every minimal obstruction must survive."""
    from tricrit.coloring import l_colorable
    from tricrit.graphs import components, induced_subgraph

    assert l_colorable(g, lists) is None, "claimed obstruction is colorable"
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        gd = induced_subgraph(g, keep)
        ld = ListSystem(lists.masks[u] for u in keep)
        assert l_colorable(gd, ld) is not None, f"deleting {v} leaves it uncolorable"
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert not dominates(g, lists, u, v), f"{u} dominates {v}"
    if g.n > 1:
        assert len(components(g)) == 1, "a minimal obstruction must be connected"


def dominates(g: Graph, l: ListSystem, u: int, v: int) -> bool:
    """Does ``u`` dominate ``v``: L(u) contained in L(v) and N(v) in N(u)?

    Neighborhoods are open, so adjacent vertices never dominate each other.
    A minimal obstruction can never contain a dominating pair.  ``u`` and
    ``v`` are assumed to be distinct vertices of ``g``.
    """
    return not l.masks[u] & ~l.masks[v] and not g.rows[v] & ~g.rows[u]


def extract_minimal_restart(g: Graph, lists: ListSystem) -> tuple[int, ...]:
    """Vertices of the minimal core found by deletion with restarts.

    Deletes the lowest-indexed vertex whose deletion keeps the instance
    uncolorable, then rescans from the lowest index; stops when every
    remaining vertex is critical.  Colorability comes from the package's
    solver, which the coloring tests check against ``brute_l_colorable``.
    """
    from tricrit.coloring import l_colorable
    from tricrit.graphs import induced_subgraph

    def colorable(vs) -> bool:
        sub = induced_subgraph(g, vs)
        return l_colorable(sub, ListSystem(lists.masks[v] for v in vs)) is not None

    alive = list(range(g.n))
    assert not colorable(alive), "extraction needs an uncolorable instance"
    changed = True
    while changed:
        changed = False
        for v in alive:
            rest = [u for u in alive if u != v]
            if not colorable(rest):
                alive = rest
                changed = True
                break
    return tuple(alive)

from __future__ import annotations

import itertools
import random

import pytest

from tricrit.coloring import FULL_MASK, ListSystem, _l_colorable, l_colorable
from tricrit.families import gen_Gr, gen_Hr
from tricrit.graphs import (
    Graph,
    components,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    path_graph,
)
from tricrit.obstructions import (
    ObstructionReport,
    _peel,
    critical_vertices,
    extract_minimal,
    is_4_vertex_critical,
    is_minimal_obstruction,
    is_obstruction,
    obstruction_report,
)

from oracles import (
    brute_l_colorable,
    complete_graph,
    critical_vertices_brute,
    dominates,
    extract_minimal_restart,
    graphs_on,
    random_graph,
    random_lists,
    relabel,
)


def k4_plus_isolated(k: int) -> tuple[Graph, ListSystem]:
    g = disjoint_union(complete_graph(4), Graph(k))
    return g, ListSystem.full(g.n)


def test_is_obstruction_basics():
    g, l = gen_Hr(3)
    assert is_obstruction(g, l)
    assert not is_obstruction(cycle_graph(5), ListSystem.full(5))
    assert is_obstruction(Graph(1), ListSystem.from_sets([()]))


def test_minimal_obstruction_examples():
    g, l = gen_Hr(5)
    assert is_minimal_obstruction(g, l)
    assert is_minimal_obstruction(complete_graph(4), ListSystem.full(4))
    gk, lk = k4_plus_isolated(3)
    assert is_obstruction(gk, lk)
    assert not is_minimal_obstruction(gk, lk)
    assert not is_minimal_obstruction(cycle_graph(4), ListSystem.full(4))


def test_critical_vertices():
    g, l = k4_plus_isolated(1)
    assert critical_vertices(g, l) == [0, 1, 2, 3]
    gh, lh = gen_Hr(5)
    assert critical_vertices(gh, lh) == list(range(14))
    with pytest.raises(ValueError):
        critical_vertices(cycle_graph(3), ListSystem.full(3))


def test_extract_minimal_examples():
    g, l = k4_plus_isolated(3)
    verts, core, core_l = extract_minimal(g, l)
    assert verts == (0, 1, 2, 3)
    assert core == complete_graph(4)
    assert core_l == ListSystem.full(4)
    with pytest.raises(ValueError):
        extract_minimal(path_graph(3), ListSystem.full(3))


def test_extract_minimal_pendant():
    # hang one full-list vertex off the middle of a minimal obstruction:
    # extraction sheds exactly the pendant
    gh, lh = gen_Hr(5)
    edges = list(gh.edges()) + [(7, 14)]
    g = Graph(15, edges)
    l = ListSystem(list(lh.masks) + [FULL_MASK])
    verts, core, core_l = extract_minimal(g, l)
    assert verts == tuple(range(14))
    assert core == gh
    assert core_l == lh


def test_extract_minimal_is_deterministic():
    g, l = k4_plus_isolated(2)
    assert extract_minimal(g, l) == extract_minimal(g, l)


def test_extract_minimal_output_is_minimal():
    for seed in range(120):
        n = 1 + seed % 8
        rng = random.Random(seed)
        g = random_graph(rng, n, 0.6)
        l = random_lists(rng, n, allow_empty=True)
        if l_colorable(g, l) is not None:
            continue
        verts, core, core_l = extract_minimal(g, l)
        assert verts == extract_minimal_restart(g, l)
        assert obstruction_report(g, l).extracted == (verts, core, core_l)
        assert core == induced_subgraph(g, verts)
        assert set(verts) <= set(range(n))
        assert core.n == len(verts)
        for a, b in zip(verts, verts[1:]):
            assert a < b
        assert is_minimal_obstruction(core, core_l)
        for idx, v in enumerate(verts):
            assert core_l.masks[idx] == l.masks[v]


def padded(rng, g, l, pads, degree=2):
    """(g, l) plus full-list vertices, each joined to ``degree`` earlier
    vertices, under a random relabelling.  Returns the instance and the new
    labels of the vertices of g."""
    n = g.n + pads
    edges = list(g.edges())
    for w in range(g.n, n):
        edges += [(u, w) for u in rng.sample(range(w), min(w, degree))]
    perm = list(range(n))
    rng.shuffle(perm)
    masks = [0] * n
    for v, m in enumerate(list(l.masks) + [FULL_MASK] * pads):
        masks[perm[v]] = m
    return relabel(Graph(n, edges), perm), ListSystem(masks), sorted(perm[: g.n])


def test_extract_minimal_sheds_padding_like_restart_scan():
    # Every uncolorable subset contains the whole Hr core: without one of
    # its vertices the core colors, and each padding vertex then sees at
    # most two colored earlier vertices.  So both scans return the core.
    rng = random.Random(7)
    for r in (1, 2, 3, 4):
        for pads in (1, 2, 4):
            g, l, core_verts = padded(rng, *gen_Hr(r), pads)
            verts, core, core_l = extract_minimal(g, l)
            assert verts == extract_minimal_restart(g, l) == tuple(core_verts)
            assert is_minimal_obstruction(core, core_l)


def count_solves(monkeypatch) -> list:
    """Count the calls of ``_l_colorable``, the entry every solve goes through."""
    import tricrit.coloring as coloring
    import tricrit.obstructions as obstructions

    calls = []
    solve = coloring._l_colorable

    def counting_solve(rows, masks, alive):
        calls.append(alive)
        return solve(rows, masks, alive)

    for mod in (coloring, obstructions):
        monkeypatch.setattr(mod, "_l_colorable", counting_solve)
    return calls


def test_extract_minimal_solves_once_per_vertex(monkeypatch):
    # One solve of the whole instance and one per vertex outside the peel:
    # the isolated vertices have fewer neighbors than colors, so they go
    # without a solve.
    calls = count_solves(monkeypatch)
    g, l = k4_plus_isolated(10)
    assert extract_minimal(g, l)[0] == (0, 1, 2, 3)
    assert len(calls) == 1 + 4 == 5


def test_obstruction_report_skips_known_critical_vertices(monkeypatch):
    # One solve of the whole instance and one deletion solve, whose coloring
    # of K4 - 0 certifies 1, 2 and 3; the isolated vertices are peeled, so
    # neither the criticality test nor the extraction solves for them.
    calls = count_solves(monkeypatch)
    g, l = k4_plus_isolated(10)
    rep = obstruction_report(g, l)
    assert rep.non_critical == tuple(range(4, 14))
    assert rep.extracted[0] == (0, 1, 2, 3)
    assert len(calls) == 2


def test_padding_of_Hr_costs_no_solve(monkeypatch):
    calls = count_solves(monkeypatch)
    rng = random.Random(11)
    for r in (1, 2, 3, 4):
        for pads in (1, 2, 4, 9):
            g, l, core_verts = padded(rng, *gen_Hr(r), pads)
            assert _peel(g, l) == sum(1 << v for v in range(g.n) if v not in core_verts)
            calls.clear()
            rep = obstruction_report(g, l)
            assert rep.extracted[0] == tuple(core_verts)
            assert len(calls) == 2
            calls.clear()
            assert extract_minimal(g, l)[0] == tuple(core_verts)
            assert len(calls) == 1 + len(core_verts)


def test_minimality_of_the_families_takes_two_solves(monkeypatch):
    # The whole-instance solve and the deletion of vertex 0; that coloring's
    # certificates reach every other vertex.
    calls = count_solves(monkeypatch)
    for r in (1, 2, 5, 12):
        calls.clear()
        assert is_minimal_obstruction(*gen_Hr(r))
        assert len(calls) == 2
        calls.clear()
        assert is_4_vertex_critical(gen_Gr(r))
        assert len(calls) == 2


def analysis_instance(rng, n):
    """A random instance on n vertices with lists of mostly one or two
    colors, some empty; or a padded K4 or H1/H2, some padding vertices with
    three neighbors so that not all of them peel."""
    kind = rng.randrange(3)
    if kind == 0:
        g = random_graph(rng, n, rng.random())
        weights = [1] + [4] * 3 + [5] * 3 + [2]  # masks 0, one color, two, three
        return g, ListSystem(rng.choices(range(8), weights, k=n))
    core = (complete_graph(4), ListSystem.full(4)) if kind == 1 else gen_Hr(rng.choice((1, 2)))
    return padded(rng, *core, rng.randint(0, 3), rng.choice((2, 2, 3)))[:2]


def test_analysis_agrees_with_brute():
    for seed in range(200):
        n = seed % 10
        g, l = analysis_instance(random.Random(seed), n)
        if brute_l_colorable(g, l) is not None:
            with pytest.raises(ValueError):
                critical_vertices(g, l)
            assert not is_minimal_obstruction(g, l)
            assert obstruction_report(g, l).colorable
            continue
        crit = critical_vertices_brute(g, l)
        assert critical_vertices(g, l) == crit
        assert is_minimal_obstruction(g, l) == (len(crit) == g.n)
        assert not _peel(g, l) & sum(1 << v for v in crit)
        rep = obstruction_report(g, l)
        assert rep.non_critical == tuple(v for v in range(g.n) if v not in crit)
        assert rep.minimal == (len(crit) == g.n)
        assert rep.extracted[0] == extract_minimal_restart(g, l)


def _colorable_without(g, l, dead):
    """Is (g, l) colorable once the vertices in the bitmask ``dead`` are deleted?
    The solver's live mask is how every deletion solve deletes vertices."""
    return _l_colorable(g.rows, l.masks, (1 << g.n) - 1 & ~dead) is not None


def test_colorable_without_counts_only_live_empty_lists():
    # No list has one color, so no propagation runs before the first branch;
    # the empty list decides the answer only while its vertex is live.
    g = path_graph(3)
    l = ListSystem.from_sets([(1, 2), (), (2, 3)])
    assert l_colorable(g, l) is None
    assert not _colorable_without(g, l, 0b001)
    assert _colorable_without(g, l, 0b010)


def test_colorable_without_agrees_with_brute():
    for seed in range(150):
        n = seed % 10
        rng = random.Random(seed)
        g = random_graph(rng, n, rng.random())
        l = ListSystem([7 if rng.random() < 0.5 else rng.randint(0, 7) for _ in range(n)])
        dead = rng.getrandbits(n)
        keep = [v for v in range(n) if not dead >> v & 1]
        sub = induced_subgraph(g, keep), ListSystem(l.masks[v] for v in keep)
        assert _colorable_without(g, l, dead) == (brute_l_colorable(*sub) is not None)


def test_dominates():
    g = path_graph(3)
    l = ListSystem.from_sets([(1,), (1, 2), (1, 2)])
    assert dominates(g, l, 0, 2)  # same closed fan-in, smaller list
    assert not dominates(g, l, 2, 0)  # L(2) not within L(0)
    assert not dominates(g, l, 0, 1)  # adjacent, open neighborhoods differ


def test_dominates_needs_neighborhood_containment():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    l = ListSystem.from_sets([(1,), (1, 2), (1,), (1, 2)])
    assert not dominates(g, l, 0, 2)  # N(2) has vertex 3, N(0) does not
    assert dominates(g, l, 2, 0)


def test_is_4_vertex_critical_examples():
    assert is_4_vertex_critical(complete_graph(4))
    assert not is_4_vertex_critical(cycle_graph(5))
    assert not is_4_vertex_critical(complete_graph(5))
    # odd wheel: 5-cycle plus a hub
    rim = cycle_graph(5)
    hub_edges = list(rim.edges()) + [(5, i) for i in range(5)]
    assert is_4_vertex_critical(Graph(6, hub_edges))
    assert is_4_vertex_critical(gen_Gr(2))


def test_obstruction_report_colorable():
    rep = obstruction_report(cycle_graph(4), ListSystem.full(4))
    assert rep.colorable and rep.witness is not None and not rep.minimal
    assert rep.extracted is None
    d = rep.to_json_dict()
    assert d["colorable"] is True and len(d["witness"]) == 4


def test_obstruction_report_minimal():
    g, l = gen_Hr(2)
    rep = obstruction_report(g, l)
    assert rep == ObstructionReport(None, (), ((0, 1, 2, 3, 4), g, l))
    assert not rep.colorable and rep.minimal
    d = rep.to_json_dict()
    assert d["minimal"] is True and d["extracted"]["vertices"] == [0, 1, 2, 3, 4]


def test_obstruction_report_non_minimal():
    g, l = k4_plus_isolated(1)
    rep = obstruction_report(g, l)
    assert not rep.colorable and not rep.minimal
    assert rep.non_critical == (4,)
    assert rep.extracted[0] == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# every small-list instance on a connected graph of up to 4 vertices


def test_small_list_instances_exhaustive():
    # Every connected graph on 1..4 vertices with every list of at most two
    # colors (masks 0..6), the empty list included; criticality and
    # minimality against exhaustive search.
    instances = obstructions = minimal = 0
    for n in range(1, 5):
        for g in graphs_on(n):
            if len(components(g)) > 1:
                continue
            for masks in itertools.product(range(7), repeat=n):
                l = ListSystem(masks)
                instances += 1
                if brute_l_colorable(g, l) is not None:
                    assert not is_minimal_obstruction(g, l), (g.edges(), masks)
                    continue
                obstructions += 1
                crit = critical_vertices_brute(g, l)
                assert critical_vertices(g, l) == crit, (g.edges(), masks)
                assert is_minimal_obstruction(g, l) == (len(crit) == n), (g.edges(), masks)
                minimal += len(crit) == n
    assert (instances, obstructions, minimal) == (15_148, 11_011, 481)

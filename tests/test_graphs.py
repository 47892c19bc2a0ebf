from __future__ import annotations

import gc
import hashlib
import random

import networkx as nx
import pytest

from tricrit import graphs
from tricrit.graphs import (
    Graph,
    Graph6Error,
    PatternSearch,
    _search,
    bits,
    claw_graph,
    components,
    contains_induced,
    cycle_graph,
    disjoint_union,
    find_induced_embedding,
    has_induced_path,
    induced_subgraph,
    parse_graph6,
    parse_pattern,
    path_graph,
    pattern_graph,
    write_graph6,
)

from oracles import (
    automorphism_orbits_brute,
    canonical_form,
    complete_graph,
    contains_induced_through_brute,
    graphs_upto,
    is_iso_brute,
    is_witness_brute,
    random_graph,
    relabel,
)


def test_graph_construction_rejects_bad_edges():
    for edge in ((0, 3), (3, 0)):
        with pytest.raises(ValueError):
            Graph(3, [edge])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    for edge in ((0, 2.0), (True, 2)):  # (True, 2) would be the edge (1, 2)
        with pytest.raises(ValueError):
            Graph(3, [edge])


def test_from_rows_validates():
    with pytest.raises(ValueError):
        Graph.from_rows([0b10, 0b000])  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_rows([0b01])  # self-loop
    for rows in ([1.0], [0b10, True]):  # True == 1 would be accepted as a row
        with pytest.raises(ValueError):
            Graph.from_rows(rows)
    g = Graph.from_rows([0b010, 0b101, 0b010])
    assert g == path_graph(3)


def test_basic_accessors():
    g = cycle_graph(5)
    assert g.edge_count() == 5
    assert g.degree(0) == 2
    assert g.neighbors(0) == [1, 4]
    assert g.has_edge(4, 0) and not g.has_edge(0, 2)
    assert eval(repr(g)) == g


def test_induced_subgraph_examples():
    assert induced_subgraph(cycle_graph(5), [0, 1, 2]) == path_graph(3)
    assert induced_subgraph(complete_graph(4), [0, 2, 3]) == complete_graph(3)
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 5])
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 0])
    for xs in ([1, "a"], [None, 0]):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(4), xs)


def test_induced_subgraph_matches_relabelling():
    # Move the selection to 0..k-1 in ascending order and the rest after
    # it; the first k vertices of that image are the induced subgraph.
    for seed in range(100):
        n = seed % 41
        rng = random.Random(seed)
        g = random_graph(rng, n, rng.random())
        xs = sorted(rng.sample(range(n), rng.randint(0, n)))
        order = xs + [v for v in range(n) if v not in xs]
        perm = [0] * n
        for i, v in enumerate(order):
            perm[v] = i
        k = len(xs)
        want = Graph(k, [(u, v) for u, v in relabel(g, perm).edges() if v < k])
        rng.shuffle(xs)
        assert induced_subgraph(g, iter(xs)) == want


def test_induced_subgraph_on_everything_is_identity():
    for seed in range(100):
        n = seed % 9
        g = random_graph(random.Random(seed), n, 0.4)
        assert induced_subgraph(g, range(n)) == g


def test_components():
    g = disjoint_union(path_graph(3), path_graph(3))
    assert components(g) == [[0, 1, 2], [3, 4, 5]]
    assert components(Graph(0)) == []


def test_pattern_parsing():
    assert parse_pattern("P6") == path_graph(6)
    assert parse_pattern("C4") == cycle_graph(4)
    assert parse_pattern("claw") == claw_graph()
    assert parse_pattern("2P3") == disjoint_union(path_graph(3), path_graph(3))
    assert parse_pattern("P4+2P1").n == 6
    assert parse_pattern("P4+0P1") == path_graph(4)
    for bad in ("P0", "C2", "Q5", "P4+P1", "2P2", ""):
        with pytest.raises(ValueError):
            parse_pattern(bad)
    with pytest.raises(ValueError, match="unsupported parameter"):
        parse_pattern("P4+125P1")  # 129 vertices
    assert pattern_graph(path_graph(2)) == path_graph(2)
    with pytest.raises(TypeError, match="expected Graph or name, got int"):
        pattern_graph(3)


def test_contains_induced_basics(monkeypatch):
    assert contains_induced(path_graph(6), "P6")
    assert not contains_induced(cycle_graph(6), "P6")
    assert contains_induced(cycle_graph(6), "P5")
    assert contains_induced(claw_graph(), "P3")
    assert not contains_induced(complete_graph(4), "P3")
    # The empty pattern lies in every graph, the empty one too; P1 in every
    # graph with a vertex; a pattern larger than its host in none.
    for g in (Graph(0), path_graph(1), cycle_graph(5)):
        assert contains_induced(g, Graph(0))
        assert find_induced_embedding(g, Graph(0)) == ()
        assert contains_induced(g, "P1") == (g.n > 0)
        assert find_induced_embedding(g, "P1") == ((0,) if g.n else None)
    for name in ("P4", "claw", "2P3"):
        assert not contains_induced(path_graph(3), name)
        assert find_induced_embedding(path_graph(3), name) is None
    assert not has_induced_path(path_graph(3), 4)
    # A pattern larger than its host is refused before any search: no
    # match order is run and no orbit decided.
    calls = []
    embed, walk = graphs._embed, graphs._arm
    monkeypatch.setattr(graphs, "_embed", lambda *a: calls.append(a) or embed(*a))
    monkeypatch.setattr(graphs, "_arm", lambda *a: calls.append(a) or walk(*a))
    for h in (path_graph(100), cycle_graph(128)):
        assert not contains_induced(path_graph(3), h)
        assert find_induced_embedding(path_graph(3), h) is None
    assert calls == []


def test_has_induced_path_rejects_bad_length():
    with pytest.raises(ValueError, match="path length must be a positive integer"):
        has_induced_path(path_graph(3), 0)


def test_find_induced_embedding_is_faithful():
    g = disjoint_union(cycle_graph(5), path_graph(4))
    h = pattern_graph("P4")
    emb = find_induced_embedding(g, h)
    assert emb is not None
    for a in range(h.n):
        for b in range(a + 1, h.n):
            assert h.has_edge(a, b) == g.has_edge(emb[a], emb[b])
    assert find_induced_embedding(complete_graph(3), "claw") is None


def test_path_monotonicity():
    for seed in range(60):
        t = 2 + seed % 6
        g = random_graph(random.Random(seed), 10, 0.4)
        if contains_induced(g, path_graph(t)):
            assert contains_induced(g, path_graph(t - 1))


def test_path_detector_agrees_with_generic_matcher():
    for seed in range(60):
        t = 1 + seed % 7
        g = random_graph(random.Random(seed), 10, 0.35)
        # force the generic matcher by handing it an anonymous copy of the path
        generic = find_induced_embedding(g, path_graph(t)) is not None
        assert has_induced_path(g, t) == generic


def test_path_walker_agrees_with_brute_at_every_anchor():
    # The answer for P_t (the walker's for t >= 2, the matcher's for P1) is
    # the vertex mask of the path found among ``alive``, or 0.  The rows
    # stay whole, so only ``alive`` hides the dead vertices: the answer
    # must be that of the live induced subgraph.
    for seed in range(100):
        n = seed % 10
        rng = random.Random(seed)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.45, 0.6]))
        full = (1 << n) - 1
        for a in range(n):
            for alive in (full, rng.getrandbits(n) | 1 << a):
                live = bits(alive)
                sub = induced_subgraph(g, live)
                for t in range(1, 8):
                    p = path_graph(t)
                    mask = PatternSearch(p).through(g.rows, alive, a)
                    want = contains_induced_through_brute(sub, p, live.index(a))
                    assert bool(mask) == want, (g, t, a, alive)
                    assert not mask or is_witness_brute(g, p, alive, a, mask), (g, t, a, alive, mask)


# A smallest graph with no automorphism but the identity.
ASYMMETRIC_6 = Graph(6, [(0, 3), (0, 4), (0, 5), (1, 4), (2, 5), (3, 5)])
ANCHORED_PATTERNS = (
    ["P2", "P3", "P4", "P5", "P6", "P7"]
    + ["2P3", "claw", "C3", "C4", "C5", "2P2+P1", "P4+1P1", "P4+2P1", "P4+3P1"]
    + [Graph(3), ASYMMETRIC_6]
)


def test_anchored_matcher_agrees_with_brute():
    # Both arms of the search: the mask of the copy found, or 0.  A copy's
    # mask is a witness, so it must hold exactly a copy of the pattern.
    # The symmetric patterns (C5, 3K1, claw, P4+3P1) search from one
    # vertex per orbit and skip the rest; the asymmetric one skips none.
    # 9 host sizes and 17 patterns are coprime: 153 seeds meet every pair.
    for seed in range(153):
        n, name = seed % 9, ANCHORED_PATTERNS[seed % 17]
        rng = random.Random(seed)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        _check_every_anchor(g, pattern_graph(name))


def _check_every_anchor(g: Graph, h: Graph) -> None:
    search = PatternSearch(h)
    full = (1 << g.n) - 1
    for a in range(g.n):
        mask = search.through(g.rows, full, a)
        assert bool(mask) == contains_induced_through_brute(g, h, a), (g, h, a)
        assert not mask or is_witness_brute(g, h, full, a, mask), (g, h, a, mask)


def test_anchored_matcher_agrees_with_brute_on_planted_copies():
    # Hosts at least as large as the pattern, half of them with a copy
    # planted on random vertices, so that each pattern vertex, kept or
    # skipped, lands on many anchors that have a copy through them.
    rng = random.Random(11)
    for h in [pattern_graph(x) for x in ("C5", "claw", "P4+3P1")] + [Graph(3), ASYMMETRIC_6]:
        for _ in range(30):
            n = rng.randint(h.n, 8)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            if rng.random() < 0.5:
                spot = rng.sample(range(n), h.n)
                edges = [(u, v) for u, v in g.edges() if u not in spot or v not in spot]
                g = Graph(n, edges + [(spot[a], spot[b]) for a, b in h.edges()])
            _check_every_anchor(g, h)


# The first copy the matcher finds, over every graph on at most 7 vertices:
# 1,253 hosts, 11 patterns, 5,564 embeddings.  The matcher's candidates and
# their order decide which copy comes first, so this pins both.
FIRST_IMAGES_SHA256 = "decb93c41004e33a13d3ef0a508058bef30ec92104dda8635e2ed4d5c01c96d4"


def test_first_images_are_pinned():
    names = ("P3", "P4", "C4", "C5", "claw", "2P3", "2P2+P1", "P4+1P1", "P4+2P1")
    patterns = [pattern_graph(x) for x in names] + [Graph(3), ASYMMETRIC_6]
    images = [find_induced_embedding(g, h) for g in graphs_upto(7) for h in patterns]
    assert sum(image is not None for image in images) == 5_564
    assert hashlib.sha256(repr(images).encode()).hexdigest() == FIRST_IMAGES_SHA256


def test_large_pattern_builds_match_orders_on_demand():
    # A copy of C128 through vertex 0 is found by the first match order, so
    # the other 127 orders (O(n^2) each) are never built.
    c128 = cycle_graph(128)
    assert find_induced_embedding(c128, c128) is not None
    assert sum(order is not None for order in _search(c128).orders) == 1


def _kept(search: PatternSearch) -> list[int]:
    """The pattern vertices the search keeps a match order for, once an
    anchored miss (no live vertex) has decided every one."""
    assert search.embedding((0,), 0, 0) is None or not search.h.n
    assert None not in search.orders
    return [p for p, order in enumerate(search.orders) if order]


def test_pattern_search_keeps_one_order_per_orbit():
    # Exactly the lowest vertex of each orbit of Aut(H) keeps an order.
    rng = random.Random(7)
    rigid = []
    while len(rigid) < 4:
        g = random_graph(rng, 7, 0.4)
        if len(automorphism_orbits_brute(g)) == 7:
            rigid.append(g)
    named = [pattern_graph(x) for x in ("C5", "claw", "2P3", "2P2+P1", "P4+3P1")]
    for h in graphs_upto(6) + named + rigid:
        reps = [orbit[0] for orbit in automorphism_orbits_brute(h)]
        assert _kept(PatternSearch(h)) == reps, h
    # C12 is vertex-transitive: one orbit, too large for the brute force.
    assert _kept(PatternSearch("C12")) == [0]


def test_anchored_miss_searches_once_per_orbit(monkeypatch):
    # Once every vertex is decided, an anchored miss runs the matcher once
    # per orbit, from its lowest vertex.  C7 holds none of these patterns.
    calls = []
    embed = graphs._embed

    def counted(rows, alive, plan, anchor):
        calls.append(plan[0][0])
        return embed(rows, alive, plan, anchor)

    monkeypatch.setattr(graphs, "_embed", counted)
    c7 = cycle_graph(7)
    cases = (
        ("2P3", [0, 1]), ("claw", [0, 1]), ("2P2+P1", [0, 4]),
        ("P4+3P1", [0, 1, 4]), ("C5", [0]),
    )
    for name, reps in cases:
        search = PatternSearch(name)
        assert not search.through(c7.rows, (1 << 7) - 1, 0)
        calls.clear()
        assert not search.through(c7.rows, (1 << 7) - 1, 3)
        assert calls == reps, name
    # C12 on a long path: the first miss tests vertices 1..11 against the
    # order from 0 (each an automorphism), then searches with that one
    # order; it builds no other.
    p20 = path_graph(20)
    search = PatternSearch("C12")
    calls.clear()
    assert not search.through(p20.rows, (1 << 20) - 1, 10)
    assert calls == [0] * 12
    assert sum(isinstance(order, tuple) for order in search.orders) == 1


def test_anchored_search_leaves_no_garbage():
    # The matcher keeps its search state on a stack of plain lists and the
    # walker is a plain recursive function, so no search leaves a reference
    # cycle for the collector to find.  C7 holds P6 and none of the others.
    c7 = cycle_graph(7)
    full = (1 << 7) - 1
    gc.collect()
    gc.disable()
    try:
        for name in ("2P3", "claw", "C5", "P4+2P1", "P6", "P7"):
            search = PatternSearch(name)
            for i in range(700):
                assert bool(search.through(c7.rows, full, i % 7)) == (name == "P6")
                assert find_induced_embedding(c7, "P3") is not None
                assert contains_induced(c7, "P6")
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_examples():
    p3 = path_graph(3)
    assert canonical_form(p3) == canonical_form(relabel(p3, [2, 0, 1]))
    assert canonical_form(p3) != canonical_form(complete_graph(3))


def test_canonical_form_relabelings_of_circulant():
    from tricrit.families import gen_Gr

    g = gen_Gr(4)
    base = canonical_form(g)
    rng = random.Random(99)
    for _ in range(100):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == base


def test_canonical_form_permutation_invariance():
    for seed in range(60):
        n = 1 + seed % 8
        rng = random.Random(seed)
        g = random_graph(rng, n, 0.45)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canonical_form_matches_isomorphism():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        g1 = random_graph(rng, n, 0.5)
        g2 = random_graph(rng, n, 0.5)
        same = canonical_form(g1) == canonical_form(g2)
        assert same == is_iso_brute(g1, g2)


# ---------------------------------------------------------------------------
# graph6


def test_graph6_round_trip_simple():
    for g in (Graph(0), Graph(1), complete_graph(4), cycle_graph(7), path_graph(2)):
        assert parse_graph6(write_graph6(g)) == g
    assert write_graph6(complete_graph(4)) == "C~"


def test_graph6_large_n_form():
    g = cycle_graph(63)
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    g2 = random_graph(random.Random(3), 100, 0.1)
    assert parse_graph6(write_graph6(g2)) == g2


def test_graph6_cross_check_networkx():
    # Every size, so both header forms and the 128-vertex cap are checked.
    rng = random.Random(7)
    for n in [0, 1, 2, 5, 9, 20, 40, 62, 63, 64, 90, 127, 128] * 2:
        g = random_graph(rng, n, rng.random())
        ours = write_graph6(g)
        ng = nx.from_graph6_bytes(ours.encode())
        assert ng.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in ng.edges()} == set(g.edges())
        theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert parse_graph6(theirs) == g


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("")
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C~\x1f")  # control byte
    assert e.value.offset == 2
    with pytest.raises(Graph6Error) as e:
        parse_graph6("D")  # 5 vertices but no adjacency bytes
    assert e.value.offset == 1
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C~~")  # one byte too many
    assert e.value.offset == 2
    # nonzero padding: n=2, one adjacency bit, set a padding bit below it
    with pytest.raises(Graph6Error) as e:
        parse_graph6("A" + chr(63 + 0b010000))
    assert e.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("~~~~~~~")  # 8-byte count form unsupported
    with pytest.raises(Graph6Error, match="truncated extended vertex-count field") as e:
        parse_graph6("~??")
    assert e.value.offset == 3
    with pytest.raises(Graph6Error, match="vertex count 129 exceeds") as e:
        parse_graph6("~?A@?")
    assert e.value.offset == 0
    # n = 63 has 3 padding bits and n = 128 has 2, after the 4-byte header.
    for n in (63, 128):
        s = write_graph6(random_graph(random.Random(n), n, 0.5))
        assert len(s) == 4 + (n * (n - 1) // 2 + 5) // 6
        with pytest.raises(Graph6Error) as e:
            parse_graph6(s[:-1])
        assert e.value.offset == len(s) - 1
        assert "need" in str(e.value)
        with pytest.raises(Graph6Error) as e:
            parse_graph6(s[:-1] + chr(63 + (ord(s[-1]) - 63 | 1)))
        assert e.value.offset == len(s) - 1
        assert "padding" in str(e.value)

from __future__ import annotations

from tricrit import families
from tricrit.coloring import ListSystem
from tricrit.families import FamilyReport, gen_Gr, gen_Hr, verify_Gr, verify_Hr
from tricrit.graphs import (
    Graph,
    PatternSearch,
    contains_induced,
    disjoint_union,
    induced_subgraph,
    path_graph,
    pattern_graph,
)

from oracles import relabel
from reference import chorded_path_hr, circulant_gr


def test_gen_Gr_structure():
    # Every member the package builds, from G_1 = K4 up to the cap.
    for r in range(1, 43):
        assert gen_Gr(r) == Graph(*circulant_gr(r)), r


def test_gen_Gr_bounds():
    assert gen_Gr(42).n == 127


def test_gen_Hr_structure():
    # Every member, graph and lists, from H_1 = one forced edge up to the cap.
    for r in range(1, 44):
        n, edges, lists = chorded_path_hr(r)
        assert gen_Hr(r) == (Graph(n, edges), ListSystem.from_sets(lists)), r


def test_gen_Hr_bounds():
    assert gen_Hr(43)[0].n == 128


def test_gen_Gr_is_shift_invariant():
    for r in (2, 3, 5):
        g = gen_Gr(r)
        shift = [(v + 1) % g.n for v in range(g.n)]
        assert relabel(g, shift) == g


def test_gen_Gr_vertex_zero_decides_containment():
    # verify_Gr checks its patterns through vertex 0 only, which is sound
    # because G_r is circulant.  P4, C4 and 2P2 occur in some G_r, so both
    # answers are exercised.  The matcher is checked on the paths too.
    patterns = {
        "P4": pattern_graph("P4"),
        "C4": pattern_graph("C4"),
        "2P2": disjoint_union(path_graph(2), path_graph(2)),
        "2P2+P1": pattern_graph("2P2+P1"),
        "P7": pattern_graph("P7"),
    }
    seen = set()
    for r in range(1, 9):
        g = gen_Gr(r)
        for name, h in patterns.items():
            whole = contains_induced(g, h)
            search = PatternSearch(h)
            alive = (1 << g.n) - 1
            assert bool(search.through(g.rows, alive, 0)) == whole, (r, name)
            assert (search.embedding(g.rows, alive, 0) is not None) == whole, (r, name)
            seen.add(whole)
    assert seen == {True, False}


def test_verify_Gr_reports():
    rep = verify_Gr(1)
    assert isinstance(rep, FamilyReport)
    assert rep.family == "Gr" and rep.r == 1
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "4-vertex-critical",
        "2P2+P1-free",
        "P7-free",
        "unique-coloring-after-deleting-v0",
    ]
    assert verify_Gr(2).passed
    rep5 = verify_Gr(5)
    assert rep5.passed
    assert rep5.checks[-1].details == "last vertex forced to color 3"
    d = rep5.to_json_dict()
    assert d["family"] == "Gr" and d["passed"] is True and len(d["checks"]) == 4


def test_verify_Gr_30_passes():
    # At r = 30 the P7 check through vertex 0 dominates the run.
    rep = verify_Gr(30)
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "4-vertex-critical",
        "2P2+P1-free",
        "P7-free",
        "unique-coloring-after-deleting-v0",
    ]


def test_gen_Hr_recursion():
    # cutting the first three path vertices off one member leaves the
    # previous member's graph (lists differ only at the fresh endpoint)
    for r in (2, 3, 5):
        big, _ = gen_Hr(r)
        small, _ = gen_Hr(r - 1)
        assert induced_subgraph(big, range(3, big.n)) == small
        assert induced_subgraph(big, range(0, big.n - 3)) == small


def test_verify_Hr_reports():
    rep = verify_Hr(2)
    assert rep.family == "Hr" and rep.r == 2 and rep.passed
    assert [c.name for c in rep.checks] == [
        "minimal-obstruction",
        "2P3-free",
        "two-sided-deletion-colorings",
    ]
    assert verify_Hr(1).passed
    assert verify_Hr(5).passed


def test_verifiers_report_broken_members(monkeypatch):
    # each verifier must fail on a member that lost its defining property
    def failures(report):
        return {c.name: c.details for c in report.checks if not c.passed}

    def without(g, edge):
        return Graph(g.n, [e for e in g.edges() if e != edge])

    g, l = gen_Hr(4)
    monkeypatch.setattr(families, "gen_Hr", lambda r: (without(g, (1, 6)), l))
    assert set(failures(verify_Hr(4))) == {"2P3-free"}

    # vertex 1 gets the whole palette, so the arm from vertex 0 stalls at
    # vertex 1 once vertex 2 is deleted
    widened = ListSystem(l.masks[:1] + (0b111,) + l.masks[2:])
    monkeypatch.setattr(families, "gen_Hr", lambda r: (g, widened))
    failed = failures(verify_Hr(4))
    assert set(failed) == {"two-sided-deletion-colorings"}
    assert failed["two-sided-deletion-colorings"].endswith("deleting vertex 2")
    # the same at vertex 9 stalls the arm from vertex 10 for every deletion
    widened = ListSystem(l.masks[:9] + (0b111,) + l.masks[10:])
    monkeypatch.setattr(families, "gen_Hr", lambda r: (g, widened))
    assert failures(verify_Hr(4)) == {
        "two-sided-deletion-colorings": "an arm stalls after deleting vertex 1"
    }
    # the chord (0, 4) joins vertex 0 to vertex 4, which the arm from
    # vertex 10 also forces to color 1, so the halves clash; vertices 1..3
    # are then not critical, so the member is not minimal either
    monkeypatch.setattr(families, "gen_Hr", lambda r: (Graph(g.n, g.edges() + [(0, 4)]), l))
    assert failures(verify_Hr(4)) == {
        "minimal-obstruction": "",
        "two-sided-deletion-colorings": "forced halves clash after deleting vertex 1",
    }

    gg = gen_Gr(3)
    monkeypatch.setattr(families, "gen_Gr", lambda r: without(gg, (0, 1)))
    assert set(failures(verify_Gr(3))) == {"4-vertex-critical"}

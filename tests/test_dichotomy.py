from __future__ import annotations

import pytest

from tricrit.dichotomy import (
    ALL_CASES,
    CASE_CONTAINS_2P2_P1,
    CASE_CONTAINS_CLAW,
    CASE_CONTAINS_CYCLE,
    CASE_EQUALS_2P3,
    CASE_SUBGRAPH_OF_P4_KP1,
    CASE_SUBGRAPH_OF_P6,
    DichotomyVerdict,
    classify,
    describe,
    is_induced_subgraph_of_P4kP1,
    is_induced_subgraph_of_P6,
)
from tricrit.graphs import (
    Graph,
    contains_induced,
    cycle_graph,
    disjoint_union,
    path_graph,
    pattern_graph,
)

from oracles import canonical_form, graphs_upto

TRUTH_TABLE = {
    "P6": (CASE_SUBGRAPH_OF_P6, True, True),
    "P5": (CASE_SUBGRAPH_OF_P6, True, True),
    "P3+P2": (CASE_SUBGRAPH_OF_P6, True, True),
    "P4+3P1": (CASE_SUBGRAPH_OF_P4_KP1, True, True),
    "2P3": (CASE_EQUALS_2P3, True, False),
    "claw": (CASE_CONTAINS_CLAW, False, False),
    "C3": (CASE_CONTAINS_CYCLE, False, False),
    "C5": (CASE_CONTAINS_CYCLE, False, False),
    "C9": (CASE_CONTAINS_CYCLE, False, False),
    "2P2+P1": (CASE_CONTAINS_2P2_P1, False, False),
    "P7": (CASE_CONTAINS_2P2_P1, False, False),
}


def _pattern(name: str) -> Graph:
    if "+" in name and name[0] == "P" and not name.startswith("P4+"):
        a, b = name.split("+")
        return disjoint_union(pattern_graph(a), pattern_graph(b))
    return pattern_graph(name)


def test_truth_table():
    for name, (case, fin_crit, fin_obs) in TRUTH_TABLE.items():
        v = classify(_pattern(name))
        assert v.case == case, name
        assert v.finite_vertex_critical is fin_crit, name
        assert v.finite_list_obstructions is fin_obs, name


def test_supergraph_of_infinite_pattern_is_infinite():
    # gluing anything onto a pattern from the infinite side keeps it there
    host = disjoint_union(cycle_graph(5), path_graph(3))
    v = classify(host)
    assert v.case == CASE_CONTAINS_CYCLE
    assert not v.finite_vertex_critical and not v.finite_list_obstructions
    v2 = classify(disjoint_union(pattern_graph("claw"), Graph(2)))
    assert v2.case == CASE_CONTAINS_CLAW
    v3 = classify(path_graph(8))
    assert v3.case == CASE_CONTAINS_2P2_P1


def test_p6_embedding_op():
    assert is_induced_subgraph_of_P6(path_graph(6)) == (0, 1, 2, 3, 4, 5)
    emb = is_induced_subgraph_of_P6(_pattern("P3+P2"))
    assert emb is not None
    host = path_graph(6)
    h = _pattern("P3+P2")
    for a in range(h.n):
        for b in range(a + 1, h.n):
            assert h.has_edge(a, b) == host.has_edge(emb[a], emb[b])
    assert is_induced_subgraph_of_P6(path_graph(7)) is None
    assert is_induced_subgraph_of_P6(pattern_graph("2P2+P1")) is None
    assert is_induced_subgraph_of_P6(cycle_graph(3)) is None
    assert is_induced_subgraph_of_P6(Graph(0)) == ()


def test_p4kp1_embedding_op():
    got = is_induced_subgraph_of_P4kP1(_pattern("P4+2P1"))
    assert got is not None and got[0] == 2
    got = is_induced_subgraph_of_P4kP1(Graph(3))  # three isolated vertices
    assert got is not None and got[0] == 1
    assert is_induced_subgraph_of_P4kP1(path_graph(5)) is None
    assert is_induced_subgraph_of_P4kP1(pattern_graph("P3")) == (0, (0, 1, 2))
    k, emb = is_induced_subgraph_of_P4kP1(_pattern("P4+3P1"))
    host = disjoint_union(path_graph(4), Graph(k))
    h = _pattern("P4+3P1")
    for a in range(h.n):
        for b in range(a + 1, h.n):
            assert h.has_edge(a, b) == host.has_edge(emb[a], emb[b])


def test_verdict_shapes():
    v = classify(pattern_graph("P4+3P1"))
    assert v.k == 3 and v.witness is not None
    d = v.to_json_dict()
    assert d["k"] == 3 and d["case"] == CASE_SUBGRAPH_OF_P4_KP1
    v = classify(cycle_graph(4))
    assert v.k is None
    assert v.witness == (1, 2, 3, 0) or len(v.witness) == 4


def test_describe_is_a_sentence():
    for name in TRUTH_TABLE:
        text = describe(classify(_pattern(name)))
        assert isinstance(text, str) and text.endswith(".")
        assert "finitely" in text or "infinitely" in text


def _direct_case_facts(h: Graph):
    has_cycle = any(contains_induced(h, cycle_graph(g)) for g in range(3, max(4, h.n + 1)))
    has_claw = contains_induced(h, pattern_graph("claw"))
    has_2p2p1 = contains_induced(h, pattern_graph("2P2+P1"))
    is_2p3 = h.n == 6 and canonical_form(h) == canonical_form(pattern_graph("2P3"))
    in_p6 = contains_induced(path_graph(6), h)
    min_k = None
    for k in range(11):
        if contains_induced(disjoint_union(path_graph(4), Graph(k)), h):
            min_k = k
            break
    return has_cycle, has_claw, has_2p2p1, is_2p3, in_p6, min_k


def test_classify_agrees_with_host_containment_exhaustively():
    # every isomorphism class on up to 8 vertices
    flags_for = {
        CASE_CONTAINS_CYCLE: (False, False),
        CASE_CONTAINS_CLAW: (False, False),
        CASE_CONTAINS_2P2_P1: (False, False),
        CASE_EQUALS_2P3: (True, False),
        CASE_SUBGRAPH_OF_P6: (True, True),
        CASE_SUBGRAPH_OF_P4_KP1: (True, True),
    }
    seen_cases = set()
    for h in graphs_upto(8):
        v = classify(h)
        assert v.case in ALL_CASES
        seen_cases.add(v.case)
        assert (v.finite_vertex_critical, v.finite_list_obstructions) == flags_for[v.case]
        has_cycle, has_claw, has_2p2p1, is_2p3, in_p6, min_k = _direct_case_facts(h)
        if has_cycle:
            assert v.case == CASE_CONTAINS_CYCLE
        elif has_claw:
            assert v.case == CASE_CONTAINS_CLAW
        elif has_2p2p1:
            assert v.case == CASE_CONTAINS_2P2_P1
        elif is_2p3:
            assert v.case == CASE_EQUALS_2P3
        else:
            assert v.case in (CASE_SUBGRAPH_OF_P6, CASE_SUBGRAPH_OF_P4_KP1)
            if v.case == CASE_SUBGRAPH_OF_P6:
                assert in_p6
            else:
                assert v.k == min_k
        if v.case == CASE_SUBGRAPH_OF_P4_KP1:
            host = disjoint_union(path_graph(4), Graph(v.k))
            emb = v.witness
            for a in range(h.n):
                for b in range(a + 1, h.n):
                    assert h.has_edge(a, b) == host.has_edge(emb[a], emb[b])
    assert seen_cases == set(ALL_CASES)


def test_verdict_validation():
    with pytest.raises(ValueError):
        DichotomyVerdict("no-such-case", True, True)

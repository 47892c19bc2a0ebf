from __future__ import annotations

import time

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
    induced_subgraph,
    path_graph,
    pattern_graph,
)

from oracles import canonical_form, complete_graph, contains_induced_brute, graphs_upto

def _pattern(name: str) -> Graph:
    if "+" in name and name[0] == "P" and not name.startswith("P4+"):
        a, b = name.split("+")
        return disjoint_union(pattern_graph(a), pattern_graph(b))
    return pattern_graph(name)


def _is_embedding(host: Graph, h: Graph, emb) -> bool:
    """Does ``emb`` map ``h`` injectively into ``host``, keeping edges and non-edges?"""
    if len(emb) != h.n or len(set(emb)) != h.n or not all(0 <= x < host.n for x in emb):
        return False
    return all(
        h.has_edge(a, b) == host.has_edge(emb[a], emb[b])
        for a in range(h.n)
        for b in range(a + 1, h.n)
    )


def _p4kp1(k: int) -> Graph:
    return disjoint_union(path_graph(4), Graph(k))


def test_p6_embedding_op():
    assert is_induced_subgraph_of_P6(path_graph(6)) == (0, 1, 2, 3, 4, 5)
    h = _pattern("P3+P2")
    assert _is_embedding(path_graph(6), h, is_induced_subgraph_of_P6(h))
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
    h = _pattern("P4+3P1")
    k, emb = is_induced_subgraph_of_P4kP1(h)
    assert _is_embedding(_p4kp1(k), h, emb)
    # Isolated vertices are interchangeable, so many of them stay cheap.
    for h, k in [
        (Graph(128), 126),
        (disjoint_union(path_graph(2), Graph(100)), 99),
        (disjoint_union(path_graph(3), Graph(60)), 60),
        (pattern_graph("P4+120P1"), 120),
    ]:
        got = is_induced_subgraph_of_P4kP1(h)
        assert got is not None and got[0] == k
        assert len(set(got[1])) == h.n and max(got[1]) < 4 + k
    assert classify(Graph(40)).k == 38


def test_verdict_shapes():
    v = classify(pattern_graph("P4+3P1"))
    assert v.k == 3 and v.witness is not None
    d = v.to_json_dict()
    assert d["k"] == 3 and d["case"] == CASE_SUBGRAPH_OF_P4_KP1
    v = classify(cycle_graph(4))
    assert v.k is None
    assert v.witness == (1, 2, 3, 0) or len(v.witness) == 4


@pytest.mark.parametrize("g, witness", [
    (complete_graph(128), (1, 2, 0)),
    (Graph(128, [(i, j) for i in range(64) for j in range(64, 128)]), (64, 1, 65, 0)),
])
def test_classify_dense_pattern_is_quick(g, witness):
    # K128 and K64,64: the shortest-cycle search stops at the first triangle
    # and never builds a BFS layer that could only tie its best cycle.
    start = time.perf_counter()
    v = classify(g)
    assert time.perf_counter() - start < 2
    assert v.case == CASE_CONTAINS_CYCLE and v.witness == witness


def test_describe_is_a_sentence():
    for name in ("P6", "P5", "P3+P2", "P4+3P1", "2P3", "claw", "C3", "C5", "C9", "2P2+P1", "P7"):
        text = describe(classify(_pattern(name)))
        assert isinstance(text, str) and text.endswith(".")
        assert "finitely" in text or "infinitely" in text


_INFINITE_BOTH = (
    "so infinitely many 4-vertex-critical graphs and infinitely many minimal "
    "list obstructions avoid it."
)
_FINITE_BOTH = (
    "only finitely many 4-vertex-critical graphs and finitely many minimal "
    "list obstructions avoid it."
)


@pytest.mark.parametrize("name, case, flags, witness, k, sentence", [
    ("P5", CASE_SUBGRAPH_OF_P6, (True, True), [0, 1, 2, 3, 4], None,
     f"The pattern embeds in P6: {_FINITE_BOTH}"),
    ("P4+3P1", CASE_SUBGRAPH_OF_P4_KP1, (True, True), [0, 1, 2, 3, 4, 5, 6], 3,
     f"The pattern embeds in P4+3P1: {_FINITE_BOTH}"),
    ("2P3", CASE_EQUALS_2P3, (True, False), [0, 1, 2, 3, 4, 5], None,
     "The pattern is exactly 2P3: only finitely many 4-vertex-critical graphs "
     "avoid it, but infinitely many minimal list obstructions do."),
    ("C4", CASE_CONTAINS_CYCLE, (False, False), [1, 2, 3, 0], None,
     f"The pattern contains a cycle, {_INFINITE_BOTH}"),
    ("claw", CASE_CONTAINS_CLAW, (False, False), [0, 1, 2, 3], None,
     f"The pattern contains an induced claw, {_INFINITE_BOTH}"),
    ("2P2+P1", CASE_CONTAINS_2P2_P1, (False, False), [0, 1, 2, 3, 4], None,
     f"The pattern contains an induced 2P2+P1, {_INFINITE_BOTH}"),
])
def test_verdict_output_is_pinned(name, case, flags, witness, k, sentence):
    # One pattern per case: the exact JSON, key order included, and sentence.
    v = classify(_pattern(name))
    d = v.to_json_dict()
    assert list(d) == ["case", "finite_vertex_critical", "finite_list_obstructions", "witness", "k"]
    assert d == {
        "case": case,
        "finite_vertex_critical": flags[0],
        "finite_list_obstructions": flags[1],
        "witness": witness,
        "k": k,
    }
    assert describe(v) == sentence


def _direct_case_facts(h: Graph):
    girth = next((t for t in range(3, h.n + 1) if contains_induced(h, cycle_graph(t))), None)
    has_claw = contains_induced(h, pattern_graph("claw"))
    has_2p2p1 = contains_induced(h, pattern_graph("2P2+P1"))
    is_2p3 = h.n == 6 and canonical_form(h) == canonical_form(pattern_graph("2P3"))
    return girth, has_claw, has_2p2p1, is_2p3


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
    witness_pattern = {
        CASE_EQUALS_2P3: "2P3",
        CASE_CONTAINS_CLAW: "claw",
        CASE_CONTAINS_2P2_P1: "2P2+P1",
    }
    seen_cases = set()
    finite_hosts = 0
    for h in graphs_upto(8):
        v = classify(h)
        assert v.case in ALL_CASES
        seen_cases.add(v.case)
        assert (v.finite_vertex_critical, v.finite_list_obstructions) == flags_for[v.case]
        girth, has_claw, has_2p2p1, is_2p3 = _direct_case_facts(h)
        if girth is not None:
            assert v.case == CASE_CONTAINS_CYCLE
        elif has_claw:
            assert v.case == CASE_CONTAINS_CLAW
        elif has_2p2p1:
            assert v.case == CASE_CONTAINS_2P2_P1
        elif is_2p3:
            assert v.case == CASE_EQUALS_2P3
        else:
            assert v.case in (CASE_SUBGRAPH_OF_P6, CASE_SUBGRAPH_OF_P4_KP1)
        if v.finite_vertex_critical:
            # The finite hosts, decided by subset enumeration rather than by
            # the matcher that classify uses.  P4+nP1 holds h if any P4+kP1
            # does.
            finite_hosts += 1
            if v.case == CASE_EQUALS_2P3:
                assert contains_induced_brute(pattern_graph("2P3"), h)
            elif v.case == CASE_SUBGRAPH_OF_P6:
                assert contains_induced_brute(path_graph(6), h)
                assert not contains_induced_brute(_p4kp1(h.n), h)
            else:
                assert contains_induced_brute(_p4kp1(v.k), h)
                assert v.k == 0 or not contains_induced_brute(_p4kp1(v.k - 1), h)
        if v.case == CASE_CONTAINS_CYCLE:
            w = v.witness
            assert len(w) == girth and len(set(w)) == len(w)
            assert all(h.has_edge(w[i - 1], w[i]) for i in range(len(w)))
            assert induced_subgraph(h, w).edge_count() == len(w)  # chordless
        elif v.case == CASE_SUBGRAPH_OF_P6:
            assert _is_embedding(path_graph(6), h, v.witness)
        elif v.case == CASE_SUBGRAPH_OF_P4_KP1:
            assert _is_embedding(_p4kp1(v.k), h, v.witness)
        else:
            assert _is_embedding(h, pattern_graph(witness_pattern[v.case]), v.witness)
    assert seen_cases == set(ALL_CASES)
    assert finite_hosts == 32


def test_verdict_validation():
    with pytest.raises(ValueError):
        DichotomyVerdict("no-such-case")

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tricrit import coloring
from tricrit.coloring import (
    ListSystem,
    _propagate,
    l_colorable,
    lists_from_json,
    lists_to_json,
    update_along_path,
)
from tricrit.families import gen_Gr, gen_Hr
from tricrit.graphs import Graph, bits, cycle_graph, induced_subgraph, path_graph

from oracles import (
    complete_graph,
    l_colorable_reference,
    propagate_reference,
    random_graph,
    random_lists,
)


def test_list_system_basics():
    l = ListSystem.from_sets([(1, 2), (3,), ()])
    assert l.n == 3
    assert l.colors(0) == (1, 2)
    assert l.size(2) == 0
    assert l.to_sets() == [(1, 2), (3,), ()]
    assert ListSystem.full(2).to_sets() == [(1, 2, 3), (1, 2, 3)]
    assert eval(repr(l)) == l
    assert hash(ListSystem([3, 4, 0])) == hash(l)


def test_lists_json_round_trip():
    l = ListSystem.from_sets([(1, 3), (), (2,)])
    obj = lists_to_json(l)
    assert obj == {"n": 3, "lists": [[1, 3], [], [2]]}
    assert lists_from_json(obj) == l
    with pytest.raises(ValueError):
        lists_from_json({"n": 2, "lists": [[1]]})
    with pytest.raises(ValueError):
        lists_from_json([1, 2])


def test_l_colorable_examples():
    # K4 with full lists needs four colors
    assert l_colorable(complete_graph(4), ListSystem.full(4)) is None
    # any empty list is immediately infeasible
    assert l_colorable(path_graph(2), ListSystem.from_sets([(), (1, 2, 3)])) is None
    # odd cycle with full lists is fine
    c = l_colorable(cycle_graph(5), ListSystem.full(5))
    assert c is not None
    # identical two-color lists on an odd cycle are not
    assert l_colorable(cycle_graph(5), ListSystem.from_sets([(1, 2)] * 5)) is None
    g0 = Graph(0)
    assert l_colorable(g0, ListSystem.full(0)) == ()
    with pytest.raises(ValueError, match="2 entries for a 3-vertex graph"):
        l_colorable(path_graph(3), ListSystem.full(2))


def test_l_colorable_respects_lists_and_edges():
    g = path_graph(3)
    # squeezed middle: both neighbors are forced and cover the whole middle list
    assert l_colorable(g, ListSystem.from_sets([(1,), (1, 2), (2,)])) is None
    c = l_colorable(g, ListSystem.from_sets([(1,), (1, 2, 3), (2,)]))
    assert c is not None and c[0] == 1 and c[2] == 2 and c[1] == 3


@pytest.mark.parametrize("lists, classes, message", [
    ([(1, 2, 3)] * 2, (0b11, 0b01, 0), "without exactly one color"),
    ([(1,), (2,)], (0b10, 0b01, 0), "outside its list"),
    ([(1, 2, 3)] * 2, (0b11, 0, 0), "improper coloring"),
], ids=["overlapping-classes", "outside-list", "edge-in-class"])
def test_l_colorable_rechecks_the_solver(monkeypatch, lists, classes, message):
    # l_colorable re-checks the solver's color classes before it returns
    # them: on P2 they must split both vertices, lie inside the lists and
    # hold no edge.
    monkeypatch.setattr(coloring, "_solve", lambda *args: classes)
    with pytest.raises(RuntimeError, match=message):
        l_colorable(path_graph(2), ListSystem.from_sets(lists))


@given(st.integers(0, 2**28), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_l_colorable_keeps_the_reference_search_tree(seed, n):
    # Same branching vertex, same color order, same propagation fixpoint at
    # every node: the very coloring the queue-based solver returns.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    l = ListSystem([7 if rng.random() < 0.5 else rng.randint(0, 7) for _ in range(n)])
    assert l_colorable(g, l) == l_colorable_reference(g, l)


def propagate(g: Graph, l: ListSystem) -> tuple[ListSystem, frozenset[int]] | None:
    """``_propagate`` from nothing done, on the color classes of ``l``, read
    back in the shape of ``propagate_reference``: the exhaustive update with
    respect to the set of one-color vertices."""
    classes = (sum(1 << v for v in range(g.n) if l.masks[v] & c) for c in (1, 2, 4))
    res = _propagate(g.rows, *classes, 0)
    if res is None:
        return None
    p1, p2, p3, done = res
    masks = [p1 >> v & 1 | (p2 >> v & 1) << 1 | (p3 >> v & 1) << 2 for v in range(g.n)]
    return ListSystem(masks), frozenset(bits(done))


@given(st.integers(0, 2**28), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_propagate_matches_exhaustive_update(seed, n):
    # Batches of one-color vertices reach the lists and the clash of one
    # vertex at a time.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    l = ListSystem([rng.choice((1, 2, 4, 7, rng.randint(1, 7))) for _ in range(n)])
    assert propagate(g, l) == propagate_reference(g, l)


@given(st.integers(0, 2**28), st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_propagate_fixpoint_is_stable(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    l = random_lists(rng, n)
    out = propagate(g, l)
    if out is not None:
        assert propagate(g, out[0]) == out


@given(st.integers(0, 2**28), st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_propagate_preserves_solutions(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    l = random_lists(rng, n)
    out = propagate(g, l)
    for sol in product(*map(l.colors, range(n))):
        if all(sol[u] != sol[v] for u, v in g.edges()):
            assert out is not None
            assert all(sol[v] in out[0].colors(v) for v in range(n))


def test_propagate_triangle_kills_fourth():
    # the triangle of K4 pinned to 1, 2, 3 leaves the fourth vertex no color
    g = complete_graph(4)
    l = ListSystem.from_sets([(1,), (2,), (3,), (1, 2, 3)])
    assert propagate(g, l) is None


def test_propagate_circulant_forces_everything():
    # pinning one triangle of the 16-vertex circulant empties the list of
    # vertex 10; without it, every other vertex is forced, 3, 1, 2 repeating.
    g = gen_Gr(5)
    l = ListSystem.from_sets([(1, 2, 3), (1,), (2,), (3,)] + [(1, 2, 3)] * 12)
    assert propagate(g, l) is None
    keep = [v for v in range(g.n) if v != 10]
    lists, fixed = propagate(induced_subgraph(g, keep), ListSystem(l.masks[v] for v in keep))
    assert lists.to_sets() == [(c,) for c in [3, 1, 2] * 5]
    assert fixed == frozenset(range(15))


def test_update_along_path_simple():
    g = path_graph(3)
    l = ListSystem.from_sets([(1, 2), (1, 2), (1, 2)])
    assert update_along_path(g, l, [0, 1, 2], 1) == (1, 2, 1)


def test_update_along_path_stalls_on_wide_list():
    g = path_graph(3)
    l = ListSystem.from_sets([(1,), (1, 2, 3), (1, 2)])
    pc = update_along_path(g, l, [0, 1, 2], 1)
    # the middle list drops to {2,3}: not a singleton, so nothing propagates on
    assert pc == (1, None, None)


def test_update_along_path_contract():
    g = path_graph(3)
    l = ListSystem.full(3)
    with pytest.raises(ValueError):
        update_along_path(g, l, [], 1)
    with pytest.raises(ValueError):
        update_along_path(g, l, [0, 2], 1)
    with pytest.raises(ValueError):
        update_along_path(g, l, [0, 1, 0], 1)
    with pytest.raises(ValueError):
        update_along_path(g, ListSystem.from_sets([(2,), (1,), (1,)]), [0, 1, 2], 1)
    # a negative index must not wrap around, past the first vertex too
    with pytest.raises(ValueError, match="out of range"):
        update_along_path(g, l, [0, 1, -1], 1)
    with pytest.raises(ValueError, match="2 entries for a 3-vertex graph"):
        update_along_path(g, ListSystem.full(2), [0, 1, 2], 1)


def test_update_along_obstruction_backbone():
    # walking the long path of the 14-vertex family member with color 1
    # forces the pattern 1,2,3 repeating; the second-to-last vertex lands
    # on color 1, clashing with the far endpoint's one-color list.
    g, l = gen_Hr(5)
    path = list(range(g.n))
    pc = update_along_path(g, l, path, 1)
    assert None not in pc[:13]
    assert [pc[v] for v in range(12)] == [1, 2, 3] * 4
    assert pc[12] == 1
    assert None in pc

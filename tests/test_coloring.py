from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tricrit.coloring import (
    ListSystem,
    _propagate,
    l_colorable,
    lists_from_json,
    lists_to_json,
    update_along_path,
)
from tricrit.families import gen_Gr, gen_Hr
from tricrit.graphs import Graph, cycle_graph, induced_subgraph, path_graph

from oracles import (
    brute_l_colorable,
    complete_graph,
    l_colorable_reference,
    random_graph,
    random_lists,
    update_wrt_set_reference,
)


def test_list_system_basics():
    l = ListSystem.from_sets([(1, 2), (3,), ()])
    assert l.n == 3
    assert l.colors(0) == (1, 2)
    assert l.size(2) == 0
    assert l.to_sets() == [(1, 2), (3,), ()]
    assert ListSystem.full(2).to_sets() == [(1, 2, 3), (1, 2, 3)]
    with pytest.raises(ValueError):
        ListSystem([8])
    with pytest.raises(ValueError):
        ListSystem.from_sets([(4,)])
    # True == 1.0 == 1, so only a type check keeps them out.
    for bad in (True, 1.0):
        with pytest.raises(ValueError):
            ListSystem.from_sets([(bad,)])
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError):
            ListSystem([bad])


def test_lists_json_round_trip():
    l = ListSystem.from_sets([(1, 3), (), (2,)])
    obj = lists_to_json(l)
    assert obj == {"n": 3, "lists": [[1, 3], [], [2]]}
    assert lists_from_json(obj) == l
    with pytest.raises(ValueError):
        lists_from_json({"n": 2, "lists": [[1]]})
    with pytest.raises(ValueError):
        lists_from_json([1, 2])
    with pytest.raises(ValueError):
        lists_from_json({"n": True, "lists": [[1]]})


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


def test_l_colorable_respects_lists_and_edges():
    g = path_graph(3)
    # squeezed middle: both neighbors are forced and cover the whole middle list
    assert l_colorable(g, ListSystem.from_sets([(1,), (1, 2), (2,)])) is None
    c = l_colorable(g, ListSystem.from_sets([(1,), (1, 2, 3), (2,)]))
    assert c is not None and c[0] == 1 and c[2] == 2 and c[1] == 3


def test_obstruction_family_member_loses_it_without_an_endpoint():
    g, l = gen_Hr(5)
    assert l_colorable(g, l) is None
    keep = range(1, g.n)
    sub = induced_subgraph(g, keep)
    subl = ListSystem([l.masks[v] for v in keep])
    assert l_colorable(sub, subl) is not None


@given(st.integers(0, 2**28), st.integers(0, 7), st.booleans())
@settings(max_examples=150, deadline=None)
def test_l_colorable_agrees_with_brute(seed, n, allow_empty):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    l = random_lists(rng, n, allow_empty=allow_empty)
    got = l_colorable(g, l)
    want = brute_l_colorable(g, l)
    assert (got is None) == (want is None)
    if got is not None:
        for v, c in enumerate(got):
            assert c in l.colors(v)
        for u, v in g.edges():
            assert got[u] != got[v]


@given(st.integers(0, 2**28), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_l_colorable_keeps_the_reference_search_tree(seed, n):
    # Same branching vertex, same color order, same propagation fixpoint at
    # every node: the very coloring the queue-based solver returns.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    l = ListSystem([7 if rng.random() < 0.5 else rng.randint(0, 7) for _ in range(n)])
    assert l_colorable(g, l) == l_colorable_reference(g, l)


@given(st.integers(0, 2**28), st.integers(0, 10))
@settings(max_examples=150, deadline=None)
def test_propagate_matches_exhaustive_update(seed, n):
    # With the one-color vertices forced, the round-based update clashes
    # exactly when unit propagation does, and otherwise reaches its lists.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.random())
    l = ListSystem([rng.choice((1, 2, 4, 7, rng.randint(1, 7))) for _ in range(n)])
    out = update_wrt_set_reference(g, l, [v for v in range(n) if l.size(v) == 1], "exhaustive")
    classes = (sum(1 << v for v in range(n) if l.masks[v] & c) for c in (1, 2, 4))
    res = _propagate(g.rows, *classes, 0)
    assert (res is None) == out.conflict
    if res is not None:
        p1, p2, p3, done = res
        masks = tuple(p1 >> v & 1 | (p2 >> v & 1) << 1 | (p3 >> v & 1) << 2 for v in range(n))
        assert masks == out.lists.masks
        assert done == sum(1 << v for v in out.fixed)


def test_update_from_example():
    # one round against a forced vertex deletes its color from its neighbor
    g = path_graph(2)
    l = ListSystem.from_sets([(2,), (1, 2, 3)])
    out = update_wrt_set_reference(g, l, [0], 1)
    assert out.lists.to_sets() == [(2,), (1, 3)]


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
    # a negative index must not wrap around, and a bool is not an index
    for path in ([-1], [5], [0, 1, -1], [False, True]):
        with pytest.raises(ValueError, match="out of range"):
            update_along_path(g, l, path, 1)


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


def test_update_wrt_set_zero_rounds_is_identity():
    g = path_graph(4)
    l = ListSystem.from_sets([(1,), (1, 2), (2, 3), (1, 2, 3)])
    out = update_wrt_set_reference(g, l, [0], 0)
    assert out.lists == l


def test_update_wrt_set_chain():
    # a-b-c with a pinned: one round fixes b, the next fixes c
    g = path_graph(3)
    l = ListSystem.from_sets([(1,), (1, 2), (2, 3)])
    one = update_wrt_set_reference(g, l, [0], 1)
    assert one.lists.to_sets() == [(1,), (2,), (2, 3)]
    out = update_wrt_set_reference(g, l, [0], "exhaustive")
    assert out.lists.to_sets() == [(1,), (2,), (3,)]
    assert out.conflict is False
    assert out.fixed == frozenset({0, 1, 2})
    assert out.rounds == 2


def test_update_wrt_set_conflict_wipes_outside():
    # two adjacent forced vertices sharing one color: everything else empties
    g = path_graph(3)
    l = ListSystem.from_sets([(1,), (1,), (1, 2, 3)])
    out = update_wrt_set_reference(g, l, [0, 1], 1)
    assert out.conflict is True
    assert out.lists.to_sets() == [(1,), (1,), ()]


@given(st.integers(0, 2**28), st.integers(1, 7), st.integers(0, 4))
@settings(max_examples=120, deadline=None)
def test_update_wrt_set_lists_only_shrink(seed, n, rounds):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    l = random_lists(rng, n, allow_empty=True)
    x = [v for v in range(n) if l.size(v) <= 1 and rng.random() < 0.7]
    out = update_wrt_set_reference(g, l, x, rounds).lists
    for v in range(n):
        assert out.masks[v] & ~l.masks[v] == 0
        if v in x:
            assert out.masks[v] == l.masks[v]


@given(st.integers(0, 2**28), st.integers(1, 7))
@settings(max_examples=80, deadline=None)
def test_update_wrt_set_fixpoint_is_stable(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    l = random_lists(rng, n, allow_empty=False)
    x = [v for v in range(n) if l.size(v) == 1 and rng.random() < 0.7]
    out = update_wrt_set_reference(g, l, x, "exhaustive")
    again = update_wrt_set_reference(g, out.lists, out.fixed, "exhaustive")
    assert again.lists == out.lists


@given(st.integers(0, 2**28), st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_update_wrt_set_preserves_solutions(seed, n):
    # updating never discards a proper coloring that extends the forced set
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    l = random_lists(rng, n, allow_empty=False)
    x = [v for v in range(n) if l.size(v) == 1]
    sol = brute_l_colorable(g, l)
    if sol is None:
        return
    out = update_wrt_set_reference(g, l, x, "exhaustive")
    if not out.conflict:
        for v in range(n):
            if v not in out.fixed:
                assert sol[v] in out.lists.colors(v)


def test_precolor_and_update_empty_assignment():
    g = path_graph(3)
    l = ListSystem.full(3)
    assert update_wrt_set_reference(g, l, [], 3).lists == l


def test_precolor_and_update_triangle_kills_fourth():
    # the triangle of K4 pinned to 1, 2, 3 leaves the fourth vertex no color
    g = complete_graph(4)
    l = ListSystem.from_sets([(1,), (2,), (3,), (1, 2, 3)])
    out = update_wrt_set_reference(g, l, [0, 1, 2], 3)
    assert out.lists.colors(3) == ()


def test_precolor_circulant_forces_everything():
    # pinning one triangle of the 16-vertex circulant determines every list;
    # one vertex empties, its antipode is forced to color 3.
    g = gen_Gr(5)
    l = ListSystem.from_sets([(1, 2, 3), (1,), (2,), (3,)] + [(1, 2, 3)] * 12)
    out = update_wrt_set_reference(g, l, [1, 2, 3], "exhaustive")
    assert out.lists.to_sets() == [
        (3,),
        (1,),
        (2,),
        (3,),
        (1,),
        (2,),
        (3,),
        (1,),
        (2,),
        (3,),
        (),
        (1,),
        (2,),
        (3,),
        (1,),
        (2,),
    ]

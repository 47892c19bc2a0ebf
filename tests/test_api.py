from __future__ import annotations

import types
from functools import partial

import pytest

import tricrit
from tricrit.coloring import ListSystem, color_bit, lists_from_json, update_along_path
from tricrit.families import gen_Gr, gen_Hr
from tricrit.graphs import (
    MAX_VERTICES, Graph, cycle_graph, has_induced_path, induced_subgraph, path_graph,
)
from tricrit.propagation import (
    MAX_ENUM_LENGTH, EnumerationResult, PropConfig, enumerate_propagation_paths, shape,
)

# Every name the package exports; an addition or removal is an API change
# and belongs in this list.
PUBLIC_NAMES = {
    "DichotomyVerdict",
    "EnumerationResult",
    "FamilyReport",
    "Graph",
    "Graph6Error",
    "ListSystem",
    "ObstructionReport",
    "P6_REFERENCE_COUNTS",
    "PropConfig",
    "admissible_edge",
    "classify",
    "components",
    "contains_induced",
    "critical_vertices",
    "describe",
    "enumerate_propagation_paths",
    "extract_minimal",
    "find_induced_embedding",
    "gen_Gr",
    "gen_Hr",
    "has_induced_path",
    "induced_subgraph",
    "is_4_vertex_critical",
    "is_induced_subgraph_of_P4kP1",
    "is_induced_subgraph_of_P6",
    "is_minimal_obstruction",
    "is_obstruction",
    "l_colorable",
    "lists_from_json",
    "lists_to_json",
    "max_propagation_length",
    "obstruction_report",
    "parse_graph6",
    "parse_pattern",
    "satisfies_condition1",
    "shape",
    "update_along_path",
    "verify_Gr",
    "verify_Hr",
    "write_graph6",
}


def test_public_surface_is_pinned():
    # Submodules become attributes of the package once imported, so they
    # are left out; what remains is what __init__ exports.
    exported = {
        name
        for name, obj in vars(tricrit).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


_P3 = path_graph(3)
_LISTS = ListSystem.full(3)
_CFG = PropConfig((1, 2, 3))

# The one table of integer refusals: each public integer input with the
# first value below its range and the first above it (None where it has no
# upper bound).  Every one of them also refuses a bool, a float, integral or
# not, and a numeric string: True == 1.0 == 1, so only a type check keeps
# them out.
INTEGER_INPUTS = {
    "Graph(n)": (Graph, -1, MAX_VERTICES + 1),
    "path_graph": (path_graph, -1, MAX_VERTICES + 1),
    "cycle_graph": (cycle_graph, 2, MAX_VERTICES + 1),
    "has_induced_path": (partial(has_induced_path, _P3), 0, None),
    "induced_subgraph": (lambda x: induced_subgraph(_P3, [x]), -1, 3),
    "has_edge(u)": (lambda x: _P3.has_edge(x, 1), -1, 3),
    "has_edge(v)": (lambda x: _P3.has_edge(0, x), -1, 3),
    "degree": (_P3.degree, -1, 3),
    "neighbors": (_P3.neighbors, -1, 3),
    "color_bit": (color_bit, 0, 4),
    "ListSystem(masks)": (lambda x: ListSystem([x]), -1, 8),
    "ListSystem.from_sets": (lambda x: ListSystem.from_sets([(x,)]), 0, 4),
    "ListSystem.full": (ListSystem.full, -1, MAX_VERTICES + 1),
    "ListSystem.size": (_LISTS.size, -1, 3),
    "ListSystem.colors": (_LISTS.colors, -1, 3),
    "lists_from_json(n)": (lambda x: lists_from_json({"n": x, "lists": []}), -1, MAX_VERTICES + 1),
    "update_along_path(path)": (lambda x: update_along_path(_P3, _LISTS, [x], 1), -1, 3),
    "update_along_path(alpha)": (lambda x: update_along_path(_P3, _LISTS, [0], x), 0, 4),
    "PropConfig.color": (_CFG.color, 0, 4),
    "shape": (partial(shape, _CFG), 1, 4),
    "count_at": (EnumerationResult((1, 2, 6)).count_at, 0, 4),
    "max_n": (lambda x: enumerate_propagation_paths(["P6"], x), -1, MAX_ENUM_LENGTH + 1),
    "jobs": (lambda x: enumerate_propagation_paths(["P6"], 1, jobs=x), 0, None),
    "gen_Gr": (gen_Gr, 0, 43),
    "gen_Hr": (gen_Hr, 0, 44),
}


@pytest.mark.parametrize("name", INTEGER_INPUTS)
def test_integer_inputs_follow_one_rule(name):
    call, below, above = INTEGER_INPUTS[name]
    for value in (True, 1.0, 2.0, 2.5, 3.0, "3", below, above):
        if value is None:
            continue
        with pytest.raises(ValueError, match="out of range") as info:
            call(value)
        assert repr(value) in str(info.value)

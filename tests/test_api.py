from __future__ import annotations

import types

import tricrit

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

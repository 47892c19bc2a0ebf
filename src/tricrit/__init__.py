"""Tools for studying minimal obstructions to list 3-coloring.

The package provides a small bitmask graph type, an exact list 3-coloring
solver with the rule of updating along a path, obstruction predicates, an
exhaustive enumerator for chorded propagation paths, generators and
verifiers for two infinite certificate families, and a structural
classifier that decides for a forbidden pattern H whether the associated
obstruction classes are finite.
"""

from .graphs import (
    Graph,
    Graph6Error,
    components,
    contains_induced,
    find_induced_embedding,
    has_induced_path,
    induced_subgraph,
    parse_graph6,
    parse_pattern,
    write_graph6,
)
from .coloring import (
    ListSystem,
    l_colorable,
    lists_from_json,
    lists_to_json,
    update_along_path,
)
from .obstructions import (
    ObstructionReport,
    critical_vertices,
    extract_minimal,
    is_4_vertex_critical,
    is_minimal_obstruction,
    is_obstruction,
    obstruction_report,
)
from .propagation import (
    EnumerationResult,
    PropConfig,
    P6_REFERENCE_COUNTS,
    admissible_edge,
    enumerate_propagation_paths,
    max_propagation_length,
    satisfies_condition1,
    shape,
)
from .families import FamilyReport, gen_Gr, gen_Hr, verify_Gr, verify_Hr
from .dichotomy import (
    DichotomyVerdict,
    classify,
    describe,
    is_induced_subgraph_of_P4kP1,
    is_induced_subgraph_of_P6,
)

__version__ = "0.1.0"

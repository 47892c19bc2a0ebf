"""Two infinite certificate families and their property verifiers.

``gen_Gr`` builds, for each r >= 1, a circulant graph on 3r+1 vertices
whose chord offsets are 1 and every value congruent to 2 mod 3 up to the
midpoint.  These graphs are 4-vertex-critical yet avoid both P7 and
2P2+P1, which certifies that forbidding those patterns leaves infinitely
many 4-vertex-critical graphs.

``gen_Hr`` builds, for each r >= 1, a chorded path on 3r-1 vertices with
color lists that force a contradiction: both endpoints insist on color 1
and the interior lists follow a period-3 schedule, with chords from
vertices congruent to 2 mod 3 forward to vertices congruent to 1 mod 3.
Each instance is a minimal list obstruction containing no induced 2P3,
which certifies that forbidding 2P3 leaves infinitely many minimal
obstructions even though 4-vertex-critical graphs stay finite there.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coloring import PALETTE, ListSystem, _propagate, update_along_path
from .graphs import (
    MAX_VERTICES, Graph, _search, bits, check_int, find_induced_embedding, pattern_graph,
)
from .obstructions import is_4_vertex_critical, is_minimal_obstruction


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    details: str = ""


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of verifying one family member, one line per property."""

    family: str
    r: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "r": self.r,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


def gen_Gr(r: int) -> Graph:
    """The circulant certificate graph on 3r+1 vertices.

    Vertex i is joined to i +- 1 and to i + d for every offset d = 3j+2
    with 0 <= j < r, all mod 3r+1.  Those offsets are exactly the ones in
    2..3r that are 2 mod 3, and 3r+1 - d is 2 mod 3 whenever d is, so for
    i < j the edge rule reads off j - i alone.  The degree r + 2 is
    asserted as a self-check.
    """
    n = 3 * check_int(r, 1, (MAX_VERTICES - 1) // 3, "family parameter r") + 1
    g = Graph(n, [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if j - i in (1, n - 1) or (j - i) % 3 == 2
    ])
    if any(g.degree(v) != r + 2 for v in range(n)):
        raise AssertionError("circulant degree self-check failed")
    return g


def verify_Gr(r: int) -> FamilyReport:
    """Check the four defining properties of the r-th circulant certificate."""
    g = gen_Gr(r)
    n = g.n
    checks = []

    checks.append(
        PropertyCheck("4-vertex-critical", is_4_vertex_critical(g))
    )

    # G_r is circulant: rotating by -u maps an induced copy through u onto
    # one through vertex 0, so searching through vertex 0 decides freeness.
    for name in ("2P2+P1", "P7"):
        found = _search(pattern_graph(name)).through(g.rows, (1 << n) - 1, 0)
        checks.append(
            PropertyCheck(f"{name}-free", not found, "induced copy through vertex 0" if found else "")
        )

    # Deleting vertex 0 leaves a uniquely 3-colorable graph: pin the
    # triangle 1, 2, 3 to colors 1, 2, 3 and run unit propagation on the
    # other live vertices; every one of them must be forced to one color,
    # and the colors must form a proper coloring.
    free = (1 << n) - 16  # vertices 4..n-1
    res = _propagate(g.rows, free | 0b10, free | 0b100, free | 0b1000, 0)
    ok = res is not None and res[3] == free | 0b1110 and not any(
        g.rows[v] & p for p in res[:3] for v in bits(p)
    )
    checks.append(
        PropertyCheck(
            "unique-coloring-after-deleting-v0",
            ok,
            f"last vertex forced to color {next(c for c, p in zip(PALETTE, res) if p >> n - 1 & 1)}"
            if ok else "propagation did not force a proper coloring",
        )
    )

    return FamilyReport("Gr", r, tuple(checks))


def gen_Hr(r: int) -> tuple[Graph, ListSystem]:
    """The r-th chorded-path obstruction: its graph and its color lists.

    The path has 3r-1 vertices.  Writing positions 1-based, a chord joins
    position i to position j whenever i <= j-2, i = 2 mod 3 and
    j = 1 mod 3.  Both endpoints get list {1}; an interior position p gets
    {2,3}, {1,3} or {1,2} according to p mod 3 being 0, 1 or 2.
    """
    n = 3 * check_int(r, 1, (MAX_VERTICES + 1) // 3, "family parameter r") - 1
    g = Graph(n, [
        (a - 1, b - 1) for a in range(1, n + 1) for b in range(a + 1, n + 1)
        if b == a + 1 or (a % 3 == 2 and b % 3 == 1)
    ])
    interior = ((2, 3), (1, 3), (1, 2))  # by p mod 3
    sets = [(1,)] + [interior[p % 3] for p in range(2, n)] + [(1,)]
    return g, ListSystem.from_sets(sets)


def verify_Hr(r: int) -> FamilyReport:
    """Check the defining properties of the r-th chorded-path obstruction."""
    g, lists = gen_Hr(r)
    n = g.n
    checks = []

    checks.append(
        PropertyCheck("minimal-obstruction", is_minimal_obstruction(g, lists))
    )

    emb = find_induced_embedding(g, "2P3")
    checks.append(
        PropertyCheck(
            "2P3-free",
            emb is None,
            "" if emb is None else f"embedding at {emb}",
        )
    )

    # For every interior vertex, deleting it splits the forcing chain:
    # color both ends 1 and update along the two remaining arms.  Updating
    # along a path reads only the vertices already passed, so each arm is a
    # prefix of one pass from its end.  Both arms must be forced and proper
    # together, chords across the split included.
    fwd = update_along_path(g, lists, range(n - 1), 1)
    bwd = update_along_path(g, lists, range(n - 1, 0, -1), 1)
    edges = g.edges()
    detail = ""
    for mid in range(1, n - 1):
        colors = fwd[:mid] + bwd[mid:]
        if None in colors[:mid] + colors[mid + 1:]:
            detail = f"an arm stalls after deleting vertex {mid}"
        elif any(colors[a] == colors[b] for a, b in edges if mid not in (a, b)):
            detail = f"forced halves clash after deleting vertex {mid}"
        if detail:
            break
    checks.append(PropertyCheck("two-sided-deletion-colorings", not detail, detail))

    return FamilyReport("Hr", r, tuple(checks))

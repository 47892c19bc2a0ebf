"""Acceptance gate: one test per stated criterion, one printed verdict line each.

Run with plain pytest; the bracketed lines print straight to the terminal so
the gate's verdicts are visible even when capture is on.
"""
from __future__ import annotations

import io
import random
import time
from collections import Counter

from tricrit.coloring import ListSystem
from tricrit.families import gen_Gr, gen_Hr, verify_Gr, verify_Hr
from tricrit.graphs import (
    Graph,
    PatternSearch,
    contains_induced,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    path_graph,
    pattern_graph,
    write_graph6,
)
from tricrit.obstructions import extract_minimal, is_4_vertex_critical
from tricrit.dichotomy import (
    CASE_CONTAINS_2P2_P1,
    CASE_CONTAINS_CLAW,
    CASE_CONTAINS_CYCLE,
    CASE_EQUALS_2P3,
    CASE_SUBGRAPH_OF_P4_KP1,
    CASE_SUBGRAPH_OF_P6,
    classify,
)
from tricrit.propagation import P6_REFERENCE_COUNTS, enumerate_propagation_paths

import reference
from oracles import (
    assert_minimal_obstruction_sane,
    brute_l_colorable,
    complete_graph,
    contains_induced_brute,
    contains_induced_through_brute,
    dfs_stream_uncached,
    graphs_upto,
    is_4_vertex_critical_brute,
    is_witness_brute,
    random_graph,
    random_lists,
)


def report(capsys, tag: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {tag}: {detail}"


# SHA-256 of the full P6 n=25 emission stream, recorded from a search over
# both values of c(v_2), so it also checks the 2<->3 twin lines.
P6_STREAM_SHA256 = "d39362c335dcc3daff32218df6bf257fbb10425f5a320afd60354d57ed4f23c4"


def test_criterion_1_reference_counts(p6_run, capsys):
    result, elapsed, _, _ = p6_run
    exact = result.counts == P6_REFERENCE_COUNTS
    report(
        capsys,
        "1",
        exact and elapsed < 60.0,
        f"all 25 counts exact={exact}, single-threaded run {elapsed:.1f}s (< 60s)",
    )
    t0 = time.monotonic()
    r8 = enumerate_propagation_paths(["P6"], 25, jobs=8)
    t8 = time.monotonic() - t0
    report(
        capsys,
        "1",
        r8.counts == P6_REFERENCE_COUNTS and t8 < 15.0,
        f"8-worker run matches and took {t8:.1f}s (< 15s)",
    )


def test_criterion_1_emitted_stream(p6_run, capsys):
    _, _, text, digest = p6_run
    report(
        capsys,
        "1",
        digest == P6_STREAM_SHA256,
        f"P6 n=25 emitted stream SHA-256 {digest[:12]}... (want {P6_STREAM_SHA256[:12]}...)",
    )
    # The benchmark's independent check: sorted unique admissible lines, the
    # published counts, every truncation present and 400 sampled lines P6-free.
    problems = reference.check_emitted(text, reference.P6_COUNTS, 1)
    report(
        capsys,
        "1",
        problems == [],
        "P6 n=25 emitted stream passes reference.check_emitted: "
        + ("; ".join(problems[:20]) or "no problems"),
    )


def test_criterion_2_max_length(p6_run, capsys):
    result, _, _, _ = p6_run
    ok = (
        result.max_length == 24
        and result.count_at(24) == 2
        and result.count_at(25) == 0
    )
    report(
        capsys,
        "2",
        ok,
        f"max length {result.max_length}, counts at 24/25 = "
        f"{result.count_at(24)}/{result.count_at(25)}; size bound 4*24+4 = {4 * 24 + 4}",
    )
    assert 4 * result.max_length + 4 == 100


def test_criterion_3_families(capsys):
    worst = 0.0
    all_ok = True
    for r in range(1, 9):
        t0 = time.monotonic()
        rep = verify_Hr(r)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        all_ok = all_ok and rep.passed and dt < 10.0
    for r in range(1, 7):
        t0 = time.monotonic()
        rep = verify_Gr(r)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        all_ok = all_ok and rep.passed and dt < 10.0
    report(
        capsys,
        "3",
        all_ok,
        f"verify_Hr r=1..8 and verify_Gr r=1..6 all pass, slowest {worst:.2f}s (< 10s)",
    )


def test_criterion_4_truth_table(capsys):
    # Each pattern with its case.  The case fixes the two flags, finitely
    # many 4-vertex-critical graphs and finitely many minimal list
    # obstructions: both for the finite cases, neither for the rest.
    flags = {CASE_SUBGRAPH_OF_P6: (True, True), CASE_SUBGRAPH_OF_P4_KP1: (True, True),
             CASE_EQUALS_2P3: (True, False)}
    cases = [
        (pattern_graph("P6"), CASE_SUBGRAPH_OF_P6),
        (pattern_graph("P5"), CASE_SUBGRAPH_OF_P6),
        (disjoint_union(path_graph(3), path_graph(2)), CASE_SUBGRAPH_OF_P6),
        (pattern_graph("P4+3P1"), CASE_SUBGRAPH_OF_P4_KP1),
        (pattern_graph("2P3"), CASE_EQUALS_2P3),
        (pattern_graph("claw"), CASE_CONTAINS_CLAW),
        (pattern_graph("2P2+P1"), CASE_CONTAINS_2P2_P1),
        *((cycle_graph(t), CASE_CONTAINS_CYCLE) for t in range(3, 10)),
        # supergraphs of patterns on the infinite side
        (disjoint_union(pattern_graph("claw"), path_graph(2)), CASE_CONTAINS_CLAW),
        (disjoint_union(cycle_graph(4), path_graph(3)), CASE_CONTAINS_CYCLE),
        (path_graph(7), CASE_CONTAINS_2P2_P1),
        (complete_graph(4), CASE_CONTAINS_CYCLE),
        (Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), CASE_CONTAINS_CYCLE),
    ]
    wrong = []
    for h, case in cases:
        v = classify(h)
        got = v.case, v.finite_vertex_critical, v.finite_list_obstructions
        if got != (case, *flags.get(case, (False, False))):
            wrong.append(write_graph6(h))
    report(
        capsys,
        "4",
        not wrong,
        "cases and verdicts: (finite,finite) x4, (finite,infinite) for 2P3, "
        "(infinite,infinite) for claw/C3..C9/2P2+P1 and 5 supergraphs; "
        f"mismatches: {', '.join(wrong) or 'none'}",
    )


def test_criterion_5a_enumerator_vs_brute(capsys):
    # Patterns for the P6 walker and for the generic anchored matcher, and
    # chord-rich configurations under no pattern or a small one.  P6 with
    # claw keeps witnesses of the walker and of the matcher in one cache.
    # Length 7 reaches the worker tasks.
    cases = [([], 6), (["P3"], 6), (["P4"], 6), (["P5"], 6), (["C4"], 6),
             (["2P2+P1"], 6), (["P6", "C4"], 6), (["P6"], 7), (["2P3"], 7),
             (["claw"], 7), (["P4+1P1"], 7), (["P6", "claw"], 7)]
    failed = []
    lines = 0
    for names, max_n in cases:
        patterns = [pattern_graph(x) for x in names]
        expected = dfs_stream_uncached(max_n, lambda rows: any(
            contains_induced_through_brute(Graph.from_rows(rows), h, len(rows) - 1)
            for h in patterns))
        per_length = Counter(int(line.split()[0]) for line in expected.splitlines())
        counts = tuple(per_length[k] for k in range(1, max_n + 1))
        buf = io.StringIO()
        emitted = enumerate_propagation_paths(names, max_n, emit=buf)
        plain = enumerate_propagation_paths(names, max_n)
        if buf.getvalue() != expected or not emitted.counts == plain.counts == counts:
            failed.append("+".join(names) or "[]")
        lines += expected.count("\n")
    report(
        capsys,
        "5a",
        not failed,
        f"enumerator equals brute-force filtering on {len(cases)} forbidden sets, "
        f"n <= 6 or 7: emitted stream ({lines} lines) and counts with and without "
        f"emit; mismatches: {', '.join(failed) or 'none'}",
    )


def test_criterion_5b_solver_vs_exhaustive(capsys):
    rng = random.Random(20260822)
    ok = True
    for i in range(500):
        n = rng.randint(0, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        l = random_lists(rng, n, allow_empty=(i % 5 == 0))
        from tricrit.coloring import l_colorable

        got = l_colorable(g, l)
        want = brute_l_colorable(g, l)
        ok = ok and (got is None) == (want is None)
        if got is not None:
            ok = ok and all(got[v] in l.colors(v) for v in range(n))
            ok = ok and all(got[u] != got[v] for u, v in g.edges())
    report(capsys, "5b", ok, "solver agrees with exhaustive assignment on 500 random pairs, n <= 7")


def test_criterion_5c_criticality_vs_brute(capsys):
    classes = graphs_upto(6)
    ok = all(is_4_vertex_critical(g) == is_4_vertex_critical_brute(g) for g in classes)
    report(capsys, "5c", ok, f"criticality test matches brute force on all {len(classes)} classes, n <= 6")


NAMED_PATTERNS = (
    ["P%d" % t for t in range(1, 11)]
    + ["C%d" % t for t in range(3, 10)]
    + ["claw", "2P2+P1", "2P3", "P4+1P1", "P4+2P1", "P4+3P1"]
)


def _containment_hosts() -> list[Graph]:
    # all graphs with <= 9 vertices is out of reach for an exhaustive sweep
    # (275k isomorphism classes at 9 alone); this is every class up to 6
    # vertices plus seeded random hosts at 7, 8 and 9 vertices
    hosts = list(graphs_upto(6))
    rng = random.Random(77)
    for n in (7, 8, 9):
        for _ in range(20):
            hosts.append(random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7])))
    return hosts


def test_criterion_5d_containment_vs_brute(capsys):
    patterns = [(name, pattern_graph(name)) for name in NAMED_PATTERNS]
    hosts = _containment_hosts()
    ok = True
    for g in hosts:
        for _, h in patterns:
            if contains_induced(g, h) != contains_induced_brute(g, h):
                ok = False
    report(
        capsys,
        "5d",
        ok,
        f"containment matches subset brute force: {len(hosts)} hosts "
        f"(exhaustive <= 6, sampled 7..9) x {len(patterns)} named patterns",
    )


def test_anchored_search_respects_alive_mask():
    # The whole-graph anchor loop at anchor v: ``alive`` holds v..n-1 and
    # the rows stay whole.  Both arms must answer for the subgraph induced
    # on v..n-1 alone, with the rows whole and with the dead vertices
    # cleared from them too; the path walker once read only the rows, and
    # clearing the rows without the mask once let the matcher report 2P3
    # copies in Hr that are not there.
    searches = [(name, pattern_graph(name), PatternSearch(name)) for name in NAMED_PATTERNS]
    for g in _containment_hosts():
        n = g.n
        for v in range(n):
            alive = (1 << n) - (1 << v)
            rest = induced_subgraph(g, range(v, n))
            cleared = [row & alive for row in g.rows]
            for name, h, search in searches:
                want = contains_induced_through_brute(rest, h, 0)
                for rows in (g.rows, cleared):
                    mask = search.through(rows, alive, v)
                    assert bool(mask) == want, (g, name, v)
                    assert not mask or is_witness_brute(g, h, alive, v, mask), (g, name, v, mask)
                    assert (search.embedding(rows, alive, v) is not None) == want, (g, name, v)


def test_criterion_6_minimality_sanity(capsys):
    touched = []
    for r in range(1, 9):
        touched.append(gen_Hr(r))
    for r in range(1, 7):
        g = gen_Gr(r)
        touched.append((g, ListSystem.full(g.n)))
    rng = random.Random(5)
    added = 0
    while added < 10:
        n = rng.randint(3, 7)
        g = random_graph(rng, n, 0.6)
        l = random_lists(rng, n, allow_empty=False)
        if brute_l_colorable(g, l) is None:
            _, core, core_l = extract_minimal(g, l)
            touched.append((core, core_l))
            added += 1
    for g, l in touched:
        assert_minimal_obstruction_sane(g, l)
    report(
        capsys,
        "6",
        True,
        f"{len(touched)} minimal obstructions: no dominating pairs, every vertex critical",
    )

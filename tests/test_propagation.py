from __future__ import annotations

import hashlib
import inspect
import io
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tricrit import propagation
from tricrit.coloring import ListSystem
from tricrit.families import gen_Hr
from tricrit.graphs import Graph, PatternSearch, induced_subgraph
from tricrit.propagation import (
    EnumerationResult,
    P6_REFERENCE_COUNTS,
    PropConfig,
    ResourceLimitError,
    admissible_edge,
    enumerate_propagation_paths,
    max_propagation_length,
    satisfies_condition1,
    shape,
)

from oracles import dfs_stream_uncached
from reference import P6_COUNTS, chord_ok


def test_prop_config_validation():
    PropConfig((1, 2, 1, 3), frozenset({(1, 3), (2, 4)}))
    with pytest.raises(ValueError):
        PropConfig(())
    with pytest.raises(ValueError):
        PropConfig((2, 1))  # must start with color 1
    with pytest.raises(ValueError):
        PropConfig((1, 1))
    with pytest.raises(ValueError):
        PropConfig((1, 4))
    for colors in [(True, 2), (1, 2.0), (1.0, 2)]:  # colors are ints, not bools or floats
        with pytest.raises(ValueError):
            PropConfig(colors)
    with pytest.raises(ValueError):
        PropConfig((1, 2, 1), frozenset({(1, 2)}))  # consecutive pair
    with pytest.raises(ValueError):
        PropConfig((1, 2, 1), frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        PropConfig((1, 2, 1), frozenset({(2, 9)}))
    # Chord endpoints are ints, not bools or floats.
    for chord in [(1.0, 3), (True, 3), (1, 3.0)]:
        with pytest.raises(ValueError, match="not a valid non-consecutive pair"):
            PropConfig((1, 2, 1, 2), frozenset({chord}))
        with pytest.raises(ValueError, match="not a valid non-consecutive pair"):
            admissible_edge(PropConfig((1, 2, 1, 2)), *chord)
    for chord in [[1, 3], 5, (1, 3, 4), (1,)]:  # a chord is a pair
        with pytest.raises(ValueError, match=re.escape(f"chord {chord!r} ")):
            PropConfig((1, 2, 1, 2), [chord])


def test_prop_config_accessors():
    cfg = PropConfig((1, 2, 3), frozenset({(1, 3)}))
    assert cfg.k == 3
    assert cfg.color(2) == 2
    g = cfg.graph()
    assert g.n == 3 and g.edge_count() == 3
    # Any sequence of colours and any iterable of chords give the same
    # hashable value, a repeated chord counted once.
    for same in (PropConfig([1, 2, 3], [(1, 3)]), PropConfig((1, 2, 3), [(1, 3), (1, 3)])):
        assert same == cfg and hash(same) == hash(cfg)
        assert same.colors == (1, 2, 3) and same.extra_edges == frozenset({(1, 3)})
    assert hash(PropConfig([1, 2, 3])) == hash(PropConfig((1, 2, 3)))


def test_shape_examples():
    assert shape(PropConfig((1, 2)), 2) == (2, 1)
    assert shape(PropConfig((1, 2, 3)), 3) == (3, 2)
    assert shape(PropConfig((1, 3, 1)), 3) == (1, 3)


def test_condition1_examples():
    assert satisfies_condition1(PropConfig((1, 2, 3, 1, 2)))
    assert satisfies_condition1(PropConfig((1, 2, 3, 1, 2), frozenset({(3, 5)})))
    assert not satisfies_condition1(PropConfig((1, 2, 3, 2, 3), frozenset({(3, 5)})))


def test_admissible_edge_examples():
    assert admissible_edge(PropConfig((1, 2, 3)), 1, 3)
    assert not admissible_edge(PropConfig((1, 2, 1)), 1, 3)
    assert admissible_edge(PropConfig((1, 2, 3, 1, 2)), 3, 5)
    assert not admissible_edge(PropConfig((1, 2, 1, 3, 2)), 2, 5)
    with pytest.raises(ValueError):
        admissible_edge(PropConfig((1, 2, 1)), 2, 3)


def test_admissible_edge_matches_independent_restatement():
    # every color sequence of length 3..9, every chord: the library
    # predicate (the search's own rule) and the benchmark's restatement agree
    import itertools

    for k in range(3, 10):
        for tail in itertools.product((1, 2, 3), repeat=k - 1):
            cs = (1,) + tail
            if any(a == b for a, b in zip(cs, cs[1:])):
                continue
            cfg = PropConfig(cs)
            for j in range(3, k + 1):
                for i in range(1, j - 1):
                    assert admissible_edge(cfg, i, j) == chord_ok(cs, i, j), (cs, i, j)


def test_hr_prefix_is_an_admissible_configuration():
    # The first 3r-2 vertices of Hr(r), colored 1, 2, 3, 1, 2, 3, ..., are a
    # configuration under the enumerator's chord rule, whose implied lists
    # are Hr's own; for r = 2, 3 the search emits it.
    for r in range(2, 9):
        k = 3 * r - 2
        colors = tuple((p - 1) % 3 + 1 for p in range(1, k + 1))
        chords = [(i, j) for i in range(2, k + 1, 3) for j in range(i + 2, k + 1, 3)]
        cfg = PropConfig(colors, frozenset(chords))
        assert all(admissible_edge(cfg, i, j) for i, j in chords), r
        g, lists = gen_Hr(r)
        assert cfg.graph() == induced_subgraph(g, range(k)), r
        implied = ListSystem.from_sets([(1,)] + [shape(cfg, p) for p in range(2, k + 1)])
        assert implied.masks == lists.masks[:k], r
        if r <= 3:
            buf = io.StringIO()
            enumerate_propagation_paths(["2P3"], k, emit=buf)
            line = f"{k} {''.join(map(str, colors))} {','.join(f'{i}-{j}' for i, j in chords)}"
            assert line in buf.getvalue().split("\n"), line


def test_enumeration_result_accessors():
    r = EnumerationResult((1, 2, 0, 4, 0))
    assert r.max_length == 4
    assert r.count_at(2) == 2
    assert r.total == 7


def test_enumerate_no_forbidden_n3():
    assert enumerate_propagation_paths([], 3).counts == (1, 2, 6)


def test_enumerate_edge_cases():
    assert enumerate_propagation_paths(["P6"], 0).counts == ()
    assert enumerate_propagation_paths(["P6"], 1).counts == (1,)
    # The empty pattern and P1 lie in every configuration; P7 and 2P3 in
    # none of length at most 4, so those counts are the unrestricted ones.
    assert enumerate_propagation_paths([Graph(0)], 3).counts == (0, 0, 0)
    assert enumerate_propagation_paths(["P1"], 3).counts == (0, 0, 0)
    assert enumerate_propagation_paths(["P7", "2P3"], 4).counts == (1, 2, 6, 22)


def test_max_length_examples():
    assert max_propagation_length(["P3"]) == 3
    assert enumerate_propagation_paths(["P3"], 5).counts == (1, 2, 2, 0, 0)
    assert max_propagation_length(["P2"]) == 1
    # Crosses the length-6 split between the driver and its tasks.
    assert max_propagation_length(["P5"]) == 12


@pytest.mark.parametrize("names", [[], ["claw"], ["C3"]], ids=["none", "claw", "C3"])
def test_unbounded_search_raises_resource_limit(names):
    # The chordless path avoids each of these, and the search follows it.
    # It takes no Python frame per length, so 50 frames above this one do.
    limit = sys.getrecursionlimit()
    for low in (limit, len(inspect.stack(0)) + 50):
        sys.setrecursionlimit(low)
        try:
            with pytest.raises(ResourceLimitError, match="^configurations reach length 128; "
                               "the search looks unbounded$"):
                max_propagation_length(names)
        finally:
            sys.setrecursionlimit(limit)


# The emitted streams of the generic matcher, pinned by line count and
# SHA-256.  The uncached oracle below shares PatternSearch with the search,
# so only these digests catch a fault in the matcher itself.  `ci/checks.py
# pool-stream` checks the 2P3 and P4+2P1 streams from pool workers against them.
MATCHER_STREAMS = [
    (["2P3"], 9, 33_911, "605e6d7be9a3bba44a1a3a8b2a5057a88a1d64ff4705af4a39fb3c9f11fad366"),
    (["claw"], 9, 8_947, "a8fabc310b4486394aac0820b5d810c8aa0fac095bb607e7517eb49fa24747e8"),
    (["P4+2P1"], 9, 44_467, "0934e349be15f00057a86a4494e77d5bcb418e168a3d7b5d7c7e350790cd85f3"),
    (["2P2+P1"], 9, 4_481, "ab024d34059bb5d0d996faff8a35d6894c188667522867e8e74a4c8d5a0c9d4a"),
    (["P6", "claw"], 10, 615, "326510e06a98904b9a7bbb9cc75153a6005a0980ddd7c0e98882d451630c80a5"),
]


@pytest.mark.parametrize(
    "names, max_n, total, digest",
    MATCHER_STREAMS,
    ids=["2P3", "claw", "P4+2P1", "2P2+P1", "P6+claw"],
)
def test_emitted_stream_matches_uncached_search(monkeypatch, names, max_n, total, digest):
    # Witnesses live down many levels when the driver runs the whole
    # search (split at max_n), and P4+2P1 leaves witnesses with an empty
    # row r, from copies where the new vertex is isolated.
    searches = [PatternSearch(x) for x in names]
    expected = dfs_stream_uncached(max_n, lambda rows: any(
        s.through(rows, (1 << len(rows)) - 1, len(rows) - 1) for s in searches))
    assert expected.count("\n") == total, names
    assert hashlib.sha256(expected.encode()).hexdigest() == digest, names
    for split in (propagation._SPLIT_DEPTH, max_n):
        monkeypatch.setattr(propagation, "_SPLIT_DEPTH", split)
        buf = io.StringIO()
        enumerate_propagation_paths(names, max_n, emit=buf)
        assert buf.getvalue() == expected, (names, split)


def test_witness_cache_skips_searches(search_calls):
    # A chord subset that keeps a copy already found is rejected without
    # a search, for as long as the copy's rows stay fixed.  Searching
    # every subset takes 198,042 searches for P6 up to length 14; keeping
    # witnesses only for one parent and color takes 87,521.
    r = enumerate_propagation_paths(["P6"], 14)
    assert r.counts == P6_REFERENCE_COUNTS[:14]
    assert len(search_calls) <= 65_000, len(search_calls)


def test_counts_deterministic_across_workers(monkeypatch):
    # Pretend the machine has three cores so jobs=3 really runs the
    # process pool even when the test host has fewer.  Lengths 1 and 2 are
    # where the 2<->3 doubling and the twin lines start.
    monkeypatch.setattr("tricrit.propagation.os.cpu_count", lambda: 3)
    # P6 with claw pickles a walker search and a matcher search in one pool.
    for names, max_n in (
        (["P6"], 9), (["2P3"], 8), (["P6", "claw"], 8), (["P6"], 1), (["P6"], 2)
    ):
        buf1 = io.StringIO()
        buf3 = io.StringIO()
        r1 = enumerate_propagation_paths(names, max_n, emit=buf1, jobs=1)
        r3 = enumerate_propagation_paths(names, max_n, emit=buf3, jobs=3)
        assert r1.counts == r3.counts, (names, max_n)
        assert buf1.getvalue() == buf3.getvalue(), (names, max_n)
        if names == ["P6"]:
            assert r1.counts == P6_REFERENCE_COUNTS[:max_n]
    assert buf1.getvalue() == "1 1 -\n2 12 -\n2 13 -\n"


def test_emit_writes_one_length_at_a_time():
    class Recorder:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    # P3 leaves lengths 4 and 5 empty; an empty length gets no write.
    for names, max_n, writes in ((["P6"], 8, 8), (["P3"], 5, 3)):
        sink = Recorder()
        buf = io.StringIO()
        r = enumerate_propagation_paths(names, max_n, emit=sink)
        enumerate_propagation_paths(names, max_n, emit=buf)
        assert "".join(sink.writes) == buf.getvalue()
        assert len(sink.writes) == writes == sum(map(bool, r.counts))
        for text in sink.writes:
            assert text and len({line.split()[0] for line in text.splitlines()}) == 1
    assert r.counts == (1, 2, 2, 0, 0)


def test_jobs_capped_at_core_count(monkeypatch):
    calls = []
    real_pool = multiprocessing.get_context("fork").Pool

    class Ctx:
        def Pool(self, n):
            calls.append(n)
            return real_pool(n)

    monkeypatch.setattr("tricrit.propagation.os.cpu_count", lambda: 2)
    monkeypatch.setattr(
        "tricrit.propagation.multiprocessing.get_context", lambda kind: Ctx()
    )
    # One job runs the same task split in this process, without a pool.
    assert enumerate_propagation_paths(["P6"], 8, jobs=1).counts == P6_REFERENCE_COUNTS[:8]
    assert calls == []
    r = enumerate_propagation_paths(["P6"], 8, jobs=8)
    assert r.counts == P6_REFERENCE_COUNTS[:8]
    assert calls == [2]


def test_emit_to_path(tmp_path):
    out = tmp_path / "stream.txt"
    r = enumerate_propagation_paths(["P6"], 4, emit=str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == r.total == 31
    assert lines[0] == "1 1 -"


def test_unwritable_emit_path_fails_before_search(search_calls, tmp_path):
    missing = tmp_path / "missing" / "x.txt"
    with pytest.raises(FileNotFoundError):
        enumerate_propagation_paths(["P6"], 25, emit=str(missing))
    assert search_calls == []
    enumerate_propagation_paths(["P6"], 2, emit=str(tmp_path / "x.txt"))
    assert search_calls


def test_unusable_temp_dir_fails_before_search(search_calls, monkeypatch, tmp_path):
    # The emitted lines wait in temporary files, which are opened before
    # the search and before an emit path is touched.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    out = tmp_path / "x.txt"
    for emit in (io.StringIO(), str(out)):
        with pytest.raises(OSError):
            enumerate_propagation_paths(["P6"], 25, emit=emit)
    assert search_calls == [] and not out.exists()
    assert enumerate_propagation_paths(["P6"], 5).counts == P6_REFERENCE_COUNTS[:5]


def test_no_spill_outlives_the_call(monkeypatch, tmp_path):
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    opened = []
    temporary_file = tempfile.TemporaryFile

    def record(*args, **kwargs):
        opened.append(temporary_file(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", record)
    monkeypatch.setattr("tricrit.propagation.os.cpu_count", lambda: 3)
    out = tmp_path / "stream.txt"

    def check(spills):
        assert len(opened) == spills and all(f.closed for f in opened)
        assert list(spill_dir.iterdir()) == []
        opened.clear()

    for jobs in (1, 3):
        r = enumerate_propagation_paths(["P6"], 9, emit=str(out), jobs=jobs)
        assert r.counts == P6_REFERENCE_COUNTS[:9]
        assert out.read_text().count("\n") == r.total
        check(9)
    enumerate_propagation_paths(["P6"], 9, jobs=3)
    max_propagation_length(["P5"])
    check(0)

    # The driver makes 242 searches, so the search fails inside a task,
    # after lines have been spilled.
    calls = []
    through = PatternSearch.through

    def fail_late(*args):
        calls.append(args)
        if len(calls) > 1000:
            raise RuntimeError("search failed")
        return through(*args)

    monkeypatch.setattr(PatternSearch, "through", fail_late)
    with pytest.raises(RuntimeError, match="search failed"):
        enumerate_propagation_paths(["P6"], 9, emit=str(out))
    assert out.read_text() == ""
    check(9)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_emit_memory_stops_growing_past_the_largest_length(tmp_path):
    # Length 11 is the largest of the P6 stream.  Emitting up to length 13
    # after emitting up to 11 adds lengths 12 and 13, 0.84 MB of text, to
    # the stream, and nothing to its largest length; held in memory as
    # lines they would add more than their size to the peak.  VmHWM, the
    # peak resident size, starts afresh in the new program; ru_maxrss
    # would keep the forking test process's.
    out = tmp_path / "stream.txt"
    script = (
        "import os, sys\n"
        "from tricrit.propagation import enumerate_propagation_paths\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(x.split()[1]) * 1024 for x in f if x.startswith('VmHWM:'))\n"
        "out = sys.argv[1]\n"
        "enumerate_propagation_paths(['P6'], 11, emit=out)\n"
        "size, before = os.path.getsize(out), peak()\n"
        "enumerate_propagation_paths(['P6'], 13, emit=out)\n"
        "print(os.path.getsize(out) - size, peak() - before)\n"
    )
    src = str(Path(propagation.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60, check=True,
    )
    added_bytes, added_peak = map(int, proc.stdout.split())
    assert added_bytes > 800_000
    assert added_peak < added_bytes, (added_peak, added_bytes)


def test_bare_string_is_not_a_pattern_collection(tmp_path):
    out = tmp_path / "x.txt"
    for call, match in (
        (lambda: enumerate_propagation_paths("P6", 5, emit=str(out)), "collection of patterns"),
        (lambda: max_propagation_length("P6"), "collection of patterns"),
        # open() would take an int as a file descriptor and close it after
        # writing; the emit check comes before the patterns are resolved.
        (lambda: enumerate_propagation_paths("P6", 5, emit=True), "text sink or a file path"),
    ):
        with pytest.raises(ValueError, match=match):
            call()
    assert not out.exists()


def test_reference_counts_shape():
    # The package's vector is the published one, as the benchmark restates it.
    assert P6_REFERENCE_COUNTS == P6_COUNTS

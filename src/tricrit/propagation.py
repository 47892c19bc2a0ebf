"""Chorded propagation paths and their exhaustive pruned enumeration.

A configuration is a path v_1..v_k whose vertices carry colors from
{1,2,3} with c(v_1) = 1 and consecutive colors distinct, together with a
set of extra chords.  The color lists implied by the coloring are {1} at
v_1 and {c(v_i), c(v_{i-1})} elsewhere, so coloring v_1 forces the whole
path.  A chord (v_i, v_j) with i < j-1 is admissible when the color of
v_i is absent from the list at v_j, and, for i >= 3, when the chord is
compatible with the forced propagation: c(v_{i-1}) = c(v_j) and the three
colors c(v_i), c(v_j), c(v_{j-1}) are pairwise distinct.  The enumerator
counts labeled configurations whose graphs avoid every forbidden pattern,
growing the path one vertex at a time; both the chord rule and pattern
freeness are preserved under truncation, so depth-first growth visits
exactly the admissible configurations.  Swapping colors 2 and 3 keeps
c(v_1) = 1, the chord rule and the graph, so only the configurations with
c(v_2) = 2 are searched; each one of length at least 2 stands for itself
and its 2<->3 twin.
"""
from __future__ import annotations

import multiprocessing
import os
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain
from typing import Iterable

from .coloring import color_bit
from .graphs import Graph, PatternSearch, bits, check_int

# Reference counts for the enumeration with P6 forbidden, lengths 1..25.
# The CLI checks its own output against this vector.
P6_REFERENCE_COUNTS = (
    1, 2, 6, 22, 86, 350, 1220, 2656, 4208, 5360,
    5864, 5604, 5686, 5004, 4120, 3400, 2454, 1688, 1064, 516,
    202, 72, 18, 2, 0,
)

MAX_ENUM_LENGTH = 64
_HARD_LIMIT = 128
# The driver leaves the subtrees below this length to _worker.
_SPLIT_DEPTH = 6

_OTHERS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


class ResourceLimitError(RuntimeError):
    """The unbounded length search ran past the hard configuration limit."""


@dataclass(frozen=True)
class PropConfig:
    """A colored chorded path; vertices are 1-based in the public interface."""

    colors: tuple[int, ...]
    extra_edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        # Any sequence of colours and any iterable of chords give one value.
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise ValueError("a configuration has at least one vertex")
        if self.colors[0] != 1:
            raise ValueError("the first vertex is always colored 1")
        for c in self.colors:
            color_bit(c)
        for a, b in zip(self.colors, self.colors[1:]):
            if a == b:
                raise ValueError("consecutive path vertices share a color")
        chords = tuple(self.extra_edges)
        for chord in chords:
            if type(chord) is not tuple or len(chord) != 2:
                raise ValueError(f"chord {chord!r} is not a pair (i, j)")
            _check_chord(*chord, self.k)
        object.__setattr__(self, "extra_edges", frozenset(chords))

    @property
    def k(self) -> int:
        return len(self.colors)

    def color(self, i: int) -> int:
        return self.colors[check_int(i, 1, self.k, "vertex index") - 1]

    def graph(self) -> Graph:
        edges = [(i, i + 1) for i in range(self.k - 1)]
        edges.extend((i - 1, j - 1) for i, j in self.extra_edges)
        return Graph(self.k, edges)


def shape(cfg: PropConfig, i: int) -> tuple[int, int]:
    """The pair (c(v_i), c(v_{i-1})); undefined at the path start."""
    check_int(i, 2, cfg.k, "vertex index")
    return (cfg.colors[i - 1], cfg.colors[i - 2])


def satisfies_condition1(cfg: PropConfig) -> bool:
    """Do all chords starting at v_3 or later respect forced propagation?

    A chord (v_i, v_j) with i >= 3 must have c(v_{i-1}) = c(v_j) and the
    colors c(v_i), c(v_j), c(v_{j-1}) pairwise distinct.
    """
    return all(admissible_edge(cfg, i, j) for i, j in cfg.extra_edges if i >= 3)


def admissible_edge(cfg: PropConfig, i: int, j: int) -> bool:
    """May the chord (v_i, v_j) be added to this configuration?

    Requires c(v_i) outside the list at v_j, which makes c(v_i), c(v_j),
    c(v_{j-1}) pairwise distinct; chords with i >= 3 must also have
    c(v_{i-1}) = c(v_j), as in :func:`satisfies_condition1`.
    """
    _check_chord(i, j, cfg.k)
    return i - 1 in _chord_starts(cfg.colors[:j - 1], cfg.colors[j - 1])


def _check_chord(i: int, j: int, k: int) -> None:
    """Raise ValueError unless (v_i, v_j) is a chord of a path on k vertices:
    integers with 1 <= i < j - 1 and j <= k."""
    if type(i) is not int or type(j) is not int or not 1 <= i < j - 1 < k:
        raise ValueError(f"chord ({i!r}, {j!r}) is not a valid non-consecutive pair for k={k}")


def _chord_starts(colors, alpha: int) -> list[int]:
    """0-based starts of the admissible chords to a new vertex of color
    ``alpha`` appended after ``colors``: the rule of :func:`admissible_edge`."""
    last = colors[-1]
    return [
        i0
        for i0 in range(len(colors) - 1)
        if colors[i0] != alpha and colors[i0] != last and (i0 < 2 or colors[i0 - 1] == alpha)
    ]


@dataclass(frozen=True)
class EnumerationResult:
    """Per-length tallies of accepted configurations."""

    counts: tuple[int, ...]

    @property
    def max_length(self) -> int:
        return max((i + 1 for i, c in enumerate(self.counts) if c), default=0)

    def count_at(self, k: int) -> int:
        return self.counts[check_int(k, 1, len(self.counts), "length") - 1]

    @property
    def total(self) -> int:
        return sum(self.counts)


class _Engine:
    """Depth-first enumeration with incremental pattern checks.

    A configuration is its colors and its adjacency bitmask rows; its
    chords are the bits j >= i + 2 of ``rows[i]``.  Configurations of
    length ``stop_depth`` are not extended; below ``max_n`` they are left
    in ``tasks`` for :func:`_worker`.  A new vertex is checked against
    each of ``searches``, one :class:`PatternSearch` per forbidden pattern.

    Every copy found is kept as a witness for as long as its rows are.  A
    search returns the copy's vertex mask W, which holds the new vertex x;
    the witness is the pair ``(m, r)`` with m = W minus x and r = x's row
    within m.  The graph on m is fixed once m's highest vertex j has its
    row, so ``witnesses[j]`` keeps the witness for every later new vertex,
    of either color, anywhere in the subtree where row j stays as it is,
    and is emptied when that row changes.  A candidate whose row for the
    new vertex meets m in exactly r induces the same graph on m plus that
    vertex, the same copy, and is rejected without a search.  Each parent
    and color alpha starts from the witnesses whose r lies inside the rows
    the new vertex can have.  This holds for any pattern and any mix of
    patterns, and drops only candidates that really hold a copy, so the
    counts and the emitted lines are those of a search of every subset.
    Each accept of length k >= 2 also stands for its 2<->3 twin: ``counts``
    include the twins, and ``lines[k - 1]`` holds the final text of both.
    """

    _SWAP_2_3 = str.maketrans("23", "32")

    def __init__(self, searches, max_n, collect, stop_depth):
        self.searches = searches
        self.max_n = max_n
        self.counts = [0] * max_n
        self.collect = collect
        self.lines: list[list[str]] = [[] for _ in range(max_n)]
        self.stop_depth = stop_depth
        self.tasks: list[tuple] = []  # (colors, adjacency rows)
        # witnesses[j]: the witnesses (m, r) whose m has highest vertex j.
        self.witnesses: list[list[tuple[int, int]]] = [[] for _ in range(max_n)]

    def run_root(self):
        if self.max_n and not any(s.through([0], 1, 0) for s in self.searches):
            self.counts[0] += 1
            if self.collect:
                self.lines[0].append("1 1 -\n")
            self._extend([1], [0])

    def _emit(self, colors, rows):
        k = len(colors)
        cs = "".join(map(str, colors))
        es = ",".join(
            [_chord_text(i, row >> i + 2) for i, row in enumerate(rows) if row >> i + 2]
        ) or "-"
        self.lines[k - 1] += (f"{k} {cs} {es}\n", f"{k} {cs.translate(self._SWAP_2_3)} {es}\n")

    def _extend(self, colors, rows):
        k = len(colors)
        if k == self.stop_depth:
            if k < self.max_n:
                self.tasks.append((tuple(colors), tuple(rows)))
            return
        kbit = 1 << k
        counts = self.counts
        searches = self.searches
        witnesses = self.witnesses
        alive = (kbit << 1) - 1
        rows[k - 1] |= kbit
        # c(v_2) = 3 is the 2<->3 twin of c(v_2) = 2, counted with it.
        for alpha in (2,) if k == 1 else _OTHERS[colors[-1]]:
            adm = _chord_starts(colors, alpha)
            colors.append(alpha)
            rows.append(1 << (k - 1))
            n = k + 1
            # The row of x lies inside reach, so only these witnesses can
            # match; see the class docstring.
            reach = 1 << (k - 1)
            for i0 in adm:
                reach |= 1 << i0
            seen = [w for ws in witnesses[:k] for w in ws if not w[1] & ~reach]
            # Chord subsets in Gray-code order: one chord flips per subset,
            # and the last subset still holds one chord, cleared below.
            for sub in range(1 << len(adm)):
                if sub:
                    i0 = adm[(sub & -sub).bit_length() - 1]
                    rows[i0] ^= kbit
                    rows[k] ^= 1 << i0
                new = rows[k]
                for m, r in seen:
                    if new & m == r:
                        break
                else:
                    for search in searches:
                        found = search.through(rows, alive, k)
                        if found:
                            m = found ^ kbit
                            w = (m, new & m)
                            seen.append(w)
                            witnesses[m.bit_length() - 1].append(w)
                            break
                    else:
                        counts[k] += 2
                        if n >= _HARD_LIMIT:
                            raise ResourceLimitError(
                                f"configurations reach length {n}; the search looks unbounded"
                            )
                        if self.collect:
                            self._emit(colors, rows)
                        self._extend(colors, rows)
                        witnesses[k].clear()
            for i0 in adm:
                rows[i0] &= ~kbit
            rows.pop()
            colors.pop()
        rows[k - 1] &= ~kbit


@lru_cache(maxsize=1024)
def _chord_text(i, high):
    """The chords (v_{i+1}, v_j) of row i in the stream's text, 1-based:
    ``high`` is the row shifted right by i + 2, so its bit b is v_{i+b+3}."""
    return ",".join(f"{i + 1}-{i + b + 3}" for b in bits(high))


def _worker(searches, max_n, collect, task):
    """Counts and lines of the whole subtree below one task."""
    colors, rows = task
    eng = _Engine(searches, max_n, collect, max_n)
    eng._extend(list(colors), list(rows))
    return eng.counts, eng.lines


def enumerate_propagation_paths(
    forbidden: Iterable,
    max_n: int,
    emit=None,
    jobs: int = 1,
) -> EnumerationResult:
    """Count pattern-free configurations of every length up to ``max_n``.

    ``forbidden`` is a collection of patterns (graphs or names).  ``emit``,
    if given, is a writable text sink or a file path, not a file
    descriptor; accepted configurations are written one per line as
    ``<length> <colors> <chords>``, sorted, one write per non-empty length.
    Until the search ends the lines wait on disk, in one unnamed temporary
    file per length in :func:`tempfile.gettempdir` (which honours
    ``TMPDIR``), deleted when the call returns or raises; memory holds the
    lines of one search task and, while it is sorted, of one length.
    ``jobs`` farms subtrees out to worker processes; results do not depend
    on it.  The pool never exceeds the machine's core count — the work is
    CPU-bound, so extra processes beyond that only add scheduling overhead.

    All input is taken before the search, in this order: ``max_n``, ``jobs``
    and ``emit`` are checked, every pattern is resolved, the temporary files
    of an ``emit`` are opened, and an ``emit`` path is opened, which creates
    or truncates it.  A bad argument leaves the file untouched, and a path
    or temporary directory that cannot be written fails at once.
    """
    check_int(max_n, 0, MAX_ENUM_LENGTH, "max_n")
    check_int(jobs, 1, what="jobs")
    if isinstance(emit, int):
        raise ValueError(f"emit must be a text sink or a file path, not {emit!r}")
    return _enumerate(forbidden, max_n, emit, min(jobs, os.cpu_count() or 1))


def max_propagation_length(forbidden: Iterable) -> int:
    """Largest length reaching a nonzero count, searched without a bound.

    Runs the depth-first enumeration with no length cap; if configurations
    ever reach length 128 the search is presumed unbounded and a
    :class:`ResourceLimitError` is raised.
    """
    return _enumerate(forbidden, _HARD_LIMIT, None, 1).max_length


def _enumerate(forbidden, max_n, emit, jobs) -> EnumerationResult:
    """The search behind both entry points: one driver down to length
    ``_SPLIT_DEPTH``, then its tasks through :func:`_worker`, in this
    process for one job and on a process pool for more.

    The driver's result and each task's, in the order they arrive, are
    folded in at once: the counts are added and the lines appended to one
    unnamed temporary file per length, so memory holds one task's lines
    and, at the end, one length's, which is sorted and written.
    """
    if isinstance(forbidden, str):
        raise ValueError(f"expected a collection of patterns, got the string {forbidden!r}")
    searches = [PatternSearch(h) for h in forbidden]
    collect = emit is not None
    counts = [0] * max_n
    with ExitStack() as stack:
        # newline="" keeps the text as written.
        spills = [
            stack.enter_context(tempfile.TemporaryFile("w+", newline="")) for _ in range(max_n)
        ] if collect else []
        if collect and not hasattr(emit, "write"):
            emit = stack.enter_context(open(emit, "w"))
        # Forked before any spill is written, so no worker holds a spill's
        # unflushed buffer.
        pool = None
        if jobs > 1:
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(jobs))
        driver = _Engine(searches, max_n, collect, min(_SPLIT_DEPTH, max_n))
        driver.run_root()
        run = partial(_worker, searches, max_n, collect)
        tasks = driver.tasks
        results = pool.imap_unordered(run, tasks, chunksize=8) if pool else map(run, tasks)
        for tcounts, tlines in chain([(driver.counts, driver.lines)], results):
            for i, c in enumerate(tcounts):
                counts[i] += c
            for spill, lines in zip(spills, tlines):
                spill.write("".join(lines))
            del tlines  # before the next task runs in this process
        # Colors of one length are equally wide: the text sorts as (colors, chords).
        for spill, c in zip(spills, counts):
            if c:
                spill.seek(0)
                emit.write("".join(sorted(spill)))
    return EnumerationResult(tuple(counts))

"""What the benchmark judges tricrit's answers against, written apart from it.

Nothing here imports tricrit.  The module restates the paper's P6 count
vector, the chord admissibility rule and the two certificate constructions,
and searches for induced patterns by brute force, so a fault in the
program's search cannot hide inside the check that judges it.

Run it as a script to regenerate the stored pattern counts below with the
independent enumerator (a few seconds on one core):

    python3 bench/reference.py
"""
from __future__ import annotations

import random
from itertools import combinations, permutations

# Accepted configurations of length 1..25 with P6 forbidden, as published.
P6_COUNTS = (
    1, 2, 6, 22, 86, 350, 1220, 2656, 4208, 5360,
    5864, 5604, 5686, 5004, 4120, 3400, 2454, 1688, 1064, 516,
    202, 72, 18, 2, 0,
)

# Per-length counts from `python3 bench/reference.py` (count_configs below).
PATTERN_COUNTS = {
    ("2P3", 8): (1, 2, 6, 22, 86, 382, 1868, 7570),
    ("claw", 9): (1, 2, 6, 22, 74, 242, 686, 1994, 5920),
}

# Pattern graphs as (vertex count, edges).
PATTERNS = {
    "P6": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))),
    "2P3": (6, ((0, 1), (1, 2), (3, 4), (4, 5))),
    "claw": (4, ((0, 1), (0, 2), (0, 3))),
}


def chord_ok(colors, i: int, j: int) -> bool:
    """May chord (v_i, v_j), 1-based with i < j - 1, join this coloured path?

    The colour of v_i must be outside L(v_j) = {c(v_j), c(v_{j-1})}; from
    v_3 on, also c(v_{i-1}) = c(v_j) and c(v_i), c(v_j), c(v_{j-1}) distinct.
    """
    ci, cj, cj1 = colors[i - 1], colors[j - 1], colors[j - 2]
    if ci == cj or ci == cj1:
        return False
    if i >= 3 and (colors[i - 2] != cj or len({ci, cj, cj1}) != 3):
        return False
    return True


def labelled_copies(name: str) -> frozenset[int]:
    """Every labelling of the pattern on 0..h-1, as a bitmask over vertex pairs."""
    h, edges = PATTERNS[name]
    index = {pair: t for t, pair in enumerate(combinations(range(h), 2))}
    out = set()
    for perm in permutations(range(h)):
        m = 0
        for a, b in edges:
            x, y = sorted((perm[a], perm[b]))
            m |= 1 << index[x, y]
        out.add(m)
    return frozenset(out)


class PatternTest:
    """Induced containment of one pattern, by trying every vertex subset."""

    def __init__(self, name: str):
        self.h = PATTERNS[name][0]
        self.pairs = list(combinations(range(self.h), 2))
        self.copies = labelled_copies(name)

    def through(self, adj: list[set], v: int) -> bool:
        """Is there an induced copy on a vertex subset that contains ``v``?"""
        others = [u for u in range(len(adj)) if u != v]
        for rest in combinations(others, self.h - 1):
            sub = sorted(rest + (v,))
            m = 0
            for t, (a, b) in enumerate(self.pairs):
                if sub[b] in adj[sub[a]]:
                    m |= 1 << t
            if m in self.copies:
                return True
        return False


def count_configs(name: str, max_n: int) -> tuple[int, ...]:
    """Per-length counts of admissible configurations avoiding the pattern.

    Grows the path one vertex at a time; a new vertex may take any colour
    other than its predecessor's and any set of admissible chords back, and
    the configuration counts when no induced copy of the pattern runs
    through the new vertex.  Pattern-freeness and the chord rule both
    survive dropping the last vertex, so the growth misses nothing.
    """
    test = PatternTest(name)
    counts = [0] * max_n

    def grow(colors, adj):
        k = len(colors)
        counts[k - 1] += 1
        if k == max_n:
            return
        for alpha in (1, 2, 3):
            if alpha == colors[-1]:
                continue
            cs = colors + [alpha]
            j = k + 1
            back = [i for i in range(1, j - 1) if chord_ok(cs, i, j)]
            for size in range(len(back) + 1):
                for chosen in combinations(back, size):
                    nbrs = {k - 1} | {i - 1 for i in chosen}
                    adj2 = [s | ({k} if u in nbrs else set()) for u, s in enumerate(adj)]
                    adj2.append(nbrs)
                    if not test.through(adj2, k):
                        grow(cs, adj2)

    grow([1], [set()])
    return tuple(counts)


def has_induced_path(adj: list[set], t: int) -> bool:
    """Exhaustive search for an induced path on ``t`` vertices."""

    def extend(path: list[int]) -> bool:
        if len(path) == t:
            return True
        last = path[-1]
        for w in adj[last]:
            if w in path or any(w in adj[u] for u in path[:-1]):
                continue
            path.append(w)
            if extend(path):
                return True
            path.pop()
        return False

    return any(extend([v]) for v in range(len(adj)))


# ---------------------------------------------------------------------------
# the emitted P6 stream


def parse_line(line: str):
    """``<length> <colors> <chords>`` -> (k, colors string, chords string, chords)."""
    k_text, cs, es = line.split(" ")
    chords = [] if es == "-" else [tuple(map(int, c.split("-"))) for c in es.split(",")]
    return int(k_text), cs, es, chords


def check_emitted(text: str, counts, seed: int, sample: int = 400) -> list[str]:
    """Problems found in an emitted stream; an empty list means it is sound.

    Per-length line counts must equal ``counts``; lines are sorted by
    (length, colors, chords) and unique; every line is a valid coloured path
    whose chords pass :func:`chord_ok`; dropping the last vertex of a line
    gives another line; and a seeded sample of lines is P6-free.
    """
    problems = []
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append("stream does not end with a newline")
    lines = lines[:-1]
    seen = set()
    per_len = [0] * len(counts)
    prev = None
    parsed = []
    for line in lines:
        try:
            k, cs, es, chords = parse_line(line)
        except ValueError:
            problems.append(f"malformed line {line!r}")
            continue
        key = (k, cs, es)
        if prev is not None and key <= prev:
            problems.append(f"line {line!r} is out of order or repeated")
        prev = key
        colors = [int(ch) for ch in cs]
        bad = (
            len(colors) != k or not 1 <= k <= len(counts) or colors[0] != 1
            or any(c not in (1, 2, 3) for c in colors)
            or any(a == b for a, b in zip(colors, colors[1:]))
            or any(not (1 <= i < j - 1 and j <= k) or not chord_ok(colors, i, j) for i, j in chords)
            or chords != sorted(set(chords))
        )
        if bad:
            problems.append(f"line {line!r} is not an admissible configuration")
            continue
        per_len[k - 1] += 1
        seen.add((cs, frozenset(chords)))
        parsed.append((k, cs, chords))
    if tuple(per_len) != tuple(counts):
        problems.append(f"per-length counts {per_len} differ from {list(counts)}")
    for k, cs, chords in parsed:
        if k > 1 and (cs[:-1], frozenset(c for c in chords if c[1] < k)) not in seen:
            problems.append(f"truncation of {k} {cs} {chords} is missing")
            break
    rng = random.Random(seed)
    for k, cs, chords in rng.sample(parsed, min(sample, len(parsed))):
        adj = [set() for _ in range(k)]
        for a, b in [(i, i + 1) for i in range(1, k)] + chords:
            adj[a - 1].add(b - 1)
            adj[b - 1].add(a - 1)
        if has_induced_path(adj, 6):
            problems.append(f"configuration {k} {cs} {chords} contains an induced P6")
    return problems


# ---------------------------------------------------------------------------
# the certificate families and padded obstructions


def circulant_gr(r: int) -> tuple[int, list[tuple[int, int]]]:
    """G_r: 3r+1 vertices, i joined to i +- 1 and i +- (3j+2) for 0 <= j < r."""
    n = 3 * r + 1
    offsets = {1} | {3 * j + 2 for j in range(r)}
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in offsets}
    return n, sorted(edges)


def chorded_path_hr(r: int) -> tuple[int, list[tuple[int, int]], list[tuple[int, ...]]]:
    """H_r: a path on 3r-1 vertices with chords and lists that force a clash.

    With positions 1-based, chords join i to j when i <= j-2, i = 2 mod 3 and
    j = 1 mod 3.  The ends get list {1}; an interior position p gets {2,3},
    {1,3} or {1,2} as p mod 3 is 0, 1 or 2.
    """
    n = 3 * r - 1
    edges = [(p, p + 1) for p in range(n - 1)]
    edges += [(i - 1, j - 1) for i in range(2, n + 1, 3) for j in range(i + 2, n + 1) if j % 3 == 1]
    by_residue = {0: (2, 3), 1: (1, 3), 2: (1, 2)}
    lists = [(1,) if p in (1, n) else by_residue[p % 3] for p in range(1, n + 1)]
    return n, edges, lists


class PaddedObstruction:
    """A certificate core plus padding, relabelled; its answer follows from how it is built.

    Each padding vertex has all three colours and at most two neighbours
    built before it.  Deleting a core vertex leaves the core colourable, and
    the padding then colours greedily in build order, so exactly the core
    vertices are critical and the minimal obstruction inside is the core.
    """

    def __init__(self, family: str, r: int, padding: int, rng: random.Random):
        if family == "Gr":
            m, edges = circulant_gr(r)
            lists = [(1, 2, 3)] * m
        else:
            m, edges, lists = chorded_path_hr(r)
        edges = list(edges)
        lists = list(lists)
        for x in range(m, m + padding):
            a, b = rng.sample(range(x), 2)
            edges += [(a, x), (b, x)]
            lists.append((1, 2, 3))
        n = m + padding
        label = list(range(n))
        rng.shuffle(label)
        self.name = f"{family}({r})+{padding}"
        self.n = n
        self.edges = [(label[a], label[b]) for a, b in edges]
        self.lists = [None] * n
        for x in range(n):
            self.lists[label[x]] = lists[x]
        self.core = tuple(sorted(label[x] for x in range(m)))
        self.padding = tuple(sorted(label[x] for x in range(m, n)))

    def core_rows(self) -> tuple[int, ...]:
        """Adjacency rows of the core, relabelled 0.. in ascending label order."""
        pos = {v: i for i, v in enumerate(self.core)}
        rows = [0] * len(self.core)
        for a, b in self.edges:
            if a in pos and b in pos:
                rows[pos[a]] |= 1 << pos[b]
                rows[pos[b]] |= 1 << pos[a]
        return tuple(rows)

    def check(self, colorable, witness, minimal, non_critical, extracted_vertices,
              extracted_rows, extracted_lists) -> list[str]:
        """Problems with one reported analysis of this instance."""
        problems = []
        if colorable or witness is not None:
            problems.append("reported colourable")
        if minimal:
            problems.append("reported minimal although it carries padding")
        if tuple(non_critical) != self.padding:
            problems.append(f"non-critical {tuple(non_critical)} is not the padding {self.padding}")
        if tuple(extracted_vertices) != self.core:
            problems.append(f"extracted {tuple(extracted_vertices)} is not the core {self.core}")
        elif tuple(extracted_rows) != self.core_rows():
            problems.append("extracted graph is not the core's induced graph")
        elif [tuple(c) for c in extracted_lists] != [tuple(self.lists[v]) for v in self.core]:
            problems.append("extracted lists are not the core's lists")
        return [f"{self.name}: {p}" for p in problems]


def padded_obstructions(seed: int, cores, paddings) -> list[PaddedObstruction]:
    """One instance per (core, padding) pair; the seed picks joins and labels."""
    rng = random.Random(seed)
    return [PaddedObstruction(family, r, p, rng) for family, r in cores for p in paddings]


if __name__ == "__main__":
    for (name, max_n) in PATTERN_COUNTS:
        print(f'("{name}", {max_n}): {count_configs(name, max_n)},', flush=True)

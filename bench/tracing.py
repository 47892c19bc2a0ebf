"""Per-layer counts and times for a traced benchmark round.

tricrit's modules import the functions they call by name, so each wrapper
is installed on the caller's namespace (``tricrit.propagation``,
``tricrit.families``, ``tricrit.obstructions``) and removed again after the
round.  The pattern checkers and the solver run about a million times per
round, so they are only counted and timed at the wrapper; the coarse calls
(enumerate, verify, report, critical_vertices, extract_minimal, ...) also
get a span with a parent, kept in memory and written out with the metrics.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

clock = time.perf_counter

# (module, attribute, kind) for every function a layer calls through another
# module's namespace.
TARGETS = (
    ("propagation", "has_induced_path_through", "walker"),
    ("propagation", "contains_induced_through", "anchored"),
    ("families", "find_induced_embedding", "embedding"),
    ("families", "induced_subgraph", "induced"),
    ("obstructions", "induced_subgraph", "induced"),
    ("families", "l_colorable", "solver"),
    ("obstructions", "l_colorable", "solver"),
    ("families", "precolor_and_update", "update"),
    ("families", "update_along_path", "update"),
    ("families", "is_4_vertex_critical", "span"),
    ("families", "is_minimal_obstruction", "span"),
    ("obstructions", "critical_vertices", "span"),
    ("obstructions", "extract_minimal", "span"),
)


class Tracer:
    """Counters, timers and spans for one traced round."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.open = defaultdict(int)
        self.installed: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; the span keeps the counter deltas it saw."""
        sid = len(self.spans)
        rec = {"id": sid, "parent": self.stack[-1] if self.stack else None, "name": name}
        self.spans.append(rec)
        self.stack.append(sid)
        self.open[name] += 1
        before = dict(self.stats)
        rec["start"] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = clock()
            self.open[name] -= 1
            self.stack.pop()
            self.stats[name + ".s"] += rec["end"] - rec["start"]
            rec["counts"] = {
                k: v - before.get(k, 0) for k, v in self.stats.items() if v != before.get(k, 0)
            }

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, kind: str, name: str, fn):
        s = self.stats
        if kind == "walker":
            def wrapper(rows, anchor, t):
                t0 = clock()
                r = fn(rows, anchor, t)
                dt = clock() - t0
                if r:
                    s["walker.hits"] += 1
                    s["walker.hit_s"] += dt
                else:
                    s["walker.misses"] += 1
                    s["walker.miss_s"] += dt
                return r
        elif kind == "solver":
            open_ = self.open

            def wrapper(g, l):
                t0 = clock()
                r = fn(g, l)
                s["solver.s"] += clock() - t0
                s["solver.calls"] += 1
                if r is None:
                    s["solver.unsat"] += 1
                if open_["extract_minimal"]:
                    s["solver.extract_calls"] += 1
                return r
        elif kind in ("anchored", "induced", "update"):
            def wrapper(*args, **kwargs):
                t0 = clock()
                r = fn(*args, **kwargs)
                s[kind + ".s"] += clock() - t0
                s[kind + ".calls"] += 1
                if kind == "anchored" and r:
                    s["anchored.hits"] += 1
                return r
        elif kind == "embedding":
            def wrapper(*args, **kwargs):
                s["embedding.calls"] += 1
                return self.span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def install(self, tricrit):
        """Wrap every target function on its caller's namespace."""
        for modname, attr, kind in TARGETS:
            mod = getattr(tricrit, modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            self.installed.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(kind, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self.installed):
            setattr(mod, attr, fn)
        self.installed.clear()


def layer_metrics(stats, accepts: int) -> dict[str, float]:
    """The per-layer metrics of one traced round, from its tracer's stats."""
    g = stats.get
    hits, misses = g("walker.hits", 0), g("walker.misses", 0)
    walker_s = g("walker.hit_s", 0) + g("walker.miss_s", 0)
    anchored_calls = g("anchored.calls", 0)
    solver_calls = g("solver.calls", 0)
    checks = hits + misses + anchored_calls
    checker_s = walker_s + g("anchored.s", 0)

    def per_us(total_s, n):
        return total_s / n * 1e6 if n else 0.0

    return {
        "propagation.checks": int(checks),
        "propagation.accepts": accepts,
        "propagation.accept_ratio": accepts / checks if checks else 0.0,
        "propagation.self_s": g("enumerate.s", 0) - checker_s - g("emit.s", 0),
        "propagation.emit_bytes": int(g("emit.bytes", 0)),
        "propagation.emit_write_s": g("emit.s", 0),
        "graphs.path_through.calls": int(hits + misses),
        "graphs.path_through.hits": int(hits),
        "graphs.path_through.misses": int(misses),
        "graphs.path_through.hit_us": per_us(g("walker.hit_s", 0), hits),
        "graphs.path_through.miss_us": per_us(g("walker.miss_s", 0), misses),
        "graphs.path_through.s": walker_s,
        "graphs.contains_through.calls": int(anchored_calls),
        "graphs.contains_through.hits": int(g("anchored.hits", 0)),
        "graphs.contains_through.us": per_us(g("anchored.s", 0), anchored_calls),
        "graphs.contains_through.s": g("anchored.s", 0),
        "graphs.find_embedding.calls": int(g("embedding.calls", 0)),
        "graphs.find_embedding.s": g("find_induced_embedding.s", 0),
        "graphs.induced_subgraph.calls": int(g("induced.calls", 0)),
        "graphs.induced_subgraph.s": g("induced.s", 0),
        "coloring.l_colorable.calls": int(solver_calls),
        "coloring.l_colorable.unsat": int(g("solver.unsat", 0)),
        "coloring.l_colorable.us": per_us(g("solver.s", 0), solver_calls),
        "coloring.l_colorable.s": g("solver.s", 0),
        "coloring.update.calls": int(g("update.calls", 0)),
        "coloring.update.s": g("update.s", 0),
        "obstructions.critical_vertices.s": g("critical_vertices.s", 0),
        "obstructions.extract_minimal.s": g("extract_minimal.s", 0),
        "obstructions.extract_minimal.solves": int(g("solver.extract_calls", 0)),
        "obstructions.is_4_vertex_critical.s": g("is_4_vertex_critical.s", 0),
        "obstructions.is_minimal_obstruction.s": g("is_minimal_obstruction.s", 0),
    }


class TimingSink:
    """A text sink for ``emit`` that counts and times what is written to it."""

    def __init__(self, fh, stats):
        self.fh = fh
        self.stats = stats

    def write(self, text: str) -> int:
        t0 = clock()
        n = self.fh.write(text)
        self.stats["emit.s"] += clock() - t0
        self.stats["emit.bytes"] += len(text.encode())
        return n

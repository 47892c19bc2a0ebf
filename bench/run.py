"""Benchmark of tricrit's exact computations, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout: it imports tricrit from the
checkout's ``src/`` and writes its files under ``bench/out/``.  One process
runs one workload in a closed loop: it repeats whole rounds of the same
operations for about ``--seconds``, checks every
answer against ``reference.py``, and prints a summary followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
rounds alternate untraced and traced, and the metrics are the per-layer
ones from the traced rounds, also written to ``bench/out/trace-*.json``.
See ``bench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
from tracing import TimingSink, Tracer, clock, layer_metrics  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 3
NPROC = os.cpu_count() or 1

# The verifier sweep: the whole-graph searches inside verify_Gr / verify_Hr
# grow steeply with r (verify_Hr(20) takes seconds), so r stops where the
# sweep stays under a second.
GR_RANGE = range(1, 10)
HR_RANGE = range(1, 13)
# 11 cores, each padded twice with every count 1..14, give 308 reports per
# round.  Two draws per pair halve how much the seed's joins and labels move
# the latency percentiles.
OBSTRUCT_CORES = [("Gr", r) for r in range(2, 7)] + [("Hr", r) for r in range(2, 8)]
OBSTRUCT_PADDINGS = list(range(1, 15)) * 2


class Op:
    """One timed call into tricrit and the check of its answer."""

    def __init__(self, kind, label, call, check, forks=False):
        self.kind = kind  # span name in a traced round
        self.label = label
        self.call = call  # call(tracer or None) -> result
        self.check = check  # check(result) -> list of problems
        # Forked pool workers would inherit the wrappers and keep their
        # counters to themselves, so a traced round runs this op unwrapped
        # and measures only its CPU split.
        self.forks = forks


def counts_problems(label, got, want):
    if tuple(got) != tuple(want):
        return [f"{label}: counts {list(got)} differ from {list(want)}"]
    return []


GR_CHECKS = ("4-vertex-critical", "2P2+P1-free", "P7-free", "unique-coloring-after-deleting-v0")
HR_CHECKS = ("minimal-obstruction", "2P3-free", "two-sided-deletion-colorings")


def family_problems(report, family, r, names):
    """Every property the paper proves for the r-th member must be reported as holding."""
    got = [(c.name, c.passed) for c in report.checks]
    if (report.family, report.r) != (family, r) or got != [(n, True) for n in names]:
        return [f"{family}({r}): report {got} does not confirm {list(names)}"]
    return []


class P6:
    """The paper's finite case, P6 forbidden up to length 25, twice per round.

    Once in one process with the stream emitted to a file, once on a pool of
    nproc workers with nothing emitted.  Both give the same counts; a change
    to the pool alone moves only the second operation.
    """

    def __init__(self, tc, seed):
        self.tc = tc
        self.seed = seed
        self.path = OUT / "p6.txt"
        self.digests: list[str] = []
        self.ops = [
            Op("enumerate", "P6 n=25 jobs=1 emit", self.serial, self.check_serial),
            Op("enumerate_pool", f"P6 n=25 jobs={NPROC}",
               lambda tracer: tc.enumerate_propagation_paths(["P6"], 25, jobs=NPROC),
               lambda res: counts_problems("P6 pool", res.counts, ref.P6_COUNTS), forks=True),
        ]

    def serial(self, tracer):
        enum = self.tc.enumerate_propagation_paths
        if tracer is None:
            return enum(["P6"], 25, jobs=1, emit=str(self.path))
        with open(self.path, "w") as fh:
            return enum(["P6"], 25, jobs=1, emit=TimingSink(fh, tracer.stats))

    def check_serial(self, res):
        problems = counts_problems("P6", res.counts, ref.P6_COUNTS)
        self.digests.append(hashlib.sha256(self.path.read_bytes()).hexdigest())
        if self.digests[-1] != self.digests[0]:
            problems.append("P6: the emitted stream differs between rounds")
        return problems

    def warm_up(self):
        self.tc.enumerate_propagation_paths(["P6"], 8, jobs=1, emit=str(OUT / "warm-up.txt"))
        self.tc.enumerate_propagation_paths(["P6"], 9, jobs=NPROC)

    def final_check(self):
        return ref.check_emitted(self.path.read_text(), ref.P6_COUNTS, self.seed)


class PatternObstruct:
    """The generic matcher and the solver: 2P3 and claw enumeration, the
    Gr/Hr verifier sweep, and obstruction_report on padded obstructions.

    The sweep of 21 verifier calls is one operation.  Per call the verifiers'
    latencies span three orders of magnitude, so as separate operations they
    would only add noise to the latency percentiles, which the 308 reports
    of similar size set.
    """

    def __init__(self, tc, seed):
        self.tc = tc
        self.seed = seed
        self.ops = []
        for (name, n), want in ref.PATTERN_COUNTS.items():
            self.ops.append(Op(
                "enumerate", f"{name} n={n}",
                lambda tracer, name=name, n=n: tc.enumerate_propagation_paths([name], n),
                lambda res, name=name, want=want: counts_problems(name, res.counts, want),
            ))
        self.ops.append(Op(
            "verify_sweep", f"Gr({GR_RANGE[0]}..{GR_RANGE[-1]}), Hr({HR_RANGE[0]}..{HR_RANGE[-1]})",
            self.sweep, self.sweep_problems,
        ))
        self.instances = ref.padded_obstructions(seed, OBSTRUCT_CORES, OBSTRUCT_PADDINGS)
        self.ops += [self._report_op(inst) for inst in self.instances]

    def sweep(self, tracer):
        calls = [("Gr", r, self.tc.verify_Gr) for r in GR_RANGE]
        calls += [("Hr", r, self.tc.verify_Hr) for r in HR_RANGE]
        if tracer is None:
            return [(family, r, verify(r)) for family, r, verify in calls]
        return [(family, r, tracer.span("verify_" + family, verify, r)) for family, r, verify in calls]

    @staticmethod
    def sweep_problems(reports):
        names = {"Gr": GR_CHECKS, "Hr": HR_CHECKS}
        return [p for family, r, rep in reports for p in family_problems(rep, family, r, names[family])]

    def _report_op(self, inst):
        g = self.tc.Graph(inst.n, inst.edges)
        lists = self.tc.ListSystem.from_sets(inst.lists)

        def check(rep):
            verts, eg, el = rep.extracted if rep.extracted else ((), None, None)
            return inst.check(
                rep.colorable, rep.witness, rep.minimal, rep.non_critical, verts,
                eg.rows if eg else (), el.to_sets() if el else [],
            )

        return Op("obstruction_report", inst.name,
                  lambda tracer: self.tc.obstruction_report(g, lists), check)

    def warm_up(self):
        self.tc.enumerate_propagation_paths(["2P3"], 6)
        self.tc.enumerate_propagation_paths(["claw"], 6)
        self.tc.verify_Gr(2)
        self.tc.verify_Hr(2)
        small = min(self.instances, key=lambda inst: inst.n)
        self.tc.obstruction_report(self.tc.Graph(small.n, small.edges),
                                   self.tc.ListSystem.from_sets(small.lists))

    def final_check(self):
        return []


WORKLOADS = {"p6": P6, "pattern_obstruct": PatternObstruct}


def import_tricrit():
    """A fresh import of tricrit from the checkout's sources."""
    if not (SRC / "tricrit" / "__init__.py").is_file():
        raise ImportError(f"no tricrit sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tricrit" or m.startswith("tricrit.")]:
        del sys.modules[name]
    return importlib.import_module("tricrit")


def set_up(name, seed):
    """Import, build the inputs and warm up; returns the workload and its time."""
    t0 = clock()
    tc = import_tricrit()
    work = WORKLOADS[name](tc, seed)
    work.warm_up()
    return work, clock() - t0


def cpu_times():
    """CPU seconds of this process and of its reaped workers."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), kids.ru_utime + kids.ru_stime


def run_rounds(work, seconds, trace):
    """Whole rounds for about ``seconds``; traced rounds alternate with untraced ones.

    Another round starts while its expected end, judged by the last round,
    lies less than half a round past the deadline, so runs of long rounds
    measure about ``seconds`` on average instead of always stopping short.
    At least three rounds run, so that a median never rests on two.
    """
    rounds = []
    problems: list[str] = []
    attempted = failed = 0
    start = clock()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or clock() - start + last / 2 <= seconds:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        rnd = {"traced": tracer is not None, "wall": 0.0, "cpu": 0.0, "latencies": [],
               "accepts": 0, "pool": [0.0, 0.0, 0.0], "tracer": tracer}
        gc.collect()
        r0 = clock()
        for op in work.ops:
            attempted += 1
            if tracer is not None and not op.forks:
                tracer.install(work.tc)
            c0 = cpu_times()
            p0 = clock()
            try:
                if tracer is None:
                    res = op.call(None)
                else:
                    sid = len(tracer.spans)
                    res = tracer.span(op.kind, op.call, tracer)
                    tracer.spans[sid]["label"] = op.label
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.uninstall()
            p1 = clock()
            c1 = cpu_times()
            rnd["latencies"].append(p1 - p0)
            rnd["wall"] += p1 - p0
            rnd["cpu"] += c1[0] - c0[0] + c1[1] - c0[1]
            if op.forks:
                for i, x in enumerate((c1[0] - c0[0], c1[1] - c0[1], p1 - p0)):
                    rnd["pool"][i] += x
            elif op.kind == "enumerate":
                rnd["accepts"] += res.total
            problems += op.check(res)
        last = clock() - r0
        rounds.append(rnd)
    return rounds, problems, attempted, failed


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def end_to_end(rounds, setup_times, rss_mb):
    lat = [x for r in rounds for x in r["latencies"]]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (p90, "s"),
    }


def per_layer(work, rounds, path):
    """Median per-layer metrics of the traced rounds; writes them with the spans."""
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for r in traced:
        m = layer_metrics(r["tracer"].stats, r["accepts"])
        driver_cpu, workers_cpu, pool_wall = r["pool"]
        m["pool.driver_cpu_s"] = driver_cpu
        m["pool.workers_cpu_s"] = workers_cpu
        m["pool.busy_ratio"] = workers_cpu / (NPROC * pool_wall) if pool_wall else 0.0
        per_round.append(m)
    counts_repeat = True
    metrics = {}
    for key, first in per_round[0].items():
        values = [m[key] for m in per_round]
        if isinstance(first, int):
            counts_repeat &= len(set(values)) == 1
            metrics[key] = first
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in rounds if not r["traced"])
    )
    tracer = traced[0]["tracer"]
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in tracer.spans]
    path.write_text(json.dumps({
        "workload": type(work).__name__, "seed": work.seed, "nproc": NPROC,
        "rounds": [{"traced": r["traced"], "wall_s": r["wall"]} for r in rounds],
        "counts_repeat": counts_repeat, "unwrapped": sorted(tracer.missing),
        "metrics": metrics, "spans": spans,
    }, indent=1))
    return metrics, counts_repeat, spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_tricrit()
    except ImportError as exc:
        print(f"bench: cannot import tricrit: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        work, dt = set_up(args.workload, args.seed)
        setup_times.append(dt)
    rounds, problems, attempted, failed = run_rounds(work, args.seconds, args.trace)
    rss_mb = peak_rss_mb()
    if attempted == failed:
        print(f"bench: every one of {attempted} operations raised", file=sys.stderr)
        return 1
    problems += work.final_check()

    n_ops = sum(len(r["latencies"]) for r in rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(work.ops)} "
          f"operations, {n_ops} latency samples, nproc {NPROC}")
    print("  round walls (s): " + " ".join(f"{r['wall']:.3f}" for r in rounds))
    for p in problems[:20]:
        print(f"WRONG: {p}")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, counts_repeat, spans = per_layer(work, rounds, path)
        for s in spans:
            counts = {k: v for k, v in s["counts"].items() if not k.endswith(("_s", ".s"))}
            if s["name"] == "enumerate" and counts:
                print(f"  {s['label']}: " + ", ".join(f"{k} {v:.0f}" for k, v in sorted(counts.items())))
        print(f"trace written to {path.relative_to(HERE.parent)}; counts repeat: {counts_repeat}")
        units = json.loads(BENCHMARK.read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in units}
        values = {k: (v, units[k]) for k, v in metrics.items()}
    else:
        values = end_to_end(rounds, setup_times, rss_mb)
    for k, (v, unit) in values.items():
        print(f"  {k:40s} {v if isinstance(v, int) else format(v, '.6g')} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

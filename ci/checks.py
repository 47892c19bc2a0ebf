"""The CI checks that are not pytest tests.  Run one from anywhere:

    python3 ci/checks.py mutants      # each mutant of src/ fails its test file
    python3 ci/checks.py pool-stream  # CLI streams from pool workers match pinned digests
    python3 ci/checks.py bench-smoke  # one-second benchmark runs answer correctly

Each check prints a PASS or FAIL line; the exit code is 1 if any failed."""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module under src/tricrit, text that occurs exactly once in it, its
# replacement, the test file that must fail).
MUTANTS = [
    ("propagation.py", "(i0 < 2 or", "(i0 < 3 or", "test_acceptance.py"),
    ("coloring.py", "if p1 | p2 | p3 != live:", "if False:", "test_coloring.py"),
    ("graphs.py", "0 <= u < n and", "0 <= u <= n and", "test_graphs.py"),
    ("graphs.py", "cand &= ~prows[j]", "pass", "test_graphs.py"),
    ("graphs.py", "(used | acc | rows[anchor])", "(used | acc)", "test_graphs.py"),
    ("obstructions.py", " and not _peel(g, l) and _critical(g, l, 0) == (1 << g.n) - 1", "",
     "test_obstructions.py"),
]


def mutant_problems() -> list[str]:
    """Why MUTANTS entries cannot be applied; empty when all can."""
    return [f"{old!r} is not in src/tricrit/{module} exactly once, or tests/{test} is missing"
            for module, old, _, test in MUTANTS
            if (ROOT / "src/tricrit" / module).read_text().count(old) != 1
            or not (ROOT / "tests" / test).is_file()]


def mutants():
    if problems := mutant_problems():
        yield from ((False, problem) for problem in problems)
        return
    for module, old, new, test in MUTANTS:
        path = ROOT / "src/tricrit" / module
        original = path.read_text()
        try:
            path.write_text(original.replace(old, new))
            rc = subprocess.run([sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p",
                                 "no:cacheprovider", f"tests/{test}"], cwd=ROOT,
                                stdout=subprocess.DEVNULL).returncode
        finally:
            path.write_text(original)
        # Only exit 1, tests failed, kills a mutant, not a usage or collection
        # error; -B keeps the mutant's bytecode out of __pycache__.
        yield rc == 1, f"tests/{test} exits {rc} with {old!r} -> {new!r} in src/tricrit/{module}"


def pool_stream():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    from reference import P6_COUNTS, check_emitted
    from test_acceptance import P6_STREAM_SHA256
    from test_propagation import MATCHER_STREAMS

    streams = {tuple(names): (max_n, digest) for names, max_n, _, digest in MATCHER_STREAMS}
    runs = [("P6", 1, 25, P6_STREAM_SHA256), ("P6", 2, 25, P6_STREAM_SHA256)]
    runs += [(name, 2, *streams[(name,)]) for name in ("2P3", "P4+2P1")]
    with tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as spill:
        env = dict(os.environ, TMPDIR=spill, PYTHONPATH=str(ROOT / "src"))
        for name, jobs, max_n, digest in runs:
            path = Path(out) / f"{name}-{jobs}.txt"
            what = f"{name} n={max_n} --jobs {jobs}"
            rc = subprocess.run([sys.executable, "-m", "tricrit", "enumerate", "--forbidden", name,
                                 "--max-n", str(max_n), "--jobs", str(jobs), "--emit", str(path)],
                                env=env, stdout=subprocess.DEVNULL).returncode
            data = path.read_bytes() if rc == 0 else b""
            left = os.listdir(spill)
            got = hashlib.sha256(data).hexdigest()
            yield rc == 0 and not left and got == digest, (
                f"{what} exits {rc}, leaves {left} in TMPDIR, stream SHA-256 {got[:12]}... "
                f"(want {digest[:12]}...)")
            if name == "P6":
                problems = check_emitted(data.decode(), P6_COUNTS, 1)
                yield not problems, f"{what} passes bench/reference.check_emitted: " + (
                    "; ".join(problems[:20]) or "no problems")


def bench_smoke():
    for workload in ("p6", "pattern_obstruct"):
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                               "--seconds", "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        r = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
        yield proc.returncode == 0 and r.get("correct") is True and r.get("failed") == 0, (
            f"bench/run.py --workload {workload} --seconds 1 exits {proc.returncode}, "
            f"correct {r.get('correct')}, failed {r.get('failed')}")


JOBS = {"mutants": mutants, "pool-stream": pool_stream, "bench-smoke": bench_smoke}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in JOBS:
        print(f"usage: python3 ci/checks.py {{{','.join(JOBS)}}}", file=sys.stderr)
        return 2
    failed = False
    for ok, line in JOBS[argv[0]]():
        print("PASS" if ok else "FAIL", line, flush=True)
        failed |= not ok
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

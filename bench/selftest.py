"""Shows that the benchmark's checks pass right answers and fail wrong ones.

    python3 bench/selftest.py

Re-derives the stored pattern counts and a prefix of the P6 vector with the
independent enumerator, then feeds each check a correct answer and several
corrupted ones.  Exits non-zero on the first check that lets a wrong answer
through.  Takes a few seconds.
"""
from __future__ import annotations

import io
import sys
from types import SimpleNamespace

import run
import reference as ref


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    tc = run.import_tricrit()

    # the independent enumerator against the published vector and the stored counts
    expect(ref.count_configs("P6", 8) == ref.P6_COUNTS[:8], "oracle reproduces the P6 vector to n=8")
    for (name, n), want in ref.PATTERN_COUNTS.items():
        expect(ref.count_configs(name, n) == want, f"oracle reproduces the stored {name} n={n} counts")

    # the emitted stream
    n = 9
    counts = ref.P6_COUNTS[:n]
    buf = io.StringIO()
    tc.enumerate_propagation_paths(["P6"], n, emit=buf)
    good = buf.getvalue().splitlines(keepends=True)

    def problems(lines, cnt=counts):
        return ref.check_emitted("".join(lines), cnt, seed=1, sample=len(lines))

    expect(problems(good) == [], "a correct stream passes")
    dropped = good[:10] + good[11:]
    expect(any("truncation" in p for p in problems(dropped)), "a missing line breaks truncation closure")
    expect(any("counts" in p for p in problems(dropped)), "a missing line breaks the per-length counts")
    swapped = good[:]
    swapped[20], swapped[21] = swapped[21], swapped[20]
    expect(any("order" in p for p in problems(swapped)), "two lines out of order are caught")
    expect(any("repeated" in p for p in problems(good[:30] + good[29:])), "a repeated line is caught")
    bad_chord = [ln.replace(" -\n", " 1-3\n") if ln.startswith("4 1212 ") else ln for ln in good]
    expect(any("admissible" in p for p in problems(bad_chord)), "an inadmissible chord is caught")
    # A bare six-vertex path in place of another length-6 line keeps every count.
    six = [i for i, ln in enumerate(good) if ln.startswith("6 ")]
    with_p6 = good[:]
    del with_p6[six[-1]]
    with_p6.insert(six[0], "6 121212 -\n")
    with_p6 = sorted(with_p6, key=lambda ln: ref.parse_line(ln.strip())[:3])
    expect(any("induced P6" in p for p in problems(with_p6)), "a configuration containing P6 is caught")

    # enumeration counts
    expect(run.counts_problems("2P3", (1, 2, 6), (1, 2, 6)) == [], "matching counts pass")
    expect(run.counts_problems("2P3", (1, 2, 7), (1, 2, 6)) != [], "wrong counts are caught")

    # family reports
    for family, r, names in (("Gr", 5, run.GR_CHECKS), ("Hr", 5, run.HR_CHECKS)):
        report = (tc.verify_Gr if family == "Gr" else tc.verify_Hr)(r)
        expect(run.family_problems(report, family, r, names) == [], f"a true {family}({r}) report passes")
        checks = [SimpleNamespace(name=c.name, passed=c.passed) for c in report.checks]
        checks[1].passed = False
        fake = SimpleNamespace(family=family, r=r, checks=checks)
        expect(run.family_problems(fake, family, r, names) != [], f"a failed {family} property is caught")

    # padded obstructions
    for inst in ref.padded_obstructions(7, [("Gr", 3), ("Hr", 4)], [3]):
        rep = tc.obstruction_report(tc.Graph(inst.n, inst.edges), tc.ListSystem.from_sets(inst.lists))
        verts, eg, el = rep.extracted
        args = dict(colorable=rep.colorable, witness=rep.witness, minimal=rep.minimal,
                    non_critical=rep.non_critical, extracted_vertices=verts,
                    extracted_rows=eg.rows, extracted_lists=el.to_sets())
        expect(inst.check(**args) == [], f"the true report on {inst.name} passes")
        wrong = {
            "colourable": dict(colorable=True),
            "minimal": dict(minimal=True),
            "a critical vertex reported non-critical": dict(non_critical=sorted(rep.non_critical + inst.core[:1])),
            "a padding vertex kept in the core": dict(extracted_vertices=sorted(verts + inst.padding[:1])),
            "a wrong core graph": dict(extracted_rows=(0,) * len(verts)),
            "wrong core lists": dict(extracted_lists=[(1,)] * len(verts)),
        }
        for what, change in wrong.items():
            expect(inst.check(**dict(args, **change)) != [], f"{inst.name}: {what} is caught")


if __name__ == "__main__":
    main()

import subprocess

import pytest

import checks


def test_every_mutant_applies():
    # A src/ edit that moves a mutant's text fails here, not only in CI.
    assert len(checks.MUTANTS) == 8 and checks.mutant_problems() == []


GOOD = '{"correct": true, "failed": 0}\n'


@pytest.mark.parametrize("returncode", [0, 1])
@pytest.mark.parametrize("stdout", ["not json\n", "", "\n", "3\n", GOOD],
                         ids=["not-json", "empty", "blank-line", "number", "good"])
def test_bench_smoke_fails_unless_a_good_result_exits_0(monkeypatch, stdout, returncode):
    monkeypatch.setattr(subprocess, "run", lambda args, **kw: subprocess.CompletedProcess(
        args, returncode, stdout=stdout))
    results = list(checks.bench_smoke())
    assert len(results) == 2
    assert all(ok == (stdout == GOOD and returncode == 0) for ok, _ in results), results


def test_main_refuses_a_missing_check():
    assert checks.main([]) == 2

import checks


def test_every_mutant_applies():
    # A src/ edit that moves a mutant's text fails here, not only in CI.
    assert len(checks.MUTANTS) == 7 and checks.mutant_problems() == []

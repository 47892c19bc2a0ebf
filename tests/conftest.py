from __future__ import annotations

import hashlib
import io
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "ci"))

from tricrit.graphs import PatternSearch
from tricrit.propagation import enumerate_propagation_paths


@pytest.fixture(scope="session")
def p6_run():
    """The full reference enumeration with its emitted stream, shared by the
    acceptance checks: the result, the wall time and the stream's SHA-256."""
    buf = io.StringIO()
    t0 = time.monotonic()
    result = enumerate_propagation_paths(["P6"], 25, emit=buf)
    elapsed = time.monotonic() - t0
    return result, elapsed, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture
def search_calls(monkeypatch):
    """The list of arguments of every :meth:`PatternSearch.through` call
    made while the test runs."""
    calls = []
    through = PatternSearch.through
    monkeypatch.setattr(
        PatternSearch, "through", lambda *args: calls.append(args) or through(*args)
    )
    return calls

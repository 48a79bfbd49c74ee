"""Shared pytest plumbing.

The acceptance suite registers one line per criterion through the
``acceptance_log`` fixture; this hook echoes them after the run so a plain
``pytest`` invocation always shows the per-criterion verdicts. The
``leggauss_calls`` fixture counts the Gauss-Legendre rules that grids build.
"""

import numpy as np
import pytest

from opmor import funcspace


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log(request):
    def record(number, title, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        line = f"{verdict}  criterion {number:2d} ({title}): {detail}"
        request.config._acceptance_lines.append(line)
        assert ok, line

    return record


@pytest.fixture
def leggauss_calls(monkeypatch):
    """The orders numpy's leggauss is called with, from an empty rule cache
    on; the cache is emptied again afterwards."""
    calls, build = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or build(n))
    funcspace._gauss_rule.cache_clear()
    yield calls
    funcspace._gauss_rule.cache_clear()

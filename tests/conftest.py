"""Shared pytest configuration.

Collects the acceptance-criterion verdicts recorded by test_acceptance.py
and prints one PASS/FAIL line per criterion at the end of the run, so the
summary survives output capture.  The `moment_passes` fixture records the
states whose collective-spin band pass runs.
"""

import pytest

from spinlab import spinspace


@pytest.fixture
def moment_passes(monkeypatch):
    """The list of states passed to `spinspace._spin_moments`, the one place the
    O(N) band pass of <J> and Cov(J) runs, from here to the end of the test."""
    calls = []
    band_pass = spinspace._spin_moments

    def counting(state):
        calls.append(state)
        return band_pass(state)

    monkeypatch.setattr(spinspace, "_spin_moments", counting)
    return calls


ACCEPTANCE_RESULTS: dict[int, str] = {}


def record_acceptance(number: int, verdict: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {number}: {verdict}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_RESULTS[number] = line
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(ACCEPTANCE_RESULTS[number])

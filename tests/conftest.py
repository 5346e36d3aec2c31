"""Shared preset runs, and the acceptance checklist re-emitted after
the run, outside capture."""

import time
from dataclasses import replace

import pytest

from maswatch.harness import platoon_preset, run_monte_carlo

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


# --- one run of each preset variant, shared by the whole session -------------


@pytest.fixture(scope="session")
def clean_data():
    """The clean preset's report and the seconds its run took."""
    s = platoon_preset()
    run_monte_carlo(replace(s, trials=2, horizon=3))  # warm the step kernel
    t0 = time.perf_counter()
    report = run_monte_carlo(s)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def channel_report():
    return run_monte_carlo(platoon_preset("channel"))


@pytest.fixture(scope="session")
def byzantine_report():
    return run_monte_carlo(platoon_preset("byzantine"))


@pytest.fixture(scope="session")
def hybrid_report():
    return run_monte_carlo(platoon_preset("hybrid"))

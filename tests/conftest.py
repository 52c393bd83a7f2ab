"""Shared fixtures: each bundled run config is run once per session by `cli.deployed_run`,
the function behind `ueslab run`, and reused by the module tests and the acceptance suite."""

import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import ueslab as u
from ueslab import cli

# one pass/fail line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def arrays(traj):
    """traj's buffers as numpy arrays, views without a copy: times (m,), states (m, d) as
    np.frombuffer(rows).reshape(-1, width), theta (m, n), eta (m,) when the state carries it, and y (m,) or None."""
    states = np.frombuffer(traj.rows).reshape(-1, traj.width)
    return SimpleNamespace(times=np.frombuffer(traj.times), states=states, theta=states[:, : traj.n],
                           eta=states[:, traj.n] if traj.width > traj.n else None,
                           y=None if traj.y is None else np.frombuffer(traj.y))


def traced_peak(fn):
    """fn's result and the peak of the memory tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def acceptance_report():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def quartic():
    return u.quartic_paper()


@pytest.fixture(scope="session")
def fig3_params():
    return cli.resolve_config("fig3_asymptotic_ues").params


@pytest.fixture(scope="session")
def fig3_timed():
    """Quartic map under the power-law schedule, paper operating point, t in [0, 100],
    with the wall time of its integration in seconds."""
    cfg = cli.resolve_config("fig3_asymptotic_ues")
    start = time.perf_counter()
    traj = cli.deployed_run(cfg)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig3_run(fig3_timed):
    return fig3_timed[0]


@pytest.fixture(scope="session")
def fig2a_run():
    """Constant-gain baseline, small gain / large dither amplitude."""
    return cli.deployed_run(cli.resolve_config("fig2_nominal_a"))


@pytest.fixture(scope="session")
def fig2b_run():
    """Constant-gain baseline, large gain / small dither amplitude."""
    return cli.deployed_run(cli.resolve_config("fig2_nominal_b"))


@pytest.fixture(scope="session")
def exp_map():
    return cli.resolve_config("exponential_ues").map


@pytest.fixture(scope="session")
def exp_params():
    return cli.resolve_config("exponential_ues").params


@pytest.fixture(scope="session")
def exp_run():
    """Strongly convex map under the exponential schedule, t in [0, 60]."""
    return cli.deployed_run(cli.resolve_config("exponential_ues"))

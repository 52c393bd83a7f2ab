"""Shared fixtures: the expensive closed-loop runs are integrated once per
session and reused by the module tests and the acceptance suite."""

import dataclasses
import time

import numpy as np
import pytest

import ueslab as u

# one pass/fail line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_report():
    return ACCEPTANCE_LINES


def run_closed_loop(map_, params, theta0, eta0, horizon, record_every=1):
    """Integrate the deployed loop from t = 0 and record the measured cost."""
    rhs = u.es_closed_loop(params, map_)
    x0 = (*np.atleast_1d(np.asarray(theta0, dtype=float)).tolist(), float(eta0))
    dt = u.dither_step_bound(rhs.dither_omega_max)
    traj = u.integrate(rhs, x0, 0.0, horizon, dt, record_every=record_every, n=map_.dim)
    return dataclasses.replace(traj, y=[map_.eval(theta) for theta in zip(*traj.theta.T.tolist())])


@pytest.fixture(scope="session")
def quartic():
    return u.quartic_paper()


@pytest.fixture(scope="session")
def fig3_params(quartic):
    sched = u.Schedule.asymptotic(beta=0.1, v=1.0 / 3.0, r=4.0)
    return u.assemble(quartic, sched, alpha=1.0, k=0.3, omega=5.0, omega_h=3.0, omega_hat=[1.0])


@pytest.fixture(scope="session")
def fig3_timed(quartic, fig3_params):
    """Quartic map under the power-law schedule, paper operating point, t in [0, 100],
    with the wall time of its integration in seconds."""
    start = time.perf_counter()
    traj = run_closed_loop(quartic, fig3_params, [0.0], 0.0, 100.0)
    return traj, time.perf_counter() - start


@pytest.fixture(scope="session")
def fig3_run(fig3_timed):
    return fig3_timed[0]


@pytest.fixture(scope="session")
def fig2a_run(quartic):
    """Constant-gain baseline, small gain / large dither amplitude."""
    p = u.assemble(quartic, u.Schedule.nominal(), alpha=1.0, k=0.3, omega=5.0, omega_h=3.0, omega_hat=[1.0])
    return run_closed_loop(quartic, p, [0.0], 0.0, 100.0)


@pytest.fixture(scope="session")
def fig2b_run(quartic):
    """Constant-gain baseline, large gain / small dither amplitude."""
    p = u.assemble(quartic, u.Schedule.nominal(), alpha=0.1, k=3.0, omega=5.0, omega_h=3.0, omega_hat=[1.0])
    return run_closed_loop(quartic, p, [0.0], 0.0, 100.0)


@pytest.fixture(scope="session")
def exp_map():
    return u.quadratic(q=1.0, theta_star=1.0)


@pytest.fixture(scope="session")
def exp_params(exp_map):
    sched = u.Schedule.exponential(lam=0.1)
    return u.assemble(exp_map, sched, alpha=1.0, k=1.0, omega=50.0, omega_h=3.0, omega_hat=[1.0])


@pytest.fixture(scope="session")
def exp_run(exp_map, exp_params):
    """Strongly convex map under the exponential schedule, t in [0, 60]."""
    return run_closed_loop(exp_map, exp_params, [0.0], 0.0, 60.0)

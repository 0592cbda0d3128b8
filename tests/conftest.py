import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from isospec import validate_qpair

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 results do not depend on earlier runs.
settings.register_profile("isospec", derandomize=True, database=None, deadline=None)
settings.load_profile("isospec")

ACCEPTANCE = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE


@pytest.fixture
def src_env():
    """Environment of a child interpreter that imports isospec from this checkout's src.

    Its stdout is block-buffered, as a pipe's is by default.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def make_reversible_killed(rng, n, kill_lo=0.1, kill_hi=1.0):
    """Conductance-model chain: mu_i q_ij = w_ij with w symmetric.

    A spanning path keeps every state connected to state 0, so anchored
    minimal solutions stay strictly positive.
    """
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = rng.uniform(0.5, 2.0)
    extra = np.triu(rng.random((n, n)) < 0.3, 2)
    w[extra] = rng.uniform(0.1, 1.0, int(extra.sum()))
    w = w + w.T
    mu = rng.uniform(0.5, 2.0, n)
    rates = w / mu[:, None]
    c = -rng.uniform(kill_lo, kill_hi, n)
    return validate_qpair(rates, None, c), mu


def make_conservative(rng, n):
    """Conservative chain with zero potential on a connected state space."""
    rates = np.zeros((n, n))
    for i in range(n - 1):
        rates[i, i + 1] = rng.uniform(0.5, 2.0)
        rates[i + 1, i] = rng.uniform(0.5, 2.0)
    extra = (rng.random((n, n)) < 0.2) & ~np.eye(n, dtype=bool)
    rates[extra] += rng.uniform(0.1, 1.0, int(extra.sum()))
    np.fill_diagonal(rates, 0.0)
    return validate_qpair(rates)


def exact_harmonic_pair(rng, n):
    """Killed chain together with an h satisfying A h = 0 up to rounding.

    The potential is solved from the harmonic equation, so c can take
    either sign but never exceeds the jump rate.
    """
    qp0 = make_conservative(rng, n)
    h = np.exp(rng.uniform(-1.0, 1.0, n))
    c = qp0.total - (qp0.rates @ h) / h
    return validate_qpair(qp0.rates, qp0.total, c), h

"""Shared fixtures for the test suite.

Expensive artifacts (traces, shard statistics) are session-scoped; most
tests use deliberately tiny inputs so the whole suite stays fast.
"""

import numpy as np
import pytest

from repro.core import ProfileDataset, ProfileRecord
from repro.workloads import application_spec, generate_trace


@pytest.fixture(scope="session")
def astar_trace():
    return generate_trace(application_spec("astar"), 20_000, seed=3, shard_length=2_000)


@pytest.fixture(scope="session")
def bwaves_trace():
    return generate_trace(application_spec("bwaves"), 20_000, seed=3, shard_length=2_000)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def make_synthetic_dataset(
    n_per_app=40,
    apps=("alpha", "beta", "gamma"),
    noise=0.01,
    seed=0,
    nonlinear=False,
    hw_levels=None,
):
    """A controlled regression dataset with known structure.

    z = 2 + 0.5*x1 - 0.3*x2 + 0.8*y1 + 0.4*x1*y1 (+ optional x2^2) + noise,
    with a per-application shift in the x distribution so per-application
    splitting is meaningful.  Hardware values are uniform on [0.5, 2], or
    drawn from ``hw_levels`` — a few discrete levels, like the hardware
    parameters of a design space.
    """
    rng = np.random.default_rng(seed)
    ds = ProfileDataset(("x1", "x2"), ("y1", "y2"))
    for k, app in enumerate(apps):
        for _ in range(n_per_app):
            x = rng.normal(loc=k, scale=1.0, size=2)
            if hw_levels is None:
                y = rng.uniform(0.5, 2.0, size=2)
            else:
                y = rng.choice(hw_levels, size=2)
            z = 2.0 + 0.5 * x[0] - 0.3 * x[1] + 0.8 * y[0] + 0.4 * x[0] * y[0]
            if nonlinear:
                z += 0.6 * x[1] ** 2
            z += rng.normal(0, noise)
            ds.add(ProfileRecord(app, x, y, float(np.exp(z / 4.0))))
    return ds


@pytest.fixture()
def synthetic_dataset():
    return make_synthetic_dataset()

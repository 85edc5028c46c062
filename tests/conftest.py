"""Shared synthetic data generators for the test suite."""

import numpy as np
import pytest

from hypertime import Dataset

DAY = 86400.0
WEEK = 604800.0


def daily_series(n_days=21, step=600.0, noise=0.1, seed=7):
    """Cosine daily rhythm sampled every ``step`` seconds."""
    t = np.arange(0.0, n_days * DAY, step)
    rng = np.random.default_rng(seed)
    a = 0.5 + 0.4 * np.cos(2 * np.pi * t / DAY)
    a = a + rng.normal(0.0, noise, t.size)
    return Dataset(t, np.empty((t.size, 0)), a)


def daily_weekly_series(n_days=28, step=600.0, noise=0.05, seed=11):
    """Mixture of a daily and a weekly cosine."""
    t = np.arange(0.0, n_days * DAY, step)
    rng = np.random.default_rng(seed)
    a = (0.6 + 0.25 * np.cos(2 * np.pi * t / DAY)
         + 0.15 * np.cos(2 * np.pi * t / WEEK))
    a = a + rng.normal(0.0, noise, t.size)
    return Dataset(t, np.empty((t.size, 0)), a)


def pedestrian_events(n_days=14, n_raw=4000, seed=3):
    """Two spatial hot spots with a shared daily visit rhythm."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, n_days * DAY, n_raw))
    rate = 0.5 * (1.0 + np.cos(2 * np.pi * t / DAY)) / 1.6 + 0.05
    t = t[rng.uniform(0.0, 1.0, n_raw) < rate]
    spot = rng.integers(0, 2, t.size)
    x = np.where(spot == 0, rng.normal(2.0, 0.5, t.size),
                 rng.normal(6.0, 0.8, t.size))
    y = np.where(spot == 0, rng.normal(1.0, 0.4, t.size),
                 rng.normal(3.0, 0.6, t.size))
    return Dataset(t, np.column_stack([x, y]), None)


@pytest.fixture(scope="session")
def daily_data():
    return daily_series()


@pytest.fixture(scope="session")
def daily_weekly_data():
    return daily_weekly_series()


@pytest.fixture(scope="session")
def event_data():
    return pedestrian_events()


def pytest_collection_modifyitems(items):
    # Hypothesis explains a falsifying example with libcst, whose import
    # warns that `mypy_extensions.TypedDict` is deprecated.  Under
    # `pytest -W error` that warning would end the run in an INTERNALERROR
    # instead of printing the example.  A mark, unlike an ini
    # `filterwarnings` entry, takes precedence over `-W`.
    mark = pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    for item in items:
        item.add_marker(mark)

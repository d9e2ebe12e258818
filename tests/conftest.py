import threading

import numpy as np
import pytest

from neuspec import RadialCurve


@pytest.fixture(scope="session")
def disc():
    return RadialCurve.circle()


@pytest.fixture(scope="session")
def wobbly():
    """The three-lobe nonsymmetric test domain used throughout."""
    return RadialCurve.radial(1.0, 0.3, 3, 0.2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_leaked_thread():
    """Fail a test that leaves a thread it started alive: a leaked worker
    pool shows here rather than as a run that never ends."""
    before = set(threading.enumerate())
    yield
    extra = [t.name for t in threading.enumerate() if t not in before]
    if extra:
        pytest.fail(f"threads left alive: {extra}")

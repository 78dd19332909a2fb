import numpy as np
import pytest

from rieszcap.verification import random_measure as make_random_measure


def kept_matrices(mu):
    """The (N, N) arrays in mu's support cache, tuple entries unpacked."""
    entries = [a for v in mu._cache.values() for a in (v if isinstance(v, tuple) else (v,))]
    return [a for a in entries if np.shape(a) == (mu.size, mu.size)]


def orbit_ids(mu):
    """Each atom's symmetry-orbit id: the smallest atom index in its orbit."""
    return mu._cache.get("orbits", np.arange(mu.size))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_measure(rng):
    return make_random_measure(rng, 12)

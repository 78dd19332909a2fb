import numpy as np
import pytest

from rieszcap.measures import CantorSpec, cantor_measure
from rieszcap.verification import random_measure as make_random_measure


def kept_matrices(mu):
    """The (N, N) arrays in mu's support cache, tuple entries unpacked."""
    entries = [a for v in mu._cache.values() for a in (v if isinstance(v, tuple) else (v,))]
    return [a for a in entries if np.shape(a) == (mu.size, mu.size)]


def orbit_ids(mu):
    """Each atom's symmetry-orbit id: the smallest atom index in its orbit."""
    return mu._cache.get("orbits", np.arange(mu.size))


def point_row_cases(rng):
    """(mu, rows): measures and the atoms ``rows`` at which a pointwise
    functional must equal its at-atoms value bit for bit.

    Orbit-free random clouds in n = 1, 2 and 3, with unequal and with equal
    weights, at every atom; Cantor supports (ratio 0.5 ties its distances),
    one with unequal orbit-constant weights, at their orbit representatives.
    """
    cases = []
    for n in (1, 2, 3):
        mu = make_random_measure(rng, 15, n)
        every = np.arange(mu.size)
        cases += [(mu, every), (mu.with_weights(np.ones(mu.size)), every)]
    for spec in (CantorSpec(1, 0.25, 4), CantorSpec(2, 0.5, 3), CantorSpec(3, 0.25, 2)):
        mu = cantor_measure(spec)
        cases.append((mu, np.unique(orbit_ids(mu))))
    mu = cantor_measure(CantorSpec(2, 0.25, 3))
    reps, index = np.unique(orbit_ids(mu), return_inverse=True)
    cases.append((mu.with_weights(rng.uniform(0.5, 1.5, len(reps))[index]), reps))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_measure(rng):
    return make_random_measure(rng, 12)

import numpy as np
import pytest

from rieszcap.verification import random_measure as make_random_measure


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_measure(rng):
    return make_random_measure(rng, 12)

import math

import numpy as np
import pytest

from rieszcap.measures import DiscreteMeasure
from rieszcap.oracles import (
    naive_symmetrization_energy,
    naive_symmetrization_potential_sq,
)


class TestNaiveLoops:
    def test_collinear_reference(self):
        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], np.ones(3), delta=0.5)
        got = naive_symmetrization_energy(mu, 0.5, 0.5)
        assert got == pytest.approx(6 * (math.sqrt(2) - 1), rel=1e-13)

    def test_huge_eps_is_zero(self, random_measure):
        assert naive_symmetrization_energy(random_measure, 0.5, 50.0) == 0.0

    def test_potential_skips_close_pairs(self):
        mu = DiscreteMeasure([[0.0], [1.0]], np.ones(2), delta=0.5)
        assert naive_symmetrization_potential_sq(mu, [-1.0], 0.5, 1.5) == 0.0

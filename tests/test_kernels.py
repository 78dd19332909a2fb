import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszcap.errors import DomainError, GeometryError
from rieszcap.kernels import (
    KernelParams,
    curvature_permutation_sum,
    equal_spacing_symmetrization,
    largest_side,
    menger_curvature_sq,
    random_triples,
    riesz_kernel,
    sandwich_bounds,
    symmetrization,
    symmetrization_many,
)

E1 = np.array([1.0, 0.0])


def _rotation_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix from a QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestKernelParams:
    def test_alpha_must_be_in_range(self):
        with pytest.raises(DomainError):
            KernelParams(0.0, 2)
        with pytest.raises(DomainError):
            KernelParams(2.0, 2)
        KernelParams(1.5, 2)  # fine: alpha < n

    def test_fractional_guard(self):
        with pytest.raises(DomainError):
            KernelParams(1.5, 2).require_fractional()
        KernelParams(0.5, 2).require_fractional()


class TestRieszKernel:
    def test_unit_vector_fixed_point(self):
        for alpha in (0.25, 0.5, 0.9):
            out = riesz_kernel(E1, KernelParams(alpha, 2))
            assert np.allclose(out, E1)

    def test_scaled_axis_value(self):
        out = riesz_kernel([2.0, 0.0], KernelParams(0.5, 2))
        assert out == pytest.approx([2.0 / 2.0**1.5, 0.0])
        assert out[0] == pytest.approx(0.70711, abs=5e-6)

    def test_oddness_and_norm(self, rng):
        params = KernelParams(0.6, 3)
        for _ in range(20):
            x = rng.standard_normal(3)
            k = riesz_kernel(x, params)
            assert np.allclose(k, -riesz_kernel(-x, params), rtol=0, atol=0)
            assert np.linalg.norm(k) == pytest.approx(
                np.linalg.norm(x) ** -0.6, rel=1e-12
            )

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            riesz_kernel([0.0, 0.0], KernelParams(0.5, 2))


class TestLargestSide:
    def test_collinear(self):
        assert largest_side([0.0], [1.0], [2.0]) == 2.0

    def test_equilateral(self):
        s = 0.7
        tri = s * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert largest_side(*tri) == pytest.approx(s, rel=1e-12)

    def test_matches_direct_recomputation(self, rng):
        for _ in range(50):
            t = rng.uniform(-2, 2, size=(3, 3))
            want = max(
                np.linalg.norm(t[0] - t[1]),
                np.linalg.norm(t[0] - t[2]),
                np.linalg.norm(t[1] - t[2]),
            )
            assert largest_side(*t) == want

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            largest_side([0.0, 0.0], [0.0, 0.0], [1.0, 0.0])


class TestSymmetrization:
    def test_collinear_equal_spacing(self):
        p = symmetrization([0.0], [1.0], [2.0], KernelParams(0.5, 1))
        assert p == pytest.approx(math.sqrt(2) - 1, rel=1e-14)
        assert p == pytest.approx(equal_spacing_symmetrization(1.0, 0.5), rel=1e-14)

    def test_sandwich_on_random_triples(self, rng):
        alpha = 0.5
        lo, hi = sandwich_bounds(alpha)
        assert lo == pytest.approx(2 - math.sqrt(2))
        assert hi == pytest.approx(2.0**1.5)
        tris = random_triples(rng, 2000, 2)
        p = symmetrization_many(tris, alpha)
        lengths = np.max(
            [
                np.linalg.norm(tris[:, 0] - tris[:, 1], axis=1),
                np.linalg.norm(tris[:, 0] - tris[:, 2], axis=1),
                np.linalg.norm(tris[:, 1] - tris[:, 2], axis=1),
            ],
            axis=0,
        )
        prod = p * lengths ** (2 * alpha)
        assert prod.min() >= lo * (1 - 1e-12)
        assert prod.max() <= hi * (1 + 1e-12)

    def test_sign_change_above_one(self, rng):
        tris = random_triples(rng, 5000, 2)
        p = symmetrization_many(tris, 1.5)
        assert (p < 0).any() and (p > 0).any()

    def test_permutation_symmetry(self, rng):
        import itertools

        params = KernelParams(0.7, 3)
        t = rng.uniform(-1, 1, size=(3, 3))
        vals = [
            symmetrization(t[i], t[j], t[k], params)
            for i, j, k in itertools.permutations(range(3))
        ]
        assert max(vals) - min(vals) <= 1e-12 * abs(vals[0])

    def test_rigid_motion_invariance(self, rng):
        params = KernelParams(0.4, 3)
        t = rng.uniform(-1, 1, size=(3, 3))
        base = symmetrization(*t, params)
        q = _rotation_matrix(rng, 3)
        shift = rng.uniform(-5, 5, size=3)
        moved = t @ q.T + shift
        assert symmetrization(*moved, params) == pytest.approx(base, rel=1e-10)

    def test_scaling_law(self, rng):
        alpha = 0.35
        params = KernelParams(alpha, 2)
        t = rng.uniform(-1, 1, size=(3, 2))
        base = symmetrization(*t, params)
        for lam in (0.1, 3.0, 40.0):
            scaled = symmetrization(*(lam * t), params)
            assert scaled == pytest.approx(base * lam ** (-2 * alpha), rel=1e-10)

    def test_batch_matches_scalar(self, rng):
        tris = random_triples(rng, 64, 2)
        params = KernelParams(0.55, 2)
        batch = symmetrization_many(tris, 0.55)
        singles = [symmetrization(*t, params) for t in tris]
        assert np.allclose(batch, singles, rtol=1e-13)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            symmetrization([0.0], [1.0], [2.0], KernelParams(0.5, 2))

    @settings(max_examples=80, deadline=None)
    @given(
        gap=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_collinear_closed_form_property(self, gap, alpha):
        got = symmetrization([0.0], [gap], [2 * gap], KernelParams(alpha, 1))
        assert got == pytest.approx(equal_spacing_symmetrization(gap, alpha), rel=1e-10)


class TestMengerCurvature:
    def test_collinear_is_zero(self):
        assert menger_curvature_sq([0, 0], [1, 1], [2, 2]) == 0.0

    def test_equilateral(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        assert menger_curvature_sq(*tri) == pytest.approx(3.0, rel=1e-12)

    def test_doubling_identity(self, rng):
        tris = random_triples(rng, 400, 2, min_area_frac=1e-2)
        params = KernelParams(1.0, 2)
        for t in tris:
            c2 = menger_curvature_sq(*t)
            assert c2 == pytest.approx(2 * symmetrization(*t, params), rel=1e-10)

    def test_permutation_sum_identity(self, rng):
        tris = random_triples(rng, 400, 2, min_area_frac=1e-2)
        for t in tris:
            c2 = menger_curvature_sq(*t)
            assert c2 == pytest.approx(curvature_permutation_sum(*t), rel=1e-10)

    def test_circumradius_value(self):
        # right triangle with hypotenuse 5: circumradius 2.5
        c2 = menger_curvature_sq([0, 0], [3, 0], [0, 4])
        assert c2 == pytest.approx((1 / 2.5) ** 2, rel=1e-12)

    def test_planar_only(self):
        with pytest.raises(GeometryError):
            menger_curvature_sq([0, 0, 0], [1, 0, 0], [0, 1, 0])

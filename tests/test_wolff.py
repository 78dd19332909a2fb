import numpy as np
import pytest

from conftest import make_random_measure, point_row_cases
from rieszcap import energies, measures
from rieszcap.energies import (
    TruncationWindow,
    WolffExponents,
    wolff_energy,
    wolff_potential,
    wolff_potentials_at_atoms,
)
from rieszcap.errors import DomainError, ToleranceNotMetError, UnsupportedExponentError
from rieszcap.kernels import KernelParams
from rieszcap.measures import CantorSpec, DiscreteMeasure, cantor_measure
from rieszcap.oracles import QuadratureConfig, quadrature_wolff

MATCHED = WolffExponents.matched(KernelParams(0.5, 2))


class TestExponents:
    def test_matched_family(self):
        for n in (1, 2, 3):
            for alpha in (0.25, 0.5, 0.75):
                exps = WolffExponents.matched(KernelParams(alpha, n))
                assert exps.s == pytest.approx((2.0 / 3.0) * (n - alpha))
                assert exps.p == 1.5
                assert exps.trace == pytest.approx(alpha, rel=1e-14)
                assert exps.dual_exp == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            WolffExponents(s=1.0, p=1.0, n=2)
        with pytest.raises(DomainError):
            WolffExponents(s=3.0, p=2.0, n=2)  # s*p > n
        WolffExponents(s=1.0, p=2.0, n=2)  # s*p = n allowed by the type

    def test_degenerate_trace_rejected_by_integral(self):
        exps = WolffExponents(s=1.0, p=2.0, n=2)  # trace = 0
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(UnsupportedExponentError):
            wolff_potential(mu, [1.0, 0.0], exps, TruncationWindow(0.1))


class TestClosedForm:
    def test_single_atom(self):
        w, d, alpha = 1.5, 3.0, 0.5
        mu = DiscreteMeasure([[d, 0.0]], [w])
        got = wolff_potential(mu, [0.0, 0.0], MATCHED, TruncationWindow(0.1))
        assert got == pytest.approx(w**2 / (2 * alpha * d ** (2 * alpha)), rel=1e-14)

    def test_at_atom_site_finite(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], np.ones(2), delta=0.5)
        got = wolff_potential(mu, [0.0, 0.0], MATCHED, TruncationWindow(0.25))
        # self mass from eps out to the neighbor, then both atoms beyond
        want = (0.25**-1.0 - 1.0) + 4.0
        assert got == pytest.approx(want, rel=1e-13)

    def test_monotone_as_eps_decreases(self, rng):
        mu = make_random_measure(rng, 8)
        x = rng.uniform(-1, 1, size=2)
        vals = [
            wolff_potential(mu, x, MATCHED, TruncationWindow(e))
            for e in np.geomspace(1.0, 0.001, 12)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_outer_cutoff(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [2.0])
        eps, r_out = 0.5, 4.0
        got = wolff_potential(mu, [0.0, 0.0], MATCHED, TruncationWindow(eps, r_out))
        want = 4.0 * (1 / eps - 1 / r_out)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "exps",
        [MATCHED, WolffExponents(s=0.8, p=2.0, n=2), WolffExponents(s=0.5, p=1.8, n=2)],
    )
    def test_against_quadrature(self, rng, exps):
        qcfg = QuadratureConfig(rel_tol=1e-10)
        for _ in range(20):
            mu = make_random_measure(rng, 10)
            x = rng.uniform(-1.4, 1.4, size=2)
            window = TruncationWindow(float(rng.uniform(0.03, 0.4)))
            a = wolff_potential(mu, x, exps, window)
            b = quadrature_wolff(mu, x, exps, window, qcfg)
            assert a == pytest.approx(b, rel=1e-8)

    def test_energy_two_atoms_vs_quadrature(self):
        d = 1.0
        mu = DiscreteMeasure([[0.0, 0.0], [d, 0.0]], np.ones(2), delta=0.5)
        window = TruncationWindow(0.25)
        energy = wolff_energy(mu, MATCHED, window)
        quad = sum(
            w * quadrature_wolff(mu, x, MATCHED, window)
            for w, x in zip(mu.weights, mu.atoms)
        )
        assert energy == pytest.approx(quad, rel=1e-10)

    def test_batch_matches_pointwise(self, rng):
        # A point's row is one row of the at-atoms pass: the same bits.
        for mu, rows in point_row_cases(rng):
            exps = WolffExponents.matched(KernelParams(0.5, mu.n))
            for window in (TruncationWindow(mu.delta), TruncationWindow(4.0 * mu.delta, 0.9)):
                batch = wolff_potentials_at_atoms(mu, exps, window)
                singles = [wolff_potential(mu, mu.atoms[i], exps, window) for i in rows]
                assert np.array_equal(batch[rows], singles)


class TestQuadratureOracle:
    def test_tail_only_case(self):
        mu = DiscreteMeasure([[0.2, 0.0], [0.0, 0.3]], [1.0, 2.0], delta=0.05)
        exps = WolffExponents(s=0.8, p=2.0, n=2)
        window = TruncationWindow(2.0)
        beta = exps.trace * exps.dual_exp
        want = 3.0**exps.dual_exp * 2.0**-beta / beta
        assert quadrature_wolff(mu, [0.0, 0.0], exps, window) == pytest.approx(
            want, rel=1e-10
        )
        assert wolff_potential(mu, [0.0, 0.0], exps, window) == pytest.approx(
            want, rel=1e-14
        )

    def test_subdivision_cap_raises(self):
        mu = DiscreteMeasure([[1.0, 0.0]], [1.0])
        qcfg = QuadratureConfig(rel_tol=1e-14, max_subdivisions=1)
        with pytest.raises(ToleranceNotMetError):
            quadrature_wolff(mu, [0.0, 0.0], MATCHED, TruncationWindow(0.1), qcfg)


def _two_power_drops(sorted_d, beta, window):
    """The reference: each piece's lo and hi raised to -beta on their own,
    the last piece's hi at infinity before clipping."""
    lo = np.clip(sorted_d, window.eps, window.outer)
    hi = np.concatenate([sorted_d[:, 1:], np.full((len(sorted_d), 1), np.inf)], axis=1)
    hi = np.clip(hi, window.eps, window.outer)
    with np.errstate(divide="ignore"):
        return lo ** (-beta) - np.where(np.isinf(hi), 0.0, hi ** (-beta))


class TestPieceDrops:
    @pytest.mark.parametrize("r_out", [None, 1.3, np.inf])
    @pytest.mark.parametrize("beta", [0.37, 0.5, 1.0, 1.5, 2.0])
    def test_one_power_equals_two(self, rng, r_out, beta):
        # Rows with ties (a 0.05 grid) and entries below eps and above outer.
        d = np.round(rng.uniform(0.0, 2.5, (40, 30)) / 0.05) * 0.05
        d[:, 0] = 0.0
        sorted_d = np.sort(d, axis=1)
        window = TruncationWindow(0.3, r_out)
        drops = energies._wolff_drops(sorted_d, beta, window)
        assert np.array_equal(drops, _two_power_drops(sorted_d, beta, window))

    def test_one_power_equals_two_on_a_cantor_row_block(self):
        mu = cantor_measure(CantorSpec(2, 0.5, 3))
        sorted_d = np.sort(measures._distance_rows(mu, slice(None)), axis=1)
        for window in (TruncationWindow(mu.delta), TruncationWindow(mu.delta, 0.6)):
            drops = energies._wolff_drops(sorted_d, 1.0, window)
            assert np.array_equal(drops, _two_power_drops(sorted_d, 1.0, window))

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Cantor sweep is computed once per session and shared; the depth
trends take their depth 2-5 cells from it.  The sweep is written as CSV to a
temporary directory and checked cell by cell against the tracked archive
results/comparability_sweep.csv, which no test rewrites.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from rieszcap.capacity import comparability_report
from rieszcap.cli import main
from rieszcap.defaults import THRESHOLDS
from rieszcap.energies import TruncationWindow
from rieszcap.experiments import (
    SWEEP_CSV_COLUMNS,
    DepthTrend,
    comparability_sweep,
    ratio_window,
    sweep_point,
)
from rieszcap.measures import cantor_measure, cantor_spec_for_dimension
from rieszcap.verification import (
    suite_chebyshev,
    suite_curvature,
    suite_decomposition,
    suite_optimizer,
    suite_oracle_equivalence,
    suite_sandwich,
    suite_scaling,
    suite_wolff_quadrature,
)

ARCHIVE = Path(__file__).resolve().parent.parent / "results" / "comparability_sweep.csv"
ARCHIVE_RTOL = 1e-12

ALPHAS = (0.25, 0.5, 0.75)


def _criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _run_timed(fn, **kwargs):
    start = time.perf_counter()
    result = fn(**kwargs)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def sweep_points():
    return comparability_sweep()


@pytest.fixture(scope="session")
def trends(sweep_points):
    """depth_trend(alpha, factor) at factors 1.0 and 1.5: depths 2-5 are the
    sweep's own cells, depth 1 is evaluated here."""
    out = {}
    for alpha in ALPHAS:
        for factor in (1.0, 1.5):
            dim = factor * alpha
            cells = {
                p.depth: p for p in sweep_points if (p.alpha, p.dimension) == (alpha, dim)
            }
            cells[1] = sweep_point(alpha, dim, 1)
            out[(alpha, factor)] = DepthTrend.from_points(cells[m] for m in range(1, 6))
    return out


def test_c01_sandwich_bounds():
    res, dt = _run_timed(suite_sandwich, seed=0)
    _criterion(
        1,
        res.passed,
        f"two-sided bound over 9x10^4 random triples, zero violations at 1e-12 "
        f"slack ({dt:.1f}s); observed min(product)/lower = "
        f"{res.details['min_product_over_lower_bound']:.3f} >= 1, "
        f"max(product)/upper = {res.details['max_product_over_upper_bound']:.3f}"
        f" <= 1; failures: {res.failures}",
    )


def test_c02_curvature_consistency():
    res, dt = _run_timed(suite_curvature, seed=0)
    _criterion(
        2,
        res.passed,
        f"curvature identities on 10^4 planar triples at 1e-10 relative "
        f"({dt:.1f}s); worst doubling {res.details['worst_doubling_rel']:.2e}, "
        f"worst permutation-sum {res.details['worst_permutation_rel']:.2e}; "
        f"failures: {res.failures}",
    )


def test_c03_decomposition_identity():
    res, dt = _run_timed(suite_decomposition, seed=0)
    _criterion(
        3,
        res.passed,
        f"3*L2 = triple sum + residual on 200 measures x 3 eps at 1e-10 "
        f"({dt:.1f}s); worst gap {res.details['worst_gap_rel']:.2e}; "
        f"failures: {res.failures}",
    )


def test_c04_wolff_closed_form_vs_quadrature():
    res, dt = _run_timed(suite_wolff_quadrature, seed=0)
    _criterion(
        4,
        res.passed,
        f"closed form vs adaptive quadrature, matched + two generic exponent "
        f"pairs at 1e-8 ({dt:.1f}s); worst {res.details['worst_rel']:.2e}; "
        f"failures: {res.failures}",
    )


def test_c05_oracle_equivalence():
    res, dt = _run_timed(suite_oracle_equivalence, seed=0)
    _criterion(
        5,
        res.passed,
        f"triple-sum, L2 and pointwise potentials vs naive loops on 200 "
        f"measures at 1e-12 ({dt:.1f}s); worst {res.details['worst_rel']:.2e}; "
        f"failures: {res.failures}",
    )


def test_c06_scaling_laws():
    res, dt = _run_timed(suite_scaling, seed=0)
    _criterion(
        6,
        res.passed,
        f"dilation laws for energies (lambda^-2a, lambda^-a) and proxies "
        f"(lambda^a) at 1e-6, lambda in {{0.5, 2, 10}} ({dt:.1f}s); "
        f"failures: {res.failures}",
    )


def _sweep_rows(path):
    """Numeric cells of a sweep CSV keyed by (alpha, dim, depth); set ids repeat."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (float(row["alpha"]), float(row["dim"]), int(row["depth"])):
                {k: float(v) for k, v in row.items() if k != "set_id"}
            for row in csv.DictReader(fh)
        }


def _archive_mismatches(path) -> list:
    got, want = _sweep_rows(path), _sweep_rows(ARCHIVE)
    if got.keys() != want.keys():
        return [f"cells differ: {sorted(got.keys() ^ want.keys())}"]
    return [
        f"{key} {column}: {value!r} vs {want[key][column]!r}"
        for key, row in got.items()
        for column, value in row.items()
        if abs(value - want[key][column]) > ARCHIVE_RTOL * abs(want[key][column])
    ]


def test_c07_comparability_window(sweep_points, tmp_path):
    window = ratio_window([p.sym_wolff_ratio for p in sweep_points])
    limit = THRESHOLDS["sym_wolff_ratio_window"]
    path = tmp_path / "comparability_sweep.csv"
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in sweep_points:
        lines.append(
            ",".join(
                f"{v:.17g}" if isinstance(v, float) else str(v)
                for v in p.to_csv_row()
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    mismatches = _archive_mismatches(path)
    _criterion(
        7,
        window < limit and not mismatches,
        f"triple-sum/Wolff energy ratio two-sided bounded over "
        f"{len(sweep_points)} sweep cells: max/min = {window:.2f} < {limit:g}; "
        f"every numeric cell matches {ARCHIVE.name} to {ARCHIVE_RTOL:g} relative: "
        f"{mismatches[:5] or 'yes'}",
    )


def test_c07b_double_sum_estimator(sweep_points):
    window = ratio_window([p.double_sum_ratio for p in sweep_points])
    limit = THRESHOLDS["double_sum_ratio_window"]
    _criterion(
        7,
        window < limit,
        f"(supplement) ball-mass double-sum third estimator window: "
        f"max/min = {window:.2f} < {limit:g}",
    )


def test_c08_zero_capacity_trend(trends):
    failures = []
    details = []
    for alpha in ALPHAS:
        critical = trends[(alpha, 1.0)]
        slope, _, r2 = critical.wolff_fit()
        if not (r2 > 0.99 and slope > 0):
            failures.append(f"alpha={alpha}: wolff fit r2={r2:.5f}")
        if not critical.proxy_monotone_decreasing():
            failures.append(f"alpha={alpha}: proxy not decreasing")
        above = trends[(alpha, 1.5)]
        change = above.final_relative_change()
        if not (change < 0.10):
            failures.append(f"alpha={alpha}: stabilization {change:.3f} >= 0.10")
        # supercritical Wolff energies converge: successive increments shrink
        diffs = np.diff(above.wolff_energies)
        ratios = diffs[1:] / diffs[:-1]
        if not (ratios < 1.0).all():
            failures.append(f"alpha={alpha}: supercritical increments not shrinking")
        details.append(f"a={alpha}: r2={r2:.6f}, slope={slope:.3f}, "
                       f"stab={change:.4f}, incr-ratio~{ratios.mean():.3f}")
    _criterion(
        8,
        not failures,
        "critical-dimension Wolff growth affine (r2 > 0.99), proxies "
        "decreasing, supercritical stabilization < 10%: "
        + "; ".join(details) + (f"; failures: {failures}" if failures else ""),
    )


def test_c09_proxy_comparability(sweep_points):
    window = ratio_window([p.proxy_ratio for p in sweep_points])
    limit = THRESHOLDS["proxy_ratio_window"]
    mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
    win = TruncationWindow(mu.delta)
    r0 = comparability_report(mu, 0.5, win).ratio
    r1 = comparability_report(mu.dilated(4.0), 0.5, win.scaled(4.0)).ratio
    drift = abs(r1 - r0) / abs(r0)
    _criterion(
        9,
        window < limit and drift <= THRESHOLDS["proxy_dilation_rtol"],
        f"energy-proxy/Wolff-proxy ratio window max/min = {window:.2f} < "
        f"{limit:g}; dilation drift {drift:.2e} <= 1e-4",
    )


def test_c10_chebyshev_restriction():
    res, dt = _run_timed(suite_chebyshev, seed=0)
    _criterion(
        10,
        res.passed,
        f"retained mass >= 1 - E/t on 100 random instances, and >= 1/2 at "
        f"t = 2E ({dt:.1f}s); failures: {res.failures}",
    )


def test_c11_optimizer():
    res, dt = _run_timed(suite_optimizer, seed=0)
    _criterion(
        11,
        res.passed,
        f"uniform optimum on transitive symmetric supports (< 10% deviation), "
        f"monotone energy vs uniform, simplex to 1e-12, orbit symmetry "
        f"({dt:.1f}s); failures: {res.failures}",
    )


def test_c12_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
    code1 = main(["verify", "--seed", "7", "--json", str(out1)])
    code2 = main(["verify", "--seed", "7", "--json", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    _criterion(
        12,
        code1 == 0 and code2 == 0 and identical,
        f"verify run twice with seed 7: exit codes ({code1}, {code2}), "
        f"byte-identical JSON summaries: {identical}",
    )


def test_verify_fault_injection(tmp_path):
    # Mutation check backing criterion 12's battery: a 1.01 scaling of the
    # symmetrization must fail the sandwich suite and exit nonzero.
    out = tmp_path / "fault.json"
    code = main(["verify", "--seed", "7", "--fault", "p-alpha-scale",
                 "--json", str(out)])
    doc = json.loads(out.read_text())
    failing = [s["name"] for s in doc["suites"] if not s["passed"]]
    assert code == 1
    assert failing == ["symmetrization-sandwich"]

"""Versioned experiment thresholds.

Everything here is an artifact-level acceptance choice, not a constant of
the underlying mathematics: the comparability statements involved come with
unspecified constants, so experiments check two-sided boundedness against
these recorded windows and report the measured ratios alongside.
"""

THRESHOLDS_VERSION = 1

THRESHOLDS = {
    "version": THRESHOLDS_VERSION,
    # Max over min of (triple-sum energy / Wolff energy) across the standard
    # Cantor sweep.
    "sym_wolff_ratio_window": 50.0,
    # Same for the ball-mass double sum.  By parts it is alpha times the
    # matched Wolff energy, less a boundary term at eps, plus a tie term
    # (see energies.ball_mass_double_sum), so this window largely re-checks
    # the Wolff ratio rather than an independent estimator.
    "double_sum_ratio_window": 50.0,
    # Max over min of (energy proxy / Wolff proxy) across the sweep.
    "proxy_ratio_window": 10.0,
    # Dilation must leave proxy ratios fixed to this relative tolerance.
    "proxy_dilation_rtol": 1e-4,
    # Zero-capacity trend: linear-fit quality for the Wolff energy growth at
    # critical dimension, and the stabilization bound above it.
    "wolff_growth_min_r2": 0.99,
    "supercritical_stabilization": 0.10,
    # Semiadditivity probe factor: proxy(K1 u K2) <= factor * (sum of parts).
    "semiadditivity_factor": 2.0,
    # Bilipschitz ratio bounds [1/B, B] per registered map.
    "bilipschitz_bounds": {
        "identity": 1.0 + 1e-12,
        "rotation": 1.0001,
        "shear_sine": 5.0,
        "dilation_2": 5.0,
        "dilation_half": 5.0,
    },
}

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from numpy.testing import assert_allclose
from scipy import integrate

from bvlab.theory import (
    PeakSearchError,
    bias_derivative,
    mp_risk,
    narayana,
    narayana_series,
    narayana_series_closed,
    small_lambda_expansion,
    theory_point,
    variance_peak,
)

GRID_LAMBDA0 = (0.01, 0.1, 1.0)
GRID_GAMMA = np.arange(0.02, 4.0 + 1e-9, 0.02)

# The whole domain on a log grid, plus the large-gamma tail at lambda0 = 0.01
# where risk - bias_sq loses every digit of the variance.
EDGE_POINTS = [
    (float(lam0), float(gamma))
    for lam0 in np.logspace(-12, 8, 21)
    for gamma in np.logspace(-8, 8, 33)
] + [(0.01, float(gamma)) for gamma in np.linspace(3.8, 4.0, 101)]


def oracle(lambda0: float, gamma: float) -> tuple[float, float, float]:
    """(bias_sq, variance, risk) to 50 correct digits from the direct form.

    ``risk = phi1/(2 phi2) + (1 - gamma)/2`` and ``variance = risk - bias_sq``
    cancel by up to ``|log10 lambda0| + |log10 gamma|`` digits each, so the
    working precision carries twice that many guard digits.
    """
    guard = 2 * math.ceil(abs(math.log10(lambda0)) + abs(math.log10(gamma)))
    with mp.workdps(70 + guard):
        lam, g = mpf(lambda0), mpf(gamma)
        u = g + lam - 1
        phi2 = mp.sqrt(u * u + 4 * lam)
        bias = (phi2 - u) ** 2 / 4
        risk = (lam * (g + 1) + (g - 1) ** 2) / (2 * phi2) + (1 - g) / 2
        return float(bias), float(risk - bias), float(risk)


def spectral_average_quadrature(lambda0: float, eta: float) -> float:
    """Adaptive quadrature of the spectral-density integral behind mp_risk.

    For eta <= 1 integrates sqrt((b-x)(x-a)) / (2 pi eta x (1 + x/(lambda0*eta))^2)
    over the bulk support [a, b] = [(1-sqrt(eta))^2, (1+sqrt(eta))^2], after the
    substitution x = a + (b-a) sin^2 t that removes the edge singularities.
    For eta > 1 adds the zero-eigenvalue atom of mass 1 - 1/eta and reweights
    the transposed bulk of ratio 1/eta (eigenvalue rescaling turns the
    coefficient 1/lambda0 into 1/(lambda0*eta)).
    """
    if eta > 1.0:
        return (1.0 - 1.0 / eta) + (1.0 / eta) * spectral_average_quadrature(
            lambda0 * eta, 1.0 / eta
        )
    alpha = 1.0 / lambda0
    lo = (1.0 - math.sqrt(eta)) ** 2
    hi = (1.0 + math.sqrt(eta)) ** 2

    def integrand(t: float) -> float:
        x = lo + (hi - lo) * math.sin(t) ** 2
        jacobian = 2.0 * (hi - lo) * math.sin(t) * math.cos(t)
        density = (hi - lo) * math.sin(t) * math.cos(t) / (2.0 * math.pi * eta * x)
        return density * jacobian / (1.0 + alpha * x / eta) ** 2

    value, _ = integrate.quad(integrand, 0.0, math.pi / 2.0, limit=200)
    return value


class TestTheoryPoint:
    def test_reference_point_gamma_one(self):
        point = theory_point(1.0, 1.0)
        assert_allclose(point.bias_sq, (math.sqrt(5.0) - 1.0) ** 2 / 4.0, rtol=1e-14)
        assert_allclose(point.risk, 1.0 / math.sqrt(5.0), rtol=1e-14)
        assert_allclose(
            [point.bias_sq, point.variance, point.risk],
            [0.381966, 0.065248, 0.447214],
            atol=1e-6,
        )

    def test_reference_point_gamma_two(self):
        point = theory_point(1.0, 2.0)
        assert_allclose(point.bias_sq, 3.0 - 2.0 * math.sqrt(2.0), rtol=1e-14)
        assert_allclose(point.risk, 1.0 / math.sqrt(2.0) - 0.5, rtol=1e-14)
        assert_allclose(
            [point.bias_sq, point.variance, point.risk],
            [0.171573, 0.035534, 0.207107],
            atol=1e-6,
        )

    def test_decomposition_identity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            point = theory_point(10 ** rng.uniform(-3, 1), 10 ** rng.uniform(-2, 1))
            assert point.risk == point.bias_sq + point.variance
            assert 0.0 <= point.bias_sq <= 1.0
            assert point.variance >= 0.0

    def test_continuity_across_gamma_one(self):
        for lam0 in GRID_LAMBDA0:
            below = theory_point(lam0, 1.0 - 1e-12)
            at = theory_point(lam0, 1.0)
            above = theory_point(lam0, 1.0 + 1e-12)
            assert abs(below.risk - at.risk) < 1e-12
            assert abs(above.risk - at.risk) < 1e-12
            assert abs(below.variance - at.variance) < 1e-12
            assert abs(above.variance - at.variance) < 1e-12

    def test_narrow_width_limit(self):
        point = theory_point(0.5, 1e-9)
        assert_allclose(point.bias_sq, 1.0, atol=1e-6)
        assert_allclose(point.variance, 0.0, atol=1e-6)

    def test_wide_width_limit(self):
        assert theory_point(0.5, 1e7).bias_sq < 1e-12

    @pytest.mark.parametrize("lam0,gamma", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_domain_rejected(self, lam0, gamma):
        with pytest.raises(ValueError):
            theory_point(lam0, gamma)


@pytest.mark.parametrize("function, kwargs, message", [
    (theory_point, dict(lambda0=math.nan, gamma=1.0), "lambda0 must be finite and positive, got nan"),
    (theory_point, dict(lambda0=1.0, gamma=math.inf), "gamma must be finite and positive, got inf"),
    (bias_derivative, dict(lambda0=math.nan, gamma=1.0),
     "lambda0 must be finite and nonnegative, got nan"),
    (bias_derivative, dict(lambda0=-1.0, gamma=1.0),
     "lambda0 must be finite and nonnegative, got -1.0"),
    (bias_derivative, dict(lambda0=0.0, gamma=math.inf), "gamma must be finite and positive, got inf"),
    (small_lambda_expansion, dict(lambda0=math.inf, gamma=0.5),
     "lambda0 must be finite and positive, got inf"),
    (small_lambda_expansion, dict(lambda0=0.1, gamma=math.nan), "gamma must be finite and positive"),
    (variance_peak, dict(lambda0=math.inf), "lambda0 must be finite and positive, got inf"),
    (narayana_series, dict(lambda0=2.0, eta=math.nan, m_max=3), "eta must be finite and positive"),
    (narayana_series_closed, dict(lambda0=math.nan, eta=1.0), "lambda0 must be finite and positive"),
    (narayana_series_closed, dict(lambda0=1.0, eta=math.inf), "eta must be finite and positive"),
    (mp_risk, dict(lambda0=1.0, eta=math.inf), "eta must be finite and positive, got inf"),
    (mp_risk, dict(lambda0=-math.inf, eta=1.0), "lambda0 must be finite and positive, got -inf"),
])
def test_non_finite_or_out_of_domain_argument_named(function, kwargs, message):
    with pytest.raises(ValueError, match=message):
        function(**kwargs)


class TestRelativeAccuracy:
    def test_matches_high_precision_oracle(self):
        worst = 0.0
        for lam0, gamma in EDGE_POINTS:
            point = theory_point(lam0, gamma)
            assert point.variance >= 0.0, (lam0, gamma)
            for got, want in zip(
                (point.bias_sq, point.variance, point.risk), oracle(lam0, gamma)
            ):
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-12.0, max_value=8.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_invariants_over_log_domain(self, log_lambda0, log_gamma):
        lam0, gamma = 10.0**log_lambda0, 10.0**log_gamma
        point = theory_point(lam0, gamma)
        assert point.variance >= 0.0
        assert point.risk == point.bias_sq + point.variance
        assert theory_point(lam0, gamma * (1.0 + 1e-3)).bias_sq <= point.bias_sq


class TestBiasDerivative:
    def test_unregularized_half_width(self):
        assert bias_derivative(0.0, 0.5) == -1.0

    def test_unregularized_closed_form(self):
        """Without ridge, bias is (1-gamma)^2 below gamma=1, slope -2(1-gamma)."""
        for gamma in (0.1, 0.4, 0.9):
            assert_allclose(bias_derivative(0.0, gamma), -2.0 * (1.0 - gamma), rtol=1e-12)
            tiny = theory_point(1e-14, gamma)
            assert_allclose(tiny.bias_sq, (1.0 - gamma) ** 2, atol=1e-6)

    def test_unregularized_critical_width_is_the_limit(self):
        """At (0, 1) the closed form is 0/0; the value is its limit 0, next to
        the -sqrt(lambda0) of the neighbouring lambda0 = 1e-300."""
        assert bias_derivative(0.0, 1.0) == 0.0
        assert_allclose(bias_derivative(1e-300, 1.0), -1e-150, rtol=1e-12)
        assert bias_derivative(0.0, 1.0 - 1e-12) < 0.0

    @pytest.mark.parametrize("lam0,gamma", [(1.0, 1.0), (0.1, 0.7), (2.0, 1.3), (0.01, 3.0)])
    def test_matches_central_finite_difference(self, lam0, gamma):
        step = 1e-5
        numeric = (
            theory_point(lam0, gamma + step).bias_sq
            - theory_point(lam0, gamma - step).bias_sq
        ) / (2.0 * step)
        assert abs(bias_derivative(lam0, gamma) - numeric) < 1e-6

    def test_nonpositive_on_grid(self):
        for lam0 in (0.0,) + GRID_LAMBDA0:
            for gamma in GRID_GAMMA[::5]:
                assert bias_derivative(lam0, float(gamma)) <= 0.0


class TestSmallLambdaExpansion:
    def test_reference_values(self):
        var_approx, risk_approx = small_lambda_expansion(0.01, 0.5)
        assert_allclose(var_approx, 0.24, rtol=1e-12)
        assert_allclose(risk_approx, 0.5, rtol=1e-12)
        point = theory_point(0.01, 0.5)
        # Exact values frozen from the spectral-average route (quadrature
        # verified); the approximation error is O(lambda0^2).
        assert_allclose(point.variance, 0.2406417982956177, rtol=1e-12)
        assert_allclose(point.risk, 0.5003567607951303, rtol=1e-12)
        assert abs(point.variance - var_approx) <= 50.0 * 0.01**2
        assert abs(point.risk - risk_approx) <= 50.0 * 0.01**2

    def test_boundary_width_ratio(self):
        var_approx, risk_approx = small_lambda_expansion(0.003, 1.0)
        assert_allclose(var_approx, -2.0 * 0.003, rtol=1e-12)
        assert risk_approx == 0.0

    def test_overparametrized_is_second_order(self):
        var_approx, risk_approx = small_lambda_expansion(0.01, 2.0)
        assert var_approx == 0.0 and risk_approx == 0.0
        exact = theory_point(0.01, 2.0)
        assert 1.8e-4 < exact.risk < 2.0e-4

    def test_quadratic_error_bound(self):
        """|exact - approx| <= 50 lambda0^2 over gamma in [0.05, 0.70]."""
        for lam0 in (1e-4, 1e-3, 5e-3, 1e-2):
            for gamma in np.arange(0.05, 0.70 + 1e-9, 0.01):
                exact = theory_point(lam0, float(gamma))
                var_approx, risk_approx = small_lambda_expansion(lam0, float(gamma))
                bound = 50.0 * lam0 * lam0
                assert abs(exact.variance - var_approx) <= bound
                assert abs(exact.risk - risk_approx) <= bound


class TestVariancePeak:
    def test_peak_near_half_for_small_ridge(self):
        assert abs(variance_peak(0.01) - 0.49) <= 0.005
        assert abs(variance_peak(0.001) - 0.499) <= 5e-4

    def test_first_order_shift(self):
        for lam0 in (0.005, 0.01, 0.02, 0.05):
            assert abs(variance_peak(lam0) - (0.5 - lam0)) <= 25.0 * lam0 * lam0

    def test_consistent_with_grid_argmax(self):
        """Golden-section result equals a 1e-4-step grid scan at lambda0=0.1."""
        grid = np.arange(1e-4, 2.0 + 1e-9, 1e-4)
        variances = [theory_point(0.1, float(g)).variance for g in grid]
        scanned = float(grid[int(np.argmax(variances))])
        peak = variance_peak(0.1)
        assert abs(peak - scanned) <= 2e-4
        assert 0.45 <= peak <= 0.50

    def test_invalid_lambda0(self):
        for lambda0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                variance_peak(lambda0)

    def test_non_unimodal_scan_reported(self, monkeypatch):
        """A bimodal curve must raise instead of returning a bogus argmax."""
        import bvlab.theory as theory_module

        monkeypatch.setattr(
            theory_module, "closed_form", lambda lam0, gamma: (None, np.sin(6.0 * gamma))
        )
        with pytest.raises(PeakSearchError, match="not unimodal"):
            theory_module.variance_peak(0.5)

    def test_pinned_values(self):
        """The scan is one closed_form array call, bit-equal to the scalar
        theory_point scan it replaced, so these results stay exact."""
        assert [variance_peak(lam0) for lam0 in (0.01, 0.1, 1.0)] == [
            0.4919478053832557, 0.4781746070019348, 0.7263782750734585]


class TestNarayana:
    def test_small_values(self):
        assert narayana(1, 1) == 1
        assert narayana(3, 2) == 3
        assert narayana(4, 2) == 6

    def test_rows_sum_to_catalan(self):
        for m in range(1, 13):
            catalan = math.comb(2 * m, m) // (m + 1)
            assert sum(narayana(m, k) for k in range(1, m + 1)) == catalan

    def test_exact_integers(self):
        assert isinstance(narayana(40, 20), int)
        assert narayana(40, 20) % 1 == 0

    @pytest.mark.parametrize("m,k", [(0, 1), (3, 0), (3, 4), (-1, 1)])
    def test_out_of_range(self, m, k):
        with pytest.raises(ValueError):
            narayana(m, k)


class TestNarayanaSeries:
    def test_partial_sums_progression(self):
        assert_allclose(narayana_series(10.0, 2.0, 1).partial_sum, -0.05, rtol=1e-12)
        assert_allclose(narayana_series(10.0, 2.0, 2).partial_sum, -0.0425, rtol=1e-12)

    def test_truncation_matches_closed_form(self):
        # Closed-form value cross-checked by exact-fraction partial summation.
        closed = narayana_series_closed(10.0, 2.0)
        assert_allclose(closed, -0.0436438947433363, atol=1e-15)
        partial = narayana_series(10.0, 2.0, 40)
        assert partial.converged
        assert abs(partial.partial_sum - closed) <= 1e-6

    def test_divergence_region_flagged(self):
        result = narayana_series(1.0, 0.25, 10)
        assert not result.converged
        assert math.isfinite(result.partial_sum)

    def test_strong_ridge_limit(self):
        """As lambda0 grows the series vanishes and the bias tends to 1."""
        closed = narayana_series_closed(1e9, 1.0)
        assert abs(closed) < 3e-9
        assert_allclose((1.0 + closed) ** 2, theory_point(1e9, 1.0).bias_sq, atol=1e-8)

    def test_bias_identity(self):
        lhs = (1.0 + narayana_series_closed(1.0, 0.5)) ** 2
        assert_allclose(lhs, theory_point(1.0, 2.0).bias_sq, atol=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            narayana_series(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            narayana_series_closed(-1.0, 1.0)


class TestMpRisk:
    def test_reference_values(self):
        assert_allclose(mp_risk(1.0, 1.0), 1.0 / math.sqrt(5.0), rtol=1e-12)
        assert_allclose(mp_risk(1.0, 0.5), 1.0 / math.sqrt(2.0) - 0.5, rtol=1e-12)

    def test_continuous_at_eta_one(self):
        for lam0 in GRID_LAMBDA0:
            below = mp_risk(lam0, 1.0 - 1e-12)
            above = mp_risk(lam0, 1.0 + 1e-12)
            assert abs(below - above) < 1e-12

    def test_matches_theory_risk(self):
        for lam0 in GRID_LAMBDA0:
            for gamma in GRID_GAMMA[::7]:
                gamma = float(gamma)
                assert abs(mp_risk(lam0, 1.0 / gamma) - theory_point(lam0, gamma).risk) < 1e-8

    @pytest.mark.parametrize("lam0", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("eta", [0.3, 0.5, 1.0, 1.7, 2.0, 3.0])
    def test_matches_adaptive_quadrature(self, lam0, eta):
        assert abs(mp_risk(lam0, eta) - spectral_average_quadrature(lam0, eta)) < 1e-6

    def test_edge_grid_relative_precision(self):
        """Against the direct spectral form at 120 digits, whose subtraction
        cancels by at most about 50 of them on this grid."""
        def direct(alpha, eta):
            num = alpha + eta * (1 + eta - 2 * alpha + eta * alpha)
            den = 2 * eta * mp.sqrt(
                eta * eta + 2 * eta * alpha * (1 + eta) + alpha * alpha * (1 - eta) ** 2)
            return num / den - (1 - eta) / (2 * eta)

        for lam0, gamma in EDGE_POINTS[:21 * 33]:
            eta = 1.0 / gamma
            risk = mp_risk(lam0, eta)
            with mp.workdps(120):
                alpha, e = 1 / mpf(lam0), mpf(eta)
                exact = direct(alpha, e) if e <= 1 else (
                    1 - 1 / e + direct(alpha / e, 1 / e) / e)
                assert risk >= 0.0
                assert abs(risk - exact) <= 1e-10 * exact, (lam0, gamma)

    def test_invalid_arguments(self):
        for lambda0, eta in ((0.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan),
                             (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                mp_risk(lambda0, eta)


class TestCurveShapes:
    def test_bias_monotone_nonincreasing(self):
        for lam0 in GRID_LAMBDA0:
            biases = np.array([theory_point(lam0, float(g)).bias_sq for g in GRID_GAMMA])
            assert np.diff(biases).max() <= 1e-12

    def test_variance_unimodal(self):
        for lam0 in GRID_LAMBDA0:
            variances = np.array(
                [theory_point(lam0, float(g)).variance for g in GRID_GAMMA]
            )
            diffs = np.diff(variances)
            signs = np.sign(diffs[np.abs(diffs) > 1e-13])
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes == 1

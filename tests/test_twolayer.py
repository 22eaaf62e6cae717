import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bvlab._blas as _blas
import bvlab._workers as workers
import bvlab.twolayer as twolayer
from bvlab.seeding import spawn_rng
from bvlab.theory import theory_point
from bvlab.twolayer import (
    ModelDims,
    SingularSystemError,
    m_matrix,
    m_tilde,
    mc_bias_variance,
    mc_risk_mtilde,
    ridge_fit,
    sample_instance,
)
from conftest import assert_only_pool_workers, force_processes, needs_fork


def ridge_objective(W, X, y, lam, beta):
    residual = (W @ X).T @ beta - y
    return float(residual @ residual + lam * beta @ beta)


class TestModelDims:
    def test_ratios(self):
        dims = ModelDims(d=64, n=6400, p=128, lambda0=0.5)
        assert_allclose(dims.gamma, 2.0)
        assert_allclose(dims.lam, 50.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, n=1, p=1, lambda0=1.0),
            dict(d=1, n=0, p=1, lambda0=1.0),
            dict(d=1, n=1, p=0, lambda0=1.0),
            dict(d=1, n=1, p=1, lambda0=-0.1),
            dict(d=1, n=1, p=1, lambda0=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelDims(**kwargs)

    def test_overflowing_ridge_named(self):
        """A finite lambda0 must not give lam = (n/d) * lambda0 = inf."""
        with pytest.raises(ValueError, match=r"^lambda0=1e\+307 overflows .* n/d=200\.0"):
            ModelDims(d=2, n=400, p=2, lambda0=1e307)
        assert ModelDims(d=2, n=400, p=2, lambda0=1e305).lam == 2e307

    @pytest.mark.parametrize("name", ["d", "n", "p"])
    def test_bool_size_named(self, name):
        sizes = dict(d=8, n=8, p=8, lambda0=1.0)
        sizes[name] = True
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got True"):
            ModelDims(**sizes)


class TestSampleInstance:
    def test_scalar_case_exact_target(self):
        sample = sample_instance(ModelDims(d=1, n=1, p=1, lambda0=1.0), seed=3)
        assert sample.W.shape == (1, 1) and sample.X.shape == (1, 1)
        assert sample.y[0] == sample.X[0, 0] * sample.theta[0]

    def test_input_norm_law_of_large_numbers(self):
        """Columns have covariance I/d, so E||x||^2 = 1."""
        sample = sample_instance(ModelDims(d=64, n=6400, p=4, lambda0=1.0), seed=5)
        mean_sq_norm = float((sample.X**2).sum(axis=0).mean())
        assert abs(mean_sq_norm - 1.0) < 0.05

    def test_entry_scales(self):
        dims = ModelDims(d=100, n=2000, p=150, lambda0=1.0)
        sample = sample_instance(dims, seed=11)
        assert abs(sample.W.std() - 0.1) < 0.005
        assert abs(sample.X.std() - 0.1) < 0.005
        wide = sample_instance(ModelDims(d=4000, n=1, p=1, lambda0=1.0), seed=11)
        assert abs(wide.theta.std() - 1.0) < 0.05

    def test_deterministic_in_seed(self):
        dims = ModelDims(d=8, n=12, p=6, lambda0=1.0)
        a = sample_instance(dims, seed=42)
        b = sample_instance(dims, seed=42)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.theta, b.theta)


class TestRidgeFit:
    def test_strong_ridge_shrinks_to_zero(self):
        sample = sample_instance(ModelDims(d=6, n=30, p=5, lambda0=1.0), seed=0)
        lam = 1e8
        beta = ridge_fit(sample.W, sample.X, sample.y, lam)
        bound = float(np.linalg.norm(sample.W @ sample.X @ sample.y)) / lam
        assert np.linalg.norm(beta) <= bound * (1.0 + 1e-12)

    def test_scalar_case(self):
        beta = ridge_fit(np.array([[1.0]]), np.array([[1.0]]), np.array([1.0]), 1.0)
        assert_allclose(beta, [0.5], rtol=1e-15)

    def test_normal_equation_residual(self):
        sample = sample_instance(ModelDims(d=10, n=40, p=8, lambda0=1.0), seed=1)
        lam = 0.5
        beta = ridge_fit(sample.W, sample.X, sample.y, lam)
        features = sample.W @ sample.X
        gram = features @ features.T + lam * np.eye(8)
        rhs = features @ sample.y
        assert np.linalg.norm(gram @ beta - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_minimizes_objective(self):
        """Fitted weights beat 100 random perturbations of themselves."""
        sample = sample_instance(ModelDims(d=6, n=12, p=5, lambda0=1.0), seed=2)
        lam = 0.5
        beta = ridge_fit(sample.W, sample.X, sample.y, lam)
        best = ridge_objective(sample.W, sample.X, sample.y, lam, beta)
        rng = np.random.default_rng(7)
        for _ in range(100):
            delta = rng.normal(scale=1e-3, size=beta.shape)
            assert best <= ridge_objective(sample.W, sample.X, sample.y, lam, beta + delta)

    def test_unregularized_singular_system_rejected(self):
        # p = 6 features from n = 3 samples: Gram rank <= 3.
        sample = sample_instance(ModelDims(d=6, n=3, p=6, lambda0=0.0), seed=3)
        with pytest.raises(SingularSystemError):
            ridge_fit(sample.W, sample.X, sample.y, 0.0)

    def test_unregularized_well_posed_system_allowed(self):
        sample = sample_instance(ModelDims(d=5, n=200, p=3, lambda0=0.0), seed=4)
        beta = ridge_fit(sample.W, sample.X, sample.y, 0.0)
        assert np.all(np.isfinite(beta))

    def test_negative_ridge_rejected(self):
        sample = sample_instance(ModelDims(d=3, n=6, p=2, lambda0=1.0), seed=5)
        with pytest.raises(ValueError):
            ridge_fit(sample.W, sample.X, sample.y, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_ridge_rejected(self, lam):
        sample = sample_instance(ModelDims(d=3, n=6, p=2, lambda0=1.0), seed=5)
        with pytest.raises(ValueError, match=f"lam must be finite and nonnegative, got {lam}"):
            ridge_fit(sample.W, sample.X, sample.y, lam)

    def test_ridge_below_rounding_rejected(self):
        """p = 8 features from n = 3 samples: a ridge of 1e-20 is lost to
        rounding, and the Cholesky check refuses the singular system."""
        sample = sample_instance(ModelDims(d=6, n=3, p=8, lambda0=1.0), seed=3)
        with pytest.raises(SingularSystemError, match="not positive definite at lam=1e-20"):
            ridge_fit(sample.W, sample.X, sample.y, 1e-20)


class TestMMatrix:
    def test_strong_ridge_vanishes(self):
        sample = sample_instance(ModelDims(d=5, n=20, p=4, lambda0=1.0), seed=6)
        M = m_matrix(sample.W, sample.X, 1e12)
        assert np.abs(M).max() < 1e-9

    def test_scalar_case(self):
        M = m_matrix(np.array([[1.0]]), np.array([[1.0]]), 1.0)
        assert_allclose(M, [[0.5]], rtol=1e-15)

    def test_predictor_equivalence(self):
        """x^T M theta reproduces the fitted readout prediction."""
        sample = sample_instance(ModelDims(d=8, n=24, p=6, lambda0=1.0), seed=7)
        lam = 0.7
        M = m_matrix(sample.W, sample.X, lam)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.normal(size=8)
            theta = rng.normal(size=8)
            beta = ridge_fit(sample.W, sample.X, sample.X.T @ theta, lam)
            via_fit = float(x @ sample.W.T @ beta)
            via_m = float(x @ M @ theta)
            assert abs(via_m - via_fit) <= 1e-8 * max(abs(via_fit), 1e-12)


class TestMTilde:
    def test_zero_first_layer(self):
        assert_allclose(m_tilde(np.zeros((3, 4)), 1.0), np.zeros((4, 4)), atol=1e-15)

    def test_scalar_case(self):
        assert_allclose(m_tilde(np.array([[1.0]]), 1.0), [[0.5]], rtol=1e-15)

    def test_agrees_with_resolvent_form(self):
        """W^T (W W^T + l0)^-1 W equals I - (I + W^T W / l0)^-1 to 1e-10."""
        rng = np.random.default_rng(9)
        for p, d in [(3, 5), (5, 3), (6, 6)]:
            W = rng.normal(size=(p, d)) / math.sqrt(d)
            direct = m_tilde(W, 0.7)
            resolvent = np.eye(d) - np.linalg.inv(np.eye(d) + W.T @ W / 0.7)
            assert np.abs(direct - resolvent).max() < 1e-10

    def test_spectrum_from_singular_values(self):
        rng = np.random.default_rng(10)
        W = rng.normal(size=(6, 9)) / 3.0
        lam0 = 0.4
        eigenvalues = np.sort(np.linalg.eigvalsh(m_tilde(W, lam0)))
        singular = np.linalg.svd(W, compute_uv=False)
        expected = np.zeros(9)
        expected[-len(singular):] = np.sort(singular**2 / (singular**2 + lam0))
        assert_allclose(eigenvalues, expected, atol=1e-10)
        assert eigenvalues.min() >= -1e-12 and eigenvalues.max() < 1.0

    def test_nonpositive_ridge_rejected(self):
        with pytest.raises(ValueError):
            m_tilde(np.eye(2), 0.0)

    @pytest.mark.parametrize("lambda0", [math.nan, math.inf])
    def test_non_finite_ridge_rejected(self, lambda0):
        with pytest.raises(ValueError, match=f"lambda0 must be finite and positive, got {lambda0}"):
            m_tilde(np.eye(2), lambda0)

    def test_ridge_below_rounding_rejected(self):
        """W W^T is 8 x 8 of rank 4, and 1e-300 does not lift its zero eigenvalues."""
        W = np.random.default_rng(0).standard_normal((8, 4)) / 2
        with pytest.raises(SingularSystemError, match="not positive definite at lam=1e-300"):
            m_tilde(W, 1e-300)


class TestWishartSecondMoment:
    @staticmethod
    def check_moments(d, n, k, scale):
        """S = L L^T / scale^2 ~ W_d(n, I): E S = n I and E sum_j S_ij^2 =
        n (n + d + 1) for every row i.  L has rank min(d, n), or k when cut
        to its first k columns, which give the first k rows of S."""
        rng = np.random.default_rng(2718)
        columns = min(d, n) if k is None else k
        rows = d if columns == min(d, n) else columns
        factors = [twolayer._wishart_factor(rng, d, n, k, scale) for _ in range(4000)]
        for L in factors[:50]:
            assert L.shape == (d, columns)
            assert np.array_equal(L, np.tril(L)) and np.all(np.diag(L) > 0.0)
        assert np.linalg.matrix_rank(factors[0]) == columns
        variance = 1.0 / d if scale is None else scale**2
        draws = np.array([(L @ L.T)[:rows] / variance for L in factors])
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - n * np.eye(d)[:rows]) <= 5.0 * se)
        sq = np.einsum("tij,tij->t", draws, draws)
        se_sq = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - rows * n * (n + d + 1)) <= 5.0 * se_sq

    @pytest.mark.parametrize("d, n", [(5, 12), (5, 5), (5, 3)])
    def test_matches_exact_wishart_moments(self, d, n):
        """d * L L^T ~ W_d(n, I), with L of full rank min(d, n)."""
        self.check_moments(d, n, None, None)

    @pytest.mark.parametrize("d, n, k, scale", [
        (5, 12, 2, None),  # the first 2 columns of X X^T's factor
        (5, 3, 2, None),  # ... of a singular X X^T
        (3, 5, 3, 1 / math.sqrt(5)),  # the first layer's T for p = 3, d = 5
        (4, 9, 2, 0.3),
    ])
    def test_cut_and_scaled_factor_matches_wishart_moments(self, d, n, k, scale):
        """A factor cut to k columns, or drawn at another scale, still gives
        the exact moments of the rows it carries."""
        self.check_moments(d, n, k, scale)


def factor_case(d, n, p, seed=31):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((p, d)) / math.sqrt(d)
    return W, twolayer._wishart_factor(rng, d, n)


class TestMFromFactor:
    @pytest.mark.parametrize(
        "d, n, p", [(8, 40, 4), (8, 40, 8), (8, 40, 13), (8, 5, 3), (8, 5, 7)]
    )
    @pytest.mark.parametrize("lam", [0.3, 30.0])
    def test_equals_gram_route(self, d, n, p, lam):
        """Both the p x p and the k x k (push-through) systems give the Gram route's M."""
        W, L = factor_case(d, n, p)
        via_gram = twolayer._m_from_gram(W, L @ L.T, lam)
        via_factor = twolayer._m_from_factor(W, L, lam)
        assert np.abs(via_factor - via_gram).max() <= 1e-12 * np.abs(via_gram).max()

    @pytest.mark.parametrize("d, n, p", [(8, 40, 13), (8, 5, 7)])
    def test_unregularized_rank_deficient_rejected(self, d, n, p):
        W, L = factor_case(d, n, p)
        with pytest.raises(SingularSystemError, match="rank"):
            twolayer._m_from_factor(W, L, 0.0)

    def test_unregularized_full_rank_matches_gram_route(self):
        W, L = factor_case(8, 400, 4)
        via_gram = twolayer._m_from_gram(W, L @ L.T, 0.0)
        via_factor = twolayer._m_from_factor(W, L, 0.0)
        assert np.abs(via_factor - via_gram).max() <= 1e-12 * np.abs(via_gram).max()


def hide_lapack(monkeypatch, hidden):
    if hidden:
        monkeypatch.setattr(_blas, "_lapack", lambda: None)


class TestMFromFactorWithoutLapack(TestMFromFactor):
    """The same checks where NumPy bundles no LAPACK to bind: the inverse
    Cholesky factor then comes from ``np.linalg``."""

    @pytest.fixture(autouse=True)
    def without_lapack(self, monkeypatch):
        hide_lapack(monkeypatch, True)


@pytest.mark.parametrize("hidden", [False, True], ids=["lapack", "numpy"])
class TestFactoredSystem:
    @pytest.mark.parametrize("W", [
        [[1.0, 0.0], [1.0, 0.0]],  # p <= k: B B^T = [[1, 1], [1, 1]]
        [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],  # p > k: B^T B = [[1, 1], [1, 1]]
    ])
    def test_not_positive_definite_raises(self, monkeypatch, hidden, W):
        """A ridge of 1e-20 is lost in G's unit diagonal, so G stays
        singular and the Cholesky factorization finds a zero pivot."""
        hide_lapack(monkeypatch, hidden)
        with pytest.raises(SingularSystemError,
                           match="^Gram matrix not positive definite at lam=1e-20$") as info:
            twolayer._m_from_factor(np.array(W), np.eye(2), 1e-20)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        if not hidden and _blas._lapack() is not None:
            assert "LAPACK info 2" in str(info.value.__cause__)  # potrf's zero pivot

    def test_unregularized_trace_is_exact_to_conditioning(self, monkeypatch, hidden):
        """At lam = 0 with p <= d <= n, M is a projection of rank p, so
        tr M = p; the factored route misses it by at most p cond(G) eps."""
        hide_lapack(monkeypatch, hidden)
        rng = np.random.default_rng(0)
        d, n, p = 8, 400, 4
        W = np.diag([1.0, 1e-2, 1e-3, 1e-4]) @ rng.standard_normal((p, d))
        L = twolayer._wishart_factor(rng, d, n)
        B = W @ L
        cond = np.linalg.cond(B @ B.T)
        assert 1e8 <= cond < twolayer.CONDITION_LIMIT
        trace = np.trace(twolayer._m_from_factor(W, L, 0.0))
        assert abs(trace - p) <= p * cond * np.finfo(float).eps


def direct_x_reference(dims, trials):
    """Bias, variance and risk with standard errors from explicit X draws.

    Each standard error is that of the statistic's first-order (influence
    function) linearization around the sample means.
    """
    d = dims.d
    Ms = np.array([
        m_matrix(s.W, s.X, dims.lam)
        for s in (sample_instance(dims, seed=t) for t in range(trials))
    ])
    m_mean = Ms.mean(axis=0)
    sq = np.einsum("tij,tij->t", Ms, Ms) / d
    inner_mean = np.einsum("tij,ij->t", Ms, m_mean) / d
    inner_bias = np.einsum("tij,ij->t", Ms, m_mean - np.eye(d)) / d
    risk = np.einsum("tij,tij->t", Ms - np.eye(d), Ms - np.eye(d)) / d
    bias_sq = float(np.sum((m_mean - np.eye(d)) ** 2)) / d
    stats = dict(bias_sq=bias_sq, variance=sq.mean() - inner_mean.mean(), risk=risk.mean())
    influence = dict(bias_sq=2.0 * inner_bias, variance=sq - 2.0 * inner_mean, risk=risk)
    se = {k: v.std(ddof=1) / math.sqrt(trials) for k, v in influence.items()}
    return stats, se


class TestMcBiasVariance:
    @pytest.mark.parametrize("n", [10, 4])
    def test_agrees_with_direct_x_reference(self, n):
        """The Wishart route estimates what explicit (W, X) draws estimate."""
        dims = ModelDims(d=6, n=n, p=4, lambda0=0.5)
        reference, se = direct_x_reference(dims, 3000)
        stats = mc_bias_variance(dims, 3000, 99)
        for name in ("bias_sq", "variance", "risk"):
            # Two independent estimates of one quantity: the gap has sqrt(2) se.
            gap = abs(getattr(stats, name) - reference[name])
            assert gap <= 4.0 * math.sqrt(2.0) * se[name], name

    @pytest.mark.parametrize("n, p", [
        (10, 3),  # p < d
        (10, 6),  # p = d
        (10, 9),  # p > d: R^T stands in for W
        (3, 5),  # n < p <= d: the k x k push-through system
        (3, 9),  # n < d < p
    ])
    def test_stand_in_first_layer_agrees_with_direct_x_reference(self, n, p):
        """Trials on the Gram factors of W and X estimate what explicit
        (W, X) draws estimate, on either side of p = d and of n = p."""
        dims = ModelDims(d=6, n=n, p=p, lambda0=0.5)
        reference, se = direct_x_reference(dims, 3000)
        stats = mc_bias_variance(dims, 3000, 7)
        for name in ("bias_sq", "variance", "risk"):
            gap = abs(getattr(stats, name) - reference[name])
            assert gap <= 4.0 * math.sqrt(2.0) * se[name], name

    def test_unregularized_wide_layer_names_the_real_width(self, monkeypatch):
        """At p > d > n, R^T's d x d system hides that W's is singular: the
        call raises before any trial runs, naming p and not d."""
        monkeypatch.setattr(twolayer, "spawn_rng", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(SingularSystemError,
                           match=r"^Gram matrix is singular at lam=0 \(rank <= 3 < p = 9\)"):
            mc_bias_variance(ModelDims(d=6, n=3, p=9, lambda0=0.0), 4, 0)

    def test_scaled_identity_trials_have_zero_variance(self, monkeypatch):
        monkeypatch.setattr(twolayer, "_m_from_factor", lambda W, L, lam: 0.3 * np.eye(6))
        stats = mc_bias_variance(ModelDims(d=6, n=30, p=4, lambda0=1.0), 5, 0)
        assert stats.variance <= 1e-12
        assert_allclose([stats.bias_sq, stats.risk], [0.49, 0.49], rtol=0, atol=1e-12)

    def test_identical_trials_give_spread_about_mean_trace(self, monkeypatch):
        """With every trial the same M, the variance is that of M about
        ``(tr M / d) I``, the form ``E M = c I`` takes, not zero."""
        monkeypatch.setattr(
            twolayer, "spawn_rng", lambda master, *path: np.random.default_rng(1234)
        )
        dims = ModelDims(d=6, n=30, p=4, lambda0=1.0)
        stats = mc_bias_variance(dims, 5, 0)
        rng = np.random.default_rng(1234)
        W = np.zeros((4, 6))  # [T 0]: the Bartlett factor of W W^T ~ W_4(6, I/6)
        W[:, :4] = twolayer._wishart_factor(rng, 4, 6, 4, 1 / math.sqrt(6))
        L = twolayer._wishart_factor(rng, 6, 30, 4)  # X X^T's first 4 columns
        M = twolayer._m_from_factor(W, L, dims.lam)
        centered = M - np.trace(M) / 6 * np.eye(6)
        assert_allclose(stats.variance, np.vdot(centered, centered) / 6, rtol=1e-12)

    def test_decomposition_identity(self):
        stats = mc_bias_variance(ModelDims(d=12, n=60, p=9, lambda0=0.3), 40, 17)
        assert abs(stats.risk - stats.bias_sq - stats.variance) <= 1e-12 * stats.risk
        assert stats.bias_sq >= 0.0 and stats.variance >= 0.0
        assert stats.bias_sq <= stats.risk

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 8),
           st.floats(0.1, 10.0), st.integers(2, 5), st.integers(0, 2**32))
    def test_decomposition_invariants(self, d, n, p, lambda0, trials, seed):
        stats = mc_bias_variance(ModelDims(d=d, n=n, p=p, lambda0=lambda0), trials, seed)
        assert abs(stats.risk - stats.bias_sq - stats.variance) <= 1e-12 * stats.risk
        assert stats.variance >= 0.0
        assert stats.bias_sq <= stats.risk

    def test_deterministic_in_master_seed(self):
        dims = ModelDims(d=8, n=40, p=6, lambda0=1.0)
        assert mc_bias_variance(dims, 10, 3) == mc_bias_variance(dims, 10, 3)
        assert mc_bias_variance(dims, 10, 3) != mc_bias_variance(dims, 10, 4)

    def test_matches_wide_limit_at_moderate_scale(self):
        """100-trial Monte Carlo lands near the closed form at d=32, n/d=100."""
        for p in (16, 32, 64):
            dims = ModelDims(d=32, n=3200, p=p, lambda0=0.1)
            stats = mc_bias_variance(dims, 100, 2024)
            limit = theory_point(0.1, p / 32)
            assert type(stats) is type(limit)  # one BiasVarianceRisk for both routes
            assert abs(stats.bias_sq - limit.bias_sq) < 0.02
            assert abs(stats.variance - limit.variance) < 0.02
            assert abs(stats.risk - limit.risk) < 0.02

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            mc_bias_variance(ModelDims(d=4, n=8, p=3, lambda0=1.0), 1, 0)

    def test_unregularized_singular_instance_raises(self):
        dims = ModelDims(d=6, n=2, p=6, lambda0=0.0)
        with pytest.raises(SingularSystemError):
            mc_bias_variance(dims, 2, 0)

    @pytest.mark.parametrize("trials", [2.5, 3.0, 0])
    def test_non_integer_or_zero_trials_named(self, trials):
        with pytest.raises(ValueError, match="trials"):
            mc_bias_variance(ModelDims(d=4, n=8, p=2, lambda0=1.0), trials, 0)


@needs_fork
class TestProcessSplit:
    """Trials split over 1, 2 and 3 processes give the serial loop's bits."""

    def test_blocks_grow_with_the_work(self, monkeypatch):
        """A process is added only while its saving beats a wake-up."""
        monkeypatch.setattr(workers, "available", lambda: 40)
        half = workers.MIN_SPLIT_US / 2
        assert [workers.split_blocks(40, work * half / 40) for work in
                (1.9, 2, 5.9, 6, 11.9, 12, 2000)] == [1, 2, 2, 3, 3, 4, 40]
        assert workers.split_blocks(3, 1e9) == 3

    @staticmethod
    def bits(stats):
        return np.array([stats.bias_sq, stats.variance, stats.risk]).tobytes()

    @pytest.mark.parametrize("dims", [
        ModelDims(d=12, n=60, p=9, lambda0=0.3),  # p <= d: the p x p system
        ModelDims(d=8, n=40, p=12, lambda0=0.3),  # p > d: the d x d system
    ])
    def test_mc_bias_variance(self, monkeypatch, dims):
        runs = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            runs.append(self.bits(mc_bias_variance(dims, 7, 5)))
            assert len([worker for worker in workers._pool if worker]) == processes - 1
        assert runs == [runs[0]] * 3
        assert_only_pool_workers()

    def test_large_d_trials_have_the_same_bits_unsplit(self, monkeypatch):
        """Above d = 100, ``np.vdot(M, M)`` sums in one part per BLAS thread,
        so an unsplit block must run on one BLAS thread as split ones do."""
        dims = ModelDims(d=104, n=20, p=6, lambda0=0.5)
        force_processes(monkeypatch, 2)
        controls = _blas._thread_controls()
        if controls is not None:
            before = controls[0]()
            controls[1](2)
        try:
            runs = [sum(workers.run_blocks(twolayer._bias_variance_trials, 4, blocks,
                                           dims, 3), [])
                    for blocks in (1, 2)]
        finally:
            if controls is not None:
                controls[1](before)
        assert runs[0] == runs[1]
        assert_only_pool_workers()

    def test_singular_system_raises_the_serial_error(self, monkeypatch):
        dims = ModelDims(d=6, n=30, p=9, lambda0=0.0)
        messages = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            with pytest.raises(SingularSystemError) as info:
                mc_bias_variance(dims, 5, 0)
            messages.append(str(info.value))
        assert messages[0].startswith("Gram matrix is singular at lam=0")
        assert messages == [messages[0]] * 3
        assert_only_pool_workers()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(twolayer.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, bvlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


class TestMcRiskMtilde:
    def test_spectral_route_equals_direct_matrix_route(self):
        """A trial equals ||m_tilde(W') - I||_F^2 / d, W' holding the trial's B."""
        for d, p, lam0 in [(12, 6, 0.5), (12, 12, 1.0), (12, 20, 2.0)]:
            estimate = mc_risk_mtilde(d, p, lam0, trials=1, master_seed=33)
            a, b = twolayer._laguerre_bidiagonal(spawn_rng(33, 0), p, d)
            m = a.size
            W = np.zeros((p, d))
            W[:m, :m] = np.diag(a) + np.diag(b, -1)
            direct = float(np.sum((m_tilde(W, lam0) - np.eye(d)) ** 2)) / d
            assert_allclose(estimate, direct, rtol=1e-10)

    def test_monotone_decrease_in_width(self):
        values = [
            mc_risk_mtilde(48, p, 1.0, trials=10, master_seed=5)
            for p in (12, 24, 48, 96, 192)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        assert mc_risk_mtilde(16, 8, 1.0, 4, 9) == mc_risk_mtilde(16, 8, 1.0, 4, 9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mc_risk_mtilde(8, 8, 0.0, 2, 0)
        with pytest.raises(ValueError):
            mc_risk_mtilde(8, 8, 1.0, 0, 0)

    @pytest.mark.parametrize("name, value", [
        ("d", 8.0), ("p", 2.5), ("trials", 3.0), ("d", 0), ("p", -1),
        ("d", True), ("p", True), ("trials", True),
        ("lambda0", math.nan), ("lambda0", math.inf), ("lambda0", -1.0),
    ])
    def test_invalid_argument_named(self, name, value):
        args = dict(d=8, p=4, lambda0=1.0, trials=2, master_seed=0)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be"):
            mc_risk_mtilde(**args)

    @pytest.mark.parametrize("d, p", [(12, 7), (12, 12), (12, 20), (5, 1), (1, 6)])
    def test_extreme_ridge_gives_finite_limits(self, d, p):
        """lambda0 -> 0 leaves the d - m zero eigenvalues; lambda0 -> inf gives 1."""
        m = min(p, d)
        a, b = twolayer._laguerre_bidiagonal(spawn_rng(4, d, p), p, d)
        assert twolayer._ridge_trace_sq(a, b, 1e-300) == 0.0
        assert twolayer._ridge_trace_sq(a, b, 1e300) == m
        assert_allclose(mc_risk_mtilde(d, p, 1e-300, 3, 4), (d - m) / d, rtol=1e-15, atol=0)
        assert_allclose(mc_risk_mtilde(d, p, 1e300, 3, 4), 1.0, rtol=1e-15, atol=0)


class TestLaguerreBidiagonal:
    @pytest.mark.parametrize("d, p", [(6, 3), (6, 6), (6, 11)])
    def test_matches_exact_gram_moments(self, d, p):
        """E tr T = p and E tr T^2 = p d (p + d + 1) / d^2 for T = B B^T.

        These are the moments of W W^T for a p x d W with N(0, 1/d) entries;
        wrong chi-square degrees of freedom on either diagonal move them.
        """
        m, draws = min(p, d), 4000
        tr1, tr2 = np.empty(draws), np.empty(draws)
        for t in range(draws):
            a, b = twolayer._laguerre_bidiagonal(spawn_rng(17, d, p, t), p, d)
            assert a.shape == (m,) and b.shape == (m - 1,)
            assert np.all(a > 0) and np.all(b > 0)
            B = np.diag(a) + np.diag(b, -1)
            T = B @ B.T
            tr1[t], tr2[t] = np.trace(T), np.sum(T * T)
        for values, expected in ((tr1, p), (tr2, p * d * (p + d + 1) / d**2)):
            stderr = values.std(ddof=1) / math.sqrt(draws)
            assert abs(values.mean() - expected) < 5.0 * stderr


class TestRidgeTraceRecurrence:
    @pytest.mark.parametrize("d, p", [(12, 7), (12, 12), (12, 20), (5, 1), (1, 6)])
    def test_matches_high_precision_spectrum(self, d, p):
        """tr((I + B B^T / lambda0)^-2) to 1e-10 relative over lambda0 in [1e-12, 1e12]."""
        a, b = twolayer._laguerre_bidiagonal(spawn_rng(71, d, p), p, d)
        B = np.diag(a) + np.diag(b, -1)
        with mpmath.workdps(50):
            T = mpmath.matrix(B.tolist())
            mu = mpmath.eigsy(T * T.T, eigvals_only=True)
            for lam0 in np.logspace(-12, 12, 25):
                exact = mpmath.fsum(1 / (1 + x / mpmath.mpf(lam0)) ** 2 for x in mu)
                value = twolayer._ridge_trace_sq(a, b, float(lam0))
                assert abs(value - exact) <= 1e-10 * exact


class TestDataFreeLimit:
    def test_gap_shrinks_with_sample_growth(self):
        """Median ||M - Mtilde||_2 falls as n/d runs through 10, 100, 1000."""
        d, p, lam0 = 32, 32, 1.0
        medians = []
        for ratio in (10, 100, 1000):
            n = d * ratio
            gaps = []
            for t in range(20):
                rng = spawn_rng(1001, ratio, t)
                W = rng.standard_normal((p, d)) / math.sqrt(d)
                X = rng.standard_normal((d, n)) / math.sqrt(d)
                gap = m_matrix(W, X, (n / d) * lam0) - m_tilde(W, lam0)
                gaps.append(np.linalg.norm(gap, 2))
            medians.append(float(np.median(gaps)))
        assert medians[0] > medians[1] > medians[2]

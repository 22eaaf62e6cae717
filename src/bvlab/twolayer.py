"""Exact simulator for a two-layer linear network with a random first layer.

The model: inputs ``x ~ N(0, I_d/d)``, targets ``y = x^T theta`` with
``theta ~ N(0, I_d)``, a frozen random first layer ``W`` (p x d, entries
``N(0, 1/d)``) and a ridge-fitted readout ``beta`` minimizing
``||(W X)^T beta - y||^2 + lam * ||beta||^2``.  The fitted predictor is
``f(x) = x^T W^T beta = x^T M theta`` where

    M = W^T (W X X^T W^T + lam I)^-1 W X X^T,

so expected squared bias, variance and risk over fresh draws of (W, X)
reduce to Frobenius-norm statistics of M:

    bias_sq  = ||E M - I||^2 / d
    variance = E ||M - E M||^2 / d
    risk     = E ||M - I||^2 / d.

M depends on the data only through the second moment ``S = X X^T``, which
follows the Wishart law ``W_d(n, I/d)``.  Each Monte Carlo trial therefore
draws W and then a factor L of S with ``S = L L^T``: the lower-trapezoidal
Bartlett factor (Bartlett 1933; Odell & Feiveson 1966), d x k with
``k = min(d, n)``, built from its k(k-1)/2 + (d-k)k nonzero normals and k
chi-square draws rather than the d * n normals of X; n < d gives the
singular Wishart law by the same construction.  With ``B = W L``, M is
``W^T (B B^T + lam I)^-1 B L^T``, or by the push-through identity
``(W^T B) (B^T B + lam I)^-1 L^T``, whichever system is smaller.  The inner
expectations over (x, theta) are already integrated out, which cuts both
cost and estimator noise.  The data-free limit matrix
``Mtilde = W^T (W W^T + lambda0 I)^-1 W`` is also provided, together with a
Monte Carlo estimate of its risk for comparison against the closed-form
spectral average.

Linear systems are solved with NumPy's LAPACK after a Cholesky factorization
confirms the regularized Gram matrix is positive definite; nothing is
explicitly inverted, and every BLAS/LAPACK call runs in NumPy's one runtime.
A Monte Carlo trial's system is min(p, d, n) x min(p, d, n); ``m_matrix``
keeps the p x p system on ``X X^T`` as the direct reference.
Trials own disjoint RNG streams derived from the master seed and are reduced
in fixed trial-index order, so results are bit-reproducible for a fixed
NumPy build regardless of how trials are scheduled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seeding import spawn_rng

__all__ = [
    "ModelDims",
    "LinearNetSample",
    "SingularSystemError",
    "BiasVarianceRisk",
    "sample_instance",
    "ridge_fit",
    "m_matrix",
    "m_tilde",
    "mc_bias_variance",
    "mc_risk_mtilde",
]

# lam = 0 is accepted only when the Gram matrix clears this conditioning bar.
CONDITION_LIMIT = 1e12


class SingularSystemError(np.linalg.LinAlgError):
    """The unregularized Gram system is singular or too ill-conditioned."""


@dataclass(frozen=True)
class ModelDims:
    """Problem dimensions (input d, samples n, width p) plus ridge strength.

    ``lam`` is the ridge actually applied to the fit, ``(n/d) * lambda0``;
    ``gamma = p/d`` and ``eta = d/p`` are the width ratios used by the
    closed-form limits.
    """

    d: int
    n: int
    p: int
    lambda0: float

    def __post_init__(self) -> None:
        for name in ("d", "n", "p"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not math.isfinite(self.lambda0) or self.lambda0 < 0.0:
            raise ValueError(f"lambda0 must be finite and >= 0, got {self.lambda0}")

    @property
    def gamma(self) -> float:
        return self.p / self.d

    @property
    def eta(self) -> float:
        return self.d / self.p

    @property
    def lam(self) -> float:
        return (self.n / self.d) * self.lambda0


@dataclass
class LinearNetSample:
    """One draw of (W, X, theta) with the implied targets ``y = X^T theta``."""

    W: np.ndarray
    X: np.ndarray
    theta: np.ndarray
    y: np.ndarray


class BiasVarianceRisk(NamedTuple):
    bias_sq: float
    variance: float
    risk: float


def sample_instance(dims: ModelDims, seed: int) -> LinearNetSample:
    """Draw one (W, X, theta) instance; deterministic in ``seed``.

    W and X entries are N(0, 1/d) (so input columns have covariance I/d),
    theta is standard normal, and ``y = X^T theta`` holds exactly.
    """
    rng = spawn_rng(seed)
    scale = 1.0 / math.sqrt(dims.d)
    W = rng.standard_normal((dims.p, dims.d)) * scale
    X = rng.standard_normal((dims.d, dims.n)) * scale
    theta = rng.standard_normal(dims.d)
    return LinearNetSample(W=W, X=X, theta=theta, y=X.T @ theta)


@functools.lru_cache(maxsize=None)
def _bartlett_slots(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the strictly-lower and the diagonal entries of a d x k array."""
    rows, cols = np.tril_indices(d, -1, k)
    return rows * k + cols, np.arange(k) * (k + 1)


def _wishart_factor(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Draw L (d x min(d, n)) with ``L L^T`` distributed as ``X X^T``, without X.

    X has n i.i.d. N(0, I/d) columns.  Bartlett decomposition: ``L = A / sqrt(d)``
    with A lower-trapezoidal, N(0, 1) strictly below the diagonal and
    ``A_ii = sqrt(chi2(n - i))`` on it; only the nonzero entries are drawn.
    For n < d, L has n columns and ``L L^T`` has rank n, as ``X X^T`` does.
    """
    k = min(d, n)
    lower, diagonal = _bartlett_slots(d, k)
    scale = 1.0 / math.sqrt(d)
    L = np.zeros(d * k)
    L[lower] = rng.standard_normal(lower.size) * scale
    L[diagonal] = np.sqrt(rng.chisquare(n - np.arange(k))) * scale
    return L.reshape(d, k)


def _solve_regularized_gram(gram: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (gram + lam I) Z = rhs; gram must be symmetric PSD.

    A Cholesky factorization is the positive-definiteness check; the solve
    itself is LAPACK's ``gesv``.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    a = 0.5 * (gram + gram.T)
    if lam == 0.0:
        cond = np.linalg.cond(a)
        if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
            raise SingularSystemError(
                f"Gram matrix is singular at lam=0 (condition number {cond:.3e} "
                f">= {CONDITION_LIMIT:.0e}); use lam > 0"
            )
    else:
        a[np.diag_indices_from(a)] += lam
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"Gram matrix not positive definite at lam={lam}"
        ) from exc
    return np.linalg.solve(a, rhs)


def ridge_fit(W: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Readout weights minimizing ||(W X)^T beta - y||^2 + lam ||beta||^2.

    Solves the normal equations (W X X^T W^T + lam I) beta = W X y.  With
    ``lam = 0`` the Gram matrix must pass the conditioning check, otherwise
    :class:`SingularSystemError` is raised.
    """
    features = W @ X
    gram = features @ features.T
    return _solve_regularized_gram(gram, features @ y, lam)


def _m_from_gram(W: np.ndarray, second_moment: np.ndarray, lam: float) -> np.ndarray:
    ws = W @ second_moment
    return W.T @ _solve_regularized_gram(ws @ W.T, ws, lam)


def _m_from_factor(W: np.ndarray, L: np.ndarray, lam: float) -> np.ndarray:
    """``_m_from_gram(W, L L^T, lam)`` through the smaller of two ridge systems.

    With ``B = W L`` (p x k), ``M = W^T (B B^T + lam I_p)^-1 B L^T``.  For
    p > k the push-through identity ``(B B^T + lam I)^-1 B = B (B^T B +
    lam I)^-1`` turns this into ``M = (W^T B) (B^T B + lam I_k)^-1 L^T``.
    """
    p, k = W.shape[0], L.shape[1]
    B = W @ L
    if p <= k:
        return W.T @ (_solve_regularized_gram(B @ B.T, B, lam) @ L.T)
    if lam == 0.0:
        raise SingularSystemError(
            f"Gram matrix is singular at lam=0 (rank <= {k} < p = {p}); use lam > 0"
        )
    return (W.T @ B) @ _solve_regularized_gram(B.T @ B, L.T, lam)


def m_matrix(W: np.ndarray, X: np.ndarray, lam: float) -> np.ndarray:
    """The d x d map M with ``x^T M theta`` equal to the fitted prediction.

    M = W^T (W X X^T W^T + lam I)^-1 W X X^T.  For any (x, theta) and
    ``y = X^T theta``, ``x^T M theta == x^T W^T ridge_fit(W, X, y, lam)``.
    """
    return _m_from_gram(W, X @ X.T, lam)


def m_tilde(W: np.ndarray, lambda0: float) -> np.ndarray:
    """Data-free limit map ``W^T (W W^T + lambda0 I)^-1 W``.

    Equals ``I - (I + W^T W / lambda0)^-1``; its eigenvalues are
    ``s^2 / (s^2 + lambda0)`` over the singular values ``s`` of W and lie in
    [0, 1).  Requires ``lambda0 > 0``.
    """
    if lambda0 <= 0.0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    return W.T @ _solve_regularized_gram(W @ W.T, W, lambda0)


def mc_bias_variance(dims: ModelDims, trials: int, master_seed: int) -> BiasVarianceRisk:
    """Monte Carlo bias/variance/risk over fresh (W, X) draws.

    Each trial draws W, then a factor L of the second moment ``S = X X^T``
    straight from its Wishart law (see :func:`_wishart_factor`), and solves
    the smaller ridge system (see :func:`_m_from_factor`).  Accumulates the
    running mean of M, of ``tr(M)`` and of ``||M||_F^2`` in trial-index
    order (trial ``t`` uses the RNG stream derived from
    ``(master_seed, t)``), then forms

        bias_sq  = ||mean M - I||^2 / d
        variance = (mean ||M||^2 - ||mean M||^2) / d
        risk     = (mean ||M||^2 - 2 mean tr(M) + d) / d

    so that ``risk == bias_sq + variance`` holds as the exact algebraic
    identity of the empirical decomposition.

    Raises:
        ValueError: if ``trials < 2`` (the variance is undefined).
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    d = dims.d
    lam = dims.lam
    scale = 1.0 / math.sqrt(d)
    m_sum = np.zeros((d, d))
    sq_sum = 0.0
    trace_sum = 0.0
    for t in range(trials):
        rng = spawn_rng(master_seed, t)
        W = rng.standard_normal((dims.p, d)) * scale
        M = _m_from_factor(W, _wishart_factor(rng, d, dims.n), lam)
        m_sum += M
        sq_sum += float(np.vdot(M, M))
        trace_sum += float(np.trace(M))
    m_mean = m_sum / trials
    sq_mean = sq_sum / trials
    trace_mean = trace_sum / trials
    centered = m_mean - np.eye(d)
    bias_sq = float(np.vdot(centered, centered)) / d
    # Guard the subtraction form against a -1 ulp result when all trials agree.
    variance = max((sq_mean - float(np.vdot(m_mean, m_mean))) / d, 0.0)
    risk = (sq_mean - 2.0 * trace_mean + d) / d
    return BiasVarianceRisk(bias_sq=bias_sq, variance=variance, risk=risk)


def mc_risk_mtilde(d: int, p: int, lambda0: float, trials: int, master_seed: int) -> float:
    """Monte Carlo estimate of ``E ||Mtilde - I||_F^2 / d`` over W draws.

    Uses the spectral identity ``||Mtilde - I||_F^2 = sum_i 1/(1 + mu_i /
    lambda0)^2`` with ``mu_i`` the eigenvalues of ``W^T W`` (equal to the
    direct Frobenius norm of ``m_tilde(W, lambda0) - I``); converges to
    ``mp_risk(lambda0, d/p)`` as d grows.  When p < d the nonzero ``mu_i``
    come from the smaller p x p Gram ``W W^T`` and the other d - p
    eigenvalues, all zero, add 1 each.
    """
    if lambda0 <= 0.0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if d < 1 or p < 1:
        raise ValueError(f"d and p must be positive, got d={d}, p={p}")
    scale = 1.0 / math.sqrt(d)
    total = 0.0
    for t in range(trials):
        rng = spawn_rng(master_seed, t)
        W = rng.standard_normal((p, d)) * scale
        gram = W @ W.T if p < d else W.T @ W
        mu = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        total += (float(np.sum(1.0 / (1.0 + mu / lambda0) ** 2)) + max(d - p, 0)) / d
    return total / trials

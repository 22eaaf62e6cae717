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

For any orthogonal O, ``W -> W O^T`` and ``X -> O X`` leave both laws
unchanged and send M to ``O M O^T``, so ``E M = c I`` with ``c = E tr(M) / d``.
Hence ``bias_sq = (1 - E tr(M) / d)^2`` and each draw needs only the two
scalars ``tr(M)`` and ``||M||^2``.

M depends on the data only through the second moment ``S = X X^T``, which
follows the Wishart law ``W_d(n, I/d)``, and on W only through ``W^T W``
(push-through: ``M = W^T W (S W^T W + lam I)^-1 S``).  Each Monte Carlo
trial therefore draws neither W nor X, only lower-trapezoidal Bartlett
factors (Bartlett 1933; Odell & Feiveson 1966): the normals below the
diagonal and chi-square draws on it (see ``_wishart_factor``).  For the
first layer, with p <= d, ``W = [T 0] Q`` where T is the p x p factor of
``W W^T ~ W_p(d, I/d)`` and Q is Haar-orthogonal and independent of T; S
is rotation-invariant, so Q is absorbed into it and ``[T 0]`` stands in for
W.  With p > d, ``W^T W ~ W_d(p, I/d) = R R^T`` and the d x d ``R^T``
stands in for W.  For the data, the stand-in reads only S's first min(p, d)
rows, which the first ``k = min(p, d, n)`` columns of S's d x min(d, n)
factor L fix (``S = L L^T``; n < d gives the singular Wishart law by the
same construction), so only those are drawn.  None of this changes the
joint law of ``(||M||^2, tr M)``.  With ``B = W L``, M is ``W^T (B B^T +
lam I)^-1 B L^T``, or by the push-through identity ``(W^T B) (B^T B + lam
I)^-1 L^T``, whichever system is smaller.
The inner expectations over (x, theta) are already integrated out, which
cuts both cost and estimator noise.  The data-free limit matrix
``Mtilde = W^T (W W^T + lambda0 I)^-1 W`` is also provided, together with a
Monte Carlo estimate of its risk for comparison against the closed-form
spectral average.  That estimate never forms W: the nonzero spectrum of
``W W^T`` has the law of ``B B^T`` for an m x m bidiagonal B with chi
entries, ``m = min(p, d)`` (Dumitriu & Edelman 2002, "Matrix models for beta
ensembles"), and the ridge trace each trial needs follows from the twisted
LDL^T factorization of the tridiagonal ``B B^T`` in O(m) scalar steps.

A Monte Carlo trial's ridge system is min(p, d, n) x min(p, d, n) and is
factored once: LAPACK's Cholesky factorization (which also finds a system
that is not positive definite) and the inverse of its triangular factor,
both from the OpenBLAS that NumPy bundles (see :mod:`bvlab._blas`), then
matrix products only.  ``m_matrix``, ``ridge_fit`` and ``m_tilde`` keep
the p x p system on ``X X^T`` solved by NumPy's ``solve`` as the direct
reference.  Every BLAS/LAPACK call runs in NumPy's one runtime
(``mc_risk_mtilde`` makes none).
Trials own disjoint RNG streams derived from the master seed and are reduced
in fixed trial-index order, so results are bit-reproducible for a fixed
NumPy build regardless of how trials are scheduled.  ``mc_bias_variance``
uses that (see :func:`bvlab._workers.run_timed`).  Once the long-lived
worker processes of :mod:`bvlab._workers` run, one per CPU of the affinity
mask beyond the first, each call is cut at once into one contiguous block
of trials per CPU; this process runs the first block and then, itself, every
block that no worker has begun.  Before that, its first trials run here and
are timed, and the rest are cut into blocks over workers, which that split
forks, only once their measured work also pays for the forks: about three
times ``_workers.MIN_SPLIT_US``, 15 ms, for the first.  Every block,
split or not, runs on one BLAS thread (``np.vdot`` sums in one part per
BLAS thread above 10,000 entries) and returns its per-trial values, which
this process sums in trial order, so the result has the same bits at any
number of processes (``taskset -c 0`` keeps a run in one process).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _workers
from ._blas import inverse_cholesky
from .seeding import spawn_rng
from .theory import BiasVarianceRisk, _require_positive

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


def _require_positive_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ModelDims:
    """Problem dimensions (input d, samples n, width p) plus ridge strength.

    ``lam`` is the ridge actually applied to the fit, ``(n/d) * lambda0``;
    ``gamma = p/d`` is the width ratio of the closed-form limits.
    """

    d: int
    n: int
    p: int
    lambda0: float

    def __post_init__(self) -> None:
        for name in ("d", "n", "p"):
            _require_positive_int(name, getattr(self, name))
        _require_positive(lambda0=self.lambda0, zero_ok=True)
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda0={self.lambda0!r} overflows the ridge (n/d) * lambda0 "
                             f"at n/d={self.n / self.d!r}")

    def require_regular(self) -> None:
        """Raise :class:`SingularSystemError` at lam = 0 with p > min(d, n),
        where W's p x p ridge system has rank at most min(d, n)."""
        if self.lam == 0.0 and self.p > min(self.d, self.n):
            raise _rank_deficient(min(self.d, self.n), self.p)

    @property
    def gamma(self) -> float:
        return self.p / self.d

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


def _wishart_factor(
    rng: np.random.Generator, d: int, n: int, k: int | None = None, scale: float | None = None
) -> np.ndarray:
    """Draw L (d x k) with ``L L^T`` distributed as ``X X^T``, without X.

    X has n i.i.d. N(0, scale^2 I) columns, ``scale = 1/sqrt(d)`` by default.
    Bartlett decomposition: ``L = scale * A`` with A lower-trapezoidal,
    N(0, 1) strictly below the diagonal and ``A_ii = sqrt(chi2(n - i))`` on
    it; only the nonzero entries are drawn.  For n < d, the full factor has
    n columns and ``L L^T`` has rank n, as ``X X^T`` does.  ``k <= min(d,
    n)`` (default ``min(d, n)``) keeps only the first k columns, which fix
    the first k rows of ``L L^T``; they are drawn exactly as in the full
    factor.
    """
    k = min(d, n) if k is None else k
    scale = 1.0 / math.sqrt(d) if scale is None else scale
    lower, diagonal = _bartlett_slots(d, k)
    L = np.zeros(d * k)
    L[lower] = rng.standard_normal(lower.size) * scale
    L[diagonal] = np.sqrt(rng.chisquare(n - np.arange(k))) * scale
    return L.reshape(d, k)


def _first_layer(rng: np.random.Generator, p: int, d: int) -> np.ndarray:
    """A stand-in for W (p x d, N(0, 1/d) entries) drawn from W's Gram factor.

    p <= d: the p x d ``[T 0]``, T the Bartlett factor of ``W W^T ~ W_p(d,
    I/d)``; p > d: the d x d ``R^T`` with ``R R^T = W^T W ~ W_d(p, I/d)``.
    Either leaves the law of ``(||M||^2, tr M)`` unchanged (see the module
    docstring); ``R^T``'s ridge system is regular even where W's is not.
    """
    if p > d:
        return _wishart_factor(rng, d, p).T
    W = np.zeros((p, d))
    W[:, :p] = _wishart_factor(rng, p, d, scale=1.0 / math.sqrt(d))
    return W


def _factor_regularized(
    gram: np.ndarray, lam: float, factor: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``factor(gram + lam I)``; lam is added to ``gram``'s diagonal in place.

    Checks lam, and at lam = 0 that gram clears ``CONDITION_LIMIT``; a
    ``LinAlgError`` from ``factor`` (not positive definite) becomes a
    :class:`SingularSystemError`.
    """
    _require_positive(lam=lam, zero_ok=True)
    if lam == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
            raise SingularSystemError(
                f"Gram matrix is singular at lam=0 (condition number {cond:.3e} "
                f">= {CONDITION_LIMIT:.0e}); use lam > 0"
            )
    else:
        gram.flat[::gram.shape[0] + 1] += lam  # the diagonal
    try:
        return factor(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"Gram matrix not positive definite at lam={lam}"
        ) from exc


def _solve_regularized_gram(gram: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """Solve (gram + lam I) Z = rhs; gram must be symmetric PSD.

    The direct reference route: gram is symmetrized, a Cholesky
    factorization is the positive-definiteness check, and the solve itself
    is LAPACK's ``gesv``, independent of the trials' route.
    """
    a = gram + gram.T
    a *= 0.5
    _factor_regularized(a, lam, np.linalg.cholesky)
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


def _rank_deficient(rank: int, p: int) -> SingularSystemError:
    return SingularSystemError(
        f"Gram matrix is singular at lam=0 (rank <= {rank} < p = {p}); use lam > 0"
    )


def _m_from_factor(W: np.ndarray, L: np.ndarray, lam: float) -> np.ndarray:
    """``_m_from_gram(W, L L^T, lam)`` through the smaller of two ridge systems.

    With ``B = W L`` (p x k), ``M = W^T G^-1 B L^T`` for ``G = B B^T + lam
    I_p``.  G is factored once: ``K = C^-1`` for its Cholesky factor C
    (:func:`bvlab._blas.inverse_cholesky`), so ``G^-1 = K^T K`` and ``M =
    (K W)^T ((K B) L^T)`` takes matrix products only.  For p > k the
    push-through identity ``(B B^T + lam I)^-1 B = B (B^T B + lam I)^-1``
    puts M on the k x k ``G = B^T B + lam I_k``: ``M = (K B^T W)^T (K L^T)``.
    """
    p, k = W.shape[0], L.shape[1]
    B = W @ L
    if p <= k:
        K = _factor_regularized(B @ B.T, lam, inverse_cholesky)
        return (K @ W).T @ ((K @ B) @ L.T)
    if lam == 0.0:
        raise _rank_deficient(k, p)
    K = _factor_regularized(B.T @ B, lam, inverse_cholesky)
    return (K @ (B.T @ W)).T @ (K @ L.T)


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
    [0, 1).  Requires a finite ``lambda0 > 0``.
    """
    _require_positive(lambda0=lambda0)
    return W.T @ _solve_regularized_gram(W @ W.T, W, lambda0)


def _bias_variance_trials(
    lo: int, hi: int, dims: ModelDims, master_seed: int
) -> list[tuple[float, float]]:
    """``(||M||_F^2, tr M)`` of trials ``lo..hi-1`` of :func:`mc_bias_variance`."""
    d, n, p = dims.d, dims.n, dims.p
    k = min(d, n, p)  # columns of X X^T's factor that M reads
    stats = []
    for t in range(lo, hi):
        rng = spawn_rng(master_seed, t)
        W = _first_layer(rng, p, d)
        M = _m_from_factor(W, _wishart_factor(rng, d, n, k), dims.lam)
        stats.append((float(np.vdot(M, M)), float(np.trace(M))))
    return stats


def mc_bias_variance(dims: ModelDims, trials: int, master_seed: int) -> BiasVarianceRisk:
    """Monte Carlo bias/variance/risk over fresh (W, X) draws.

    Each trial draws a stand-in for W from the Bartlett factor of W's Gram
    matrix (see :func:`_first_layer`), then the columns of a factor L of the
    second moment ``S = X X^T`` that it reads, straight from their Wishart
    law (see :func:`_wishart_factor`), and solves the smaller ridge system
    (see :func:`_m_from_factor`).  At d = 64, n = 6400 that is 504, 4,032
    and 4,032 normals for p = 8, 64 and 128, against 2,528, 6,112 and
    10,208 for W and the full L.  Sums ``tr(M)``
    and ``||M||_F^2`` in trial-index order (trial ``t`` uses the RNG stream
    derived from ``(master_seed, t)``), then forms

        risk     = (mean ||M||^2 - 2 mean tr(M) + d) / d
        bias_sq  = (1 - mean tr(M) / d)^2
        variance = risk - bias_sq = mean ||M||^2 / d - (mean tr(M) / d)^2.

    Since ``E M = c I`` (see the module docstring), this bias estimate uses
    the exact form of ``E M`` instead of the sample mean of M, whose
    ``||mean M - I||^2 / d`` reads the bias high, and the variance low, by
    variance / trials.  The variance is nonnegative: ``||M||^2 >= tr(M)^2 / d``
    for each trial (Cauchy-Schwarz), then Jensen over the trials.  A call
    splits its trials over processes once the worker pool runs, and a long
    one before that (see the module docstring), with the same result.

    Raises:
        ValueError: if ``trials`` is not an integer >= 2 (the variance is
            undefined for one trial).
        SingularSystemError: at lam = 0 with p > min(d, n), before any trial
            (the stand-in's system is regular where W's is not), else the
            first trial whose system is singular.
        RuntimeError: a worker process died.
    """
    _require_positive_int("trials", trials)
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    d = dims.d
    dims.require_regular()  # the trials' stand-in hides it: R^T's system is regular
    blocks = _workers.run_timed(_bias_variance_trials, trials, dims, master_seed)
    sq_sum = 0.0
    trace_sum = 0.0
    for block in blocks:  # in trial order, as one loop over the trials would
        for sq, trace in block:
            sq_sum += sq
            trace_sum += trace
    sq_mean = sq_sum / trials
    trace_mean = trace_sum / trials
    risk = (sq_mean - 2.0 * trace_mean + d) / d
    bias_sq = (1.0 - trace_mean / d) ** 2
    # risk - bias_sq = mean ||M||^2 / d - (mean tr(M) / d)^2 >= 0 up to rounding.
    variance = max(risk - bias_sq, 0.0)
    return BiasVarianceRisk(bias_sq=bias_sq, variance=variance, risk=risk)


@functools.lru_cache(maxsize=None)
def _laguerre_degrees(m: int, n: int) -> np.ndarray:
    """Chi-square degrees of freedom: n - i on the diagonal, m - 1 - i below it."""
    degrees = np.concatenate([n - np.arange(m), m - 1 - np.arange(m - 1)]).astype(np.float64)
    degrees.setflags(write=False)  # shared by every caller through the cache
    return degrees


def _laguerre_bidiagonal(
    rng: np.random.Generator, p: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the diagonal and subdiagonal of an m x m lower-bidiagonal ``B / sqrt(d)``.

    With ``m = min(p, d)`` and ``n = max(p, d)``, ``a_i = sqrt(chi2(n - i) / d)``
    (i < m) and ``b_i = sqrt(chi2(m - 1 - i) / d)`` (i < m - 1, entry (i + 1, i)).
    ``B B^T / d`` has the law of the nonzero spectrum of ``W W^T`` for a p x d
    W with N(0, 1/d) entries (Dumitriu & Edelman 2002, arXiv:math-ph/0206043,
    beta = 1): 2m - 1 chi-square draws instead of p * d normals.
    """
    m = min(p, d)
    entries = np.sqrt(rng.chisquare(_laguerre_degrees(m, max(p, d))) / d)
    return entries[:m], entries[m:]


def _ridge_trace_sq(a: np.ndarray, b: np.ndarray, lambda0: float) -> float:
    """``tr((I + T / lambda0)^-2)`` for ``T = B B^T``, B lower bidiagonal (a, b).

    T is tridiagonal with diagonal ``c_i + e_{i-1}`` and off-diagonal
    ``a_i b_i`` (``c = a^2``, ``e = b^2``).  With ``A(s) = s I + T``, the sum
    is ``s^2 tr(A^-2) = sum_i s^2 gamma_i' / gamma_i^2`` at ``s = lambda0``,
    where ``gamma_i = 1 / (A^-1)_ii`` and ``tr(A^-2) = -d/ds tr(A^-1)``.  The
    twisted factorization gives ``gamma_i = s + F_i + G_i`` from the forward
    LDL^T pivots ``f_i + c_i`` and the backward ones ``g_i + e_{i-1}``:

        f_i = s + F_i,  F_i = e_{i-1} f_{i-1} / (f_{i-1} + c_{i-1}),  F_0 = 0
        g_i = s + G_i,  G_i = c_i g_{i+1} / (g_{i+1} + e_i),  G_{m-1} = c_{m-1}

    and their s-derivatives ``F_i' = e_{i-1} c_{i-1} f_{i-1}' / (f_{i-1} +
    c_{i-1})^2`` and ``G_i' = c_i e_i g_{i+1}' / (g_{i+1} + e_i)^2``.  Every
    term is a positive sum, product or ratio, so nothing cancels.  T is used
    unscaled and ``s / gamma_i`` lies in (0, 1], so no lambda0 > 0 overflows:
    tiny lambda0 drives each term to 0 and huge lambda0 drives it to 1, the
    limits of ``1 / (1 + mu_i / lambda0)^2``.  O(m) scalar steps.
    """
    c = (a * a).tolist()
    e = (b * b).tolist()
    s = lambda0
    forward = [(0.0, 0.0)]
    f, df = s, 1.0
    for ci, ei in zip(c, e):
        r = f + ci
        ratio = ei / r
        F = ratio * f
        dF = ratio * ci * df / r
        forward.append((F, dF))
        f, df = s + F, 1.0 + dF
    # Row i adds its term, then steps G from i to i - 1 with (c, e)_{i-1}.
    G, dG = c[-1], 0.0
    total = 0.0
    for (F, dF), ci, ei in zip(reversed(forward), reversed([0.0] + c[:-1]), reversed([0.0] + e)):
        q = s / (s + F + G)
        total += (1.0 + dF + dG) * q * q
        g = s + G
        r = g + ei
        ratio = ci / r
        dG = ratio * ei * (1.0 + dG) / r
        G = ratio * g
    return total


def mc_risk_mtilde(d: int, p: int, lambda0: float, trials: int, master_seed: int) -> float:
    """Monte Carlo estimate of ``E ||Mtilde - I||_F^2 / d`` over W draws.

    Uses the spectral identity ``||Mtilde - I||_F^2 = sum_i 1/(1 + mu_i /
    lambda0)^2`` with ``mu_i`` the eigenvalues of ``W^T W`` (equal to the
    direct Frobenius norm of ``m_tilde(W, lambda0) - I``); converges to
    ``mp_risk(lambda0, d/p)`` as d grows.  Trial ``t`` draws, from the stream
    of ``(master_seed, t)``, the m x m bidiagonal B whose ``B B^T`` carries
    the law of the ``m = min(p, d)`` nonzero ``mu_i`` (Dumitriu & Edelman
    2002; see :func:`_laguerre_bidiagonal`), sums over them in O(m) by the
    twisted-factorization recurrence of :func:`_ridge_trace_sq`, and adds 1
    for each of the other d - m eigenvalues, all zero.  No W is drawn and no
    BLAS or LAPACK routine runs.  Trials are reduced in trial-index order.

    Raises:
        ValueError: if d, p or trials is not a positive integer, or lambda0
            is not finite and positive.
    """
    for name, value in (("d", d), ("p", p), ("trials", trials)):
        _require_positive_int(name, value)
    _require_positive(lambda0=lambda0)
    zeros = d - min(p, d)
    total = 0.0
    for t in range(trials):
        a, b = _laguerre_bidiagonal(spawn_rng(master_seed, t), p, d)
        total += (_ridge_trace_sq(a, b, lambda0) + zeros) / d
    return total / trials

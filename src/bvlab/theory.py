"""Closed-form asymptotics for the two-layer linear network.

For a network with random frozen first layer (width ``p``, input dimension
``d``) fitted by ridge regression on ``n`` samples, the expected squared
bias, variance and risk converge, as ``d -> infinity`` with ``p/d -> gamma``
and ``n/d -> infinity`` under the scaling ``lambda = (n/d) * lambda0``, to
functions of ``(lambda0, gamma)`` alone.  This module evaluates those limits
plus several independent routes to the same quantities: the spectral-average
(Marchenko-Pastur) form of the risk, the combinatorial (Narayana-number)
series for the bias, the derivative of the bias, and the location of the
variance peak.

All functions are pure; concurrent use is unrestricted.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "BiasVarianceRisk",
    "PeakSearchError",
    "closed_form",
    "theory_point",
    "bias_derivative",
    "small_lambda_expansion",
    "variance_peak",
    "narayana",
    "NarayanaSeriesSum",
    "narayana_series",
    "narayana_series_closed",
    "mp_risk",
]


class PeakSearchError(RuntimeError):
    """The variance curve did not present a single interior maximum."""


def _require_positive(*, zero_ok: bool = False, **values: float) -> None:
    """Raise a ValueError naming the first of ``values`` that is not finite
    and positive (finite and nonnegative when ``zero_ok``)."""
    for name, value in values.items():
        if not (math.isfinite(value) and (value > 0.0 or zero_ok and value == 0.0)):
            rule = "nonnegative" if zero_ok else "positive"
            raise ValueError(f"{name} must be finite and {rule}, got {value}")


class BiasVarianceRisk(NamedTuple):
    """Squared bias, variance and risk, as a limit or a Monte Carlo estimate."""

    bias_sq: float
    variance: float
    risk: float


# Arguments in [_TINY, _HUGE] keep every float intermediate of the closed
# forms a normal double, so their values keep relative precision.  Beyond,
# a square overflows or a product underflows; there the same expressions are
# taken in decimals whose exponents no double reaches, then rounded.
_TINY, _HUGE = 1e-150, 1e150


def _in_range(lambda0, x):
    """Whether ``lambda0`` is in ``[_TINY, _HUGE]``, or 0 (which
    :func:`bias_derivative` takes, and which no product underflows from),
    and ``x`` is in ``[_TINY, _HUGE]``; elementwise on arrays."""
    return ((lambda0 == 0.0) | (_TINY <= lambda0) & (lambda0 <= _HUGE)) & (
        (_TINY <= x) & (x <= _HUGE))


def _evaluate(fn: Callable, lambda0: float, x: float):
    """``fn(lambda0, x)`` as floats, or a tuple of them, taken on floats
    where :func:`_in_range` holds and on 34-digit decimals elsewhere."""
    if _in_range(lambda0, x):
        return fn(float(lambda0), float(x))
    import decimal  # here only: importing it costs about 1 ms of set-up

    # No traps: a NaN or infinite argument of closed_form gives NaN, as on floats.
    wide = decimal.Context(prec=34, Emin=-99_999, Emax=99_999, traps=[])
    with decimal.localcontext(wide):
        value = fn(decimal.Decimal(lambda0), decimal.Decimal(x))
    return tuple(map(float, value)) if isinstance(value, tuple) else float(value)


def _sqrt(x):
    """Correctly rounded on floats, arrays and decimals alike (``** 0.5`` is
    not on floats); ``math.sqrt`` gives a float the bits ``np.sqrt`` gives."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def closed_form(lambda0: float | np.ndarray, gamma: float | np.ndarray) -> tuple:
    """``(bias_sq, variance, risk, phi2, phi3)`` at ``(lambda0, gamma)``.

    Takes Python floats or broadcastable float arrays alike and evaluates
    the same operations on both, so a grid evaluated as arrays agrees with
    :func:`theory_point` bit for bit.  Arguments are not validated: the
    domain is ``lambda0 > 0`` and ``gamma > 0`` (``phi2`` and ``phi3`` also
    stay finite at ``lambda0 = 0`` for ``gamma != 1``).  Beyond about 1e150
    and below about 1e-150 the values are taken in wide-range decimals, so
    they stay finite and accurate to the last places of a double.

    With ``u = (gamma - 1) + lambda0``, ``v = gamma + lambda0`` and
    ``q = u*v + 2*lambda0``, every subtraction below is of terms with
    opposite signs, so each value is accurate to relative precision:

    * ``phi2 = sqrt(u^2 + 4*lambda0)``;
    * ``phi3 = phi2 - u``, taken as ``4*lambda0 / (phi2 + u)`` when
      ``u > 0``;
    * ``variance = phi3 * D / (4*phi2)`` with ``D = phi2*v - q``, taken as
      ``4*lambda0*gamma / (phi2*v + q)`` when ``q > 0``.

    Each choice is made by multiplying both candidates by a comparison
    (``True`` and ``False`` act as 1 and 0), which works unchanged on floats,
    arrays and decimals; both candidates are finite on the domain, so the
    product with 0 is exactly 0.
    """
    if isinstance(lambda0, np.ndarray) or isinstance(gamma, np.ndarray):
        lambda0, gamma = np.broadcast_arrays(np.asarray(lambda0, float), np.asarray(gamma, float))
        if _in_range(lambda0, gamma).all():
            parts = _closed_form(lambda0, gamma)
        else:  # point by point, each as the scalar path takes it
            points = [_evaluate(_closed_form, *pair) for pair in zip(lambda0.flat, gamma.flat)]
            parts = [np.reshape(part, lambda0.shape) for part in zip(*points)]
    else:
        parts = _evaluate(_closed_form, lambda0, gamma)
    bias_sq, variance, phi2, phi3 = parts
    return bias_sq, variance, bias_sq + variance, phi2, phi3


def _closed_form(lambda0, gamma) -> tuple:
    """``(bias_sq, variance, phi2, phi3)``, as :func:`closed_form` describes."""
    u = (gamma - 1) + lambda0
    v = gamma + lambda0
    q = u * v + 2 * lambda0
    c = 4 * lambda0
    phi2 = _sqrt(u * u + c)
    w = phi2 + abs(u)
    phi3 = c * (u > 0) / w + w * (u <= 0)
    z = phi2 * v + abs(q)
    d = c * gamma * (q > 0) / z + z * (q <= 0)
    h = phi3 / 4
    return h * phi3, h * d / phi2, phi2, phi3


def theory_point(lambda0: float, gamma: float) -> BiasVarianceRisk:
    """The limiting decomposition at ``(lambda0, gamma)``.

    The squared bias is ``phi3^2 / 4`` and the variance is
    ``phi3 * D / (4 * phi2)`` with ``D = 4*lambda0*gamma / (phi2*v + q)``,
    ``v = gamma + lambda0``, ``q = (gamma + lambda0 - 1)*v + 2*lambda0``
    (see :func:`closed_form`); the risk is their sum, equal to
    ``(lambda0*(gamma + 1) + (gamma - 1)^2) / (2 * phi2) + (1 - gamma) / 2``
    on both sides of ``gamma = 1``.  The type is that of the Monte Carlo
    estimate :func:`bvlab.twolayer.mc_bias_variance`.

    Args:
        lambda0: ridge strength before the ``n/d`` rescaling; must be > 0.
        gamma: width-to-dimension ratio ``p/d``; must be > 0.  The limits
            as ``gamma -> 0+`` are bias 1, variance 0.

    Raises:
        ValueError: if either argument is not finite and positive.
    """
    _require_positive(lambda0=lambda0, gamma=gamma)
    return BiasVarianceRisk(*closed_form(lambda0, gamma)[:3])


def bias_derivative(lambda0: float, gamma: float) -> float:
    """d(bias_sq)/d(gamma); nonpositive for every ``lambda0 >= 0``.

    Equals ``-phi3(lambda0, gamma)^2 / (2 * phi2(lambda0, gamma))``, which is
    also the closed form of the derivative of ``theory_point(...).bias_sq``.
    ``lambda0 = 0`` is allowed here (the expression stays finite); at
    ``(0, 1)``, where it is 0/0, the limit 0 is returned.
    """
    _require_positive(lambda0=lambda0, zero_ok=True)
    _require_positive(gamma=gamma)
    if lambda0 == 0.0 and gamma == 1.0:
        # phi2 = phi3 = 0 only here, and phi3^2 / phi2 <= 4 phi2 -> 0.
        return 0.0
    return _evaluate(_bias_derivative, lambda0, gamma)


def _bias_derivative(lambda0, gamma):
    *_, p2, p3 = _closed_form(lambda0, gamma)
    return -(p3 * p3) / (2 * p2)


def small_lambda_expansion(lambda0: float, gamma: float) -> tuple[float, float]:
    """First-order-in-``lambda0`` variance and risk.

    For ``gamma <= 1`` the variance is ``gamma*(1-gamma) - 2*gamma*lambda0``
    up to O(lambda0^2) and the risk is ``1 - gamma``; for ``gamma > 1`` both
    are O(lambda0^2), returned as 0.  The quadratic error constant degrades
    near ``gamma = 1`` (see tests for the calibrated region).
    """
    _require_positive(lambda0=lambda0, gamma=gamma)
    if gamma > 1.0:
        return 0.0, 0.0
    return gamma * (1.0 - gamma) - 2.0 * gamma * lambda0, 1.0 - gamma


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0     # 0.618...
_SCAN_POINTS = 1000
_SCAN_GRID = tuple(2.0 * (i + 1) / _SCAN_POINTS for i in range(_SCAN_POINTS))
_DIFF_NOISE = 1e-13
_PEAK_TOL = 1e-6


def variance_peak(lambda0: float) -> float:
    """Width ratio at which the limiting variance attains its maximum.

    A coarse scan over ``(0, 2]``, one :func:`closed_form` array call,
    brackets the maximum (and verifies that the scanned curve rises and falls
    exactly once), then golden-section search refines the bracket to 1e-6.

    Raises:
        PeakSearchError: if the scan does not show a single interior
            maximum, which would contradict the unimodal variance shape.
    """
    _require_positive(lambda0=lambda0)
    grid = _SCAN_GRID
    _, values, *_ = closed_form(lambda0, np.asarray(grid))
    diffs = np.diff(values)
    signs = np.sign(diffs[np.abs(diffs) > _DIFF_NOISE])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if changes != 1 or signs[0] != 1.0 or signs[-1] != -1.0:
        raise PeakSearchError(
            f"variance scan at lambda0={lambda0} is not unimodal "
            f"({changes} sign changes)"
        )
    top = int(np.argmax(values))
    lo = grid[top - 1] if top > 0 else grid[0] / 2.0
    hi = grid[top + 1] if top + 1 < len(grid) else grid[-1]
    while hi - lo > _PEAK_TOL:
        m1 = hi - (hi - lo) * _INV_GOLDEN
        m2 = lo + (hi - lo) * _INV_GOLDEN
        if theory_point(lambda0, m1).variance < theory_point(lambda0, m2).variance:
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def narayana(m: int, k: int) -> int:
    """Narayana number N(m, k) = C(m-1, k-1) * C(m, k-1) / k, exactly.

    Counts non-crossing partitions of an m-set with k blocks; each row sums
    to the m-th Catalan number.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    return math.comb(m - 1, k - 1) * math.comb(m, k - 1) // k


class NarayanaSeriesSum(NamedTuple):
    """Truncated series value plus whether the truncation bound applies."""

    partial_sum: float
    converged: bool


def _series_converges(lambda0: float, eta: float) -> bool:
    return (1.0 / lambda0) * (1.0 + 1.0 / math.sqrt(eta)) ** 2 < 1.0


def narayana_series(lambda0: float, eta: float, m_max: int) -> NarayanaSeriesSum:
    """Partial sum of sum_{m>=1} sum_{k=1..m} N(m,k) (-1/lambda0)^m eta^-k.

    The series converges geometrically when
    ``(1/lambda0) * (1 + 1/sqrt(eta))^2 < 1``; outside that region the
    partial sum is still returned but flagged ``converged=False``.

    Args:
        m_max: truncation order; must be >= 1.
    """
    _require_positive(lambda0=lambda0, eta=eta)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    z = -1.0 / lambda0
    t = 1.0 / eta
    total = 0.0
    z_pow = 1.0
    for m in range(1, m_max + 1):
        z_pow *= z
        inner = 0.0
        t_pow = 1.0
        for k in range(1, m + 1):
            t_pow *= t
            inner += narayana(m, k) * t_pow
        total += z_pow * inner
    return NarayanaSeriesSum(total, _series_converges(lambda0, eta))


def narayana_series_closed(lambda0: float, eta: float) -> float:
    """Closed form of the full Narayana series.

    Algebraically ``-(lambda0*eta + 1 + eta - sqrt(D)) / (2*eta)`` with
    ``D = (lambda0*eta)^2 + 2*lambda0*eta*(1+eta) + (1-eta)^2``; evaluated in
    the rationalized form ``-2 / (lambda0*eta + 1 + eta + sqrt(D))`` to avoid
    the cancellation of the direct form for large ``lambda0*eta``.  Satisfies
    ``(1 + S)^2 == theory_point(lambda0, 1/eta).bias_sq``.
    """
    _require_positive(lambda0=lambda0, eta=eta)
    le = lambda0 * eta
    disc = le * le + 2.0 * le * (1.0 + eta) + (1.0 - eta) ** 2
    return -2.0 / (le + 1.0 + eta + math.sqrt(disc))


def _spectral_mean_inverse_square(alpha: float, eta: float, gap: float) -> float:
    """E[1 / (1 + (alpha/eta)x)^2] under the Marchenko-Pastur law of ratio eta <= 1.

    Algebraically ``num / (2*eta*s) - (1 - eta) / (2*eta)`` with
    ``num = alpha*(1-eta)^2 + eta*(1+eta)`` and
    ``s^2 = eta^2 + 2*eta*alpha*(1+eta) + alpha^2*(1-eta)^2``.  Since
    ``num^2 - (1-eta)^2 * s^2 = 4*eta^3``, it is evaluated as
    ``2*eta^2 / (s * (num + (1-eta)*s))``, which subtracts nothing and so
    keeps relative precision where the difference cancels.  ``gap`` is
    ``1 - eta``, computed by the caller.
    """
    num = alpha * gap * gap + eta * (1 + eta)
    s = _sqrt(eta * eta + 2 * eta * alpha * (1 + eta) + alpha * alpha * gap * gap)
    return 2 * eta * eta / (s * (num + gap * s))


def mp_risk(lambda0: float, eta: float) -> float:
    """Limiting risk as a spectral average, parametrized by ``eta = d/p``.

    For ``eta <= 1`` this is the mean of ``1/(1 + x/lambda0)^2`` over the
    Marchenko-Pastur bulk of the rescaled Gram spectrum.  For ``eta > 1`` the
    spectrum carries an atom at zero of mass ``1 - 1/eta`` (contributing 1
    each) while the bulk, weighted ``1/eta``, follows the transposed-Gram law
    of ratio ``1/eta``; the eigenvalue rescaling turns ``alpha`` into
    ``alpha/eta`` inside the bulk average.  Both branches agree at
    ``eta = 1`` and satisfy
    ``mp_risk(lambda0, eta) == theory_point(lambda0, 1/eta).risk``.
    """
    _require_positive(lambda0=lambda0, eta=eta)
    return _evaluate(_mp_risk, lambda0, eta)


def _mp_risk(lambda0, eta):
    alpha = 1 / lambda0
    if eta <= 1:
        return _spectral_mean_inverse_square(alpha, eta, 1 - eta)
    # 1 - 1/eta is taken as (eta - 1)/eta, which keeps relative precision as
    # eta -> 1+ (subtracting a rounded 1/eta from 1 does not).
    inv, gap = 1 / eta, (eta - 1) / eta
    return gap + inv * _spectral_mean_inverse_square(alpha * inv, inv, gap)

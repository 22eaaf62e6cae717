"""Random-design bias-variance estimators and the split protocol feeding them.

The measurement protocol: a pool of ``n_total`` training examples is split
into ``N`` disjoint equal-size parts, one model is trained per part, and the
whole split is redrawn ``k`` times, giving ``k * N`` models.  Evaluated on a
held-out test set, the ensemble supports two decompositions of the expected
loss into squared bias plus variance:

* squared error -- the per-repeat sample variance of the model outputs
  (unbiased, ``1/(N-1)`` normalization) averaged over repeats, with the
  squared bias obtained by subtracting variance from risk;
* KL divergence -- risk splits exactly into divergence-from-the-geometric-
  mean terms: ``mean_j KL(pi0 || pi_j) = KL(pi0 || pihat) +
  mean_j KL(pihat || pi_j)`` where ``pihat`` is the normalized elementwise
  geometric mean of the model output distributions.

Expectations over test inputs are realized as arithmetic means over the test
set; per-point values are retained for diagnostics.  All reductions over
models run over index-sorted addends, so shuffling the models inside a repeat
cannot perturb even the last bit of any output; reductions over repeats and
test points use fixed index-ascending order.  Everything here is a pure
function of its inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .seeding import spawn_rng

__all__ = [
    "SplitPlan",
    "PredictionMatrix",
    "ProbabilityEnsemble",
    "DecompositionResult",
    "PROBABILITY_FLOOR",
    "plan_splits",
    "estimate_mse_decomposition",
    "geometric_mean_distribution",
    "estimate_kl_decomposition",
]

# Model outputs are clamped to [PROBABILITY_FLOOR, 1] and renormalized before
# any logarithm so the KL path stays finite when a softmax underflows.
PROBABILITY_FLOOR = 1e-12

_SIMPLEX_TOL = 1e-12
_IDENTITY_TOL = 1e-10


def _sorted_sum(values: np.ndarray, axis: int) -> np.ndarray:
    # Sum over one axis with the addends sorted first: the result depends
    # only on the multiset per lane, never on model order.
    return np.sort(values, axis=axis).sum(axis=axis)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint partitions of a training pool, ``repeats`` independent times.

    ``assignment[i, j]`` holds the pool indices of part ``j`` in repeat
    ``i``; parts within one repeat are pairwise disjoint and all have size
    ``n_total // parts_per_repeat`` (the remainder of the pool is dropped so
    every trained model sees identically sized data).
    """

    n_total: int
    parts_per_repeat: int
    repeats: int
    assignment: np.ndarray

    @property
    def part_size(self) -> int:
        return self.n_total // self.parts_per_repeat

    @property
    def model_count(self) -> int:
        return self.repeats * self.parts_per_repeat


def plan_splits(n_total: int, parts: int, repeats: int, master_seed: int) -> SplitPlan:
    """Plan ``repeats`` independent partitions of ``range(n_total)``.

    Repeat ``i``'s permutation is drawn from a generator seeded by
    ``derive_seed(master_seed, i)``, so the plan is reproducible bit-for-bit
    and individual repeats can be regenerated independently.

    Raises:
        ValueError: if ``parts < 2`` (the variance estimator needs at least
            two models per repeat), ``parts > n_total``, or ``repeats < 1``.
    """
    if parts < 2:
        raise ValueError(f"parts must be >= 2, got {parts}")
    if n_total < parts:
        raise ValueError(f"n_total={n_total} cannot be split into {parts} parts")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    size = n_total // parts
    assignment = np.empty((repeats, parts, size), dtype=np.int64)
    for i in range(repeats):
        perm = spawn_rng(master_seed, i).permutation(n_total)
        assignment[i] = perm[: parts * size].reshape(parts, size)
    assignment.setflags(write=False)
    return SplitPlan(
        n_total=n_total,
        parts_per_repeat=parts,
        repeats=repeats,
        assignment=assignment,
    )


def _as_ensemble_array(outputs: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(outputs, dtype=np.float64)
    if arr.ndim != 4:
        raise ValueError(
            f"{what} must have shape (test_count, repeats, parts, c), "
            f"got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PredictionMatrix:
    """Real-vector outputs of every model at every test point.

    ``outputs`` has shape (test_count, repeats, parts, c) and must be finite.
    """

    outputs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "outputs", _as_ensemble_array(self.outputs, "outputs")
        )


@dataclass(frozen=True)
class ProbabilityEnsemble:
    """Like :class:`PredictionMatrix` but every c-vector is a distribution.

    Entries must be strictly positive and each vector must sum to 1 within
    1e-12.  Use :meth:`from_predictions` to clamp raw softmax outputs onto
    the valid region.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_ensemble_array(self.probabilities, "probabilities")
        if np.any(arr <= 0.0):
            raise ValueError("probabilities must be strictly positive")
        sums = arr.sum(axis=3)
        if np.max(np.abs(sums - 1.0)) > _SIMPLEX_TOL:
            raise ValueError("probability vectors must sum to 1 within 1e-12")
        object.__setattr__(self, "probabilities", arr)

    @classmethod
    def from_predictions(cls, raw: np.ndarray) -> "ProbabilityEnsemble":
        """Clamp raw outputs to [PROBABILITY_FLOOR, 1] and renormalize."""
        arr = _as_ensemble_array(raw, "raw probabilities")
        clamped = np.clip(arr, PROBABILITY_FLOOR, 1.0)
        clamped /= clamped.sum(axis=3, keepdims=True)
        return cls(clamped)


@dataclass(frozen=True)
class DecompositionResult:
    """Risk, squared bias and variance, aggregated and per test point.

    ``risk == bias_sq + variance`` (exact for the squared loss, where the
    bias is defined by subtraction; asserted to 1e-10 for the KL loss, where
    all three terms are computed directly).  ``per_point`` has one row per
    test point with columns (risk, bias_sq, variance).  A negative aggregated
    ``bias_sq`` -- possible for the squared loss under estimation noise -- is
    reported raw and flagged, never clamped.
    """

    risk: float
    bias_sq: float
    variance: float
    per_point: Optional[np.ndarray] = field(default=None, repr=False)
    bias_sq_negative: bool = False


def _check_labels(labels: np.ndarray, test_count: int, c: int, what: str) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.float64)
    if arr.shape != (test_count, c):
        raise ValueError(
            f"{what} must have shape ({test_count}, {c}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def estimate_mse_decomposition(
    preds: PredictionMatrix,
    labels: np.ndarray,
    keep_per_point: bool = True,
) -> DecompositionResult:
    """Squared-loss decomposition of an ensemble against target vectors.

    Per test point: the risk is the mean over all models of the squared
    error; each repeat contributes the unbiased sample variance of its
    ``parts`` model outputs (total across output coordinates), and those
    per-repeat estimates are averaged; the squared bias is risk minus
    variance.  Aggregates are arithmetic means over test points, with the
    aggregate bias again defined by subtraction so the decomposition
    identity is exact.

    Args:
        preds: ensemble outputs, shape (test_count, repeats, parts, c).
        labels: target vectors, shape (test_count, c).
        keep_per_point: retain the per-point (risk, bias_sq, variance) rows.
    """
    outputs = preds.outputs
    test_count, repeats, parts, c = outputs.shape
    if parts < 2:
        raise ValueError("the variance estimator needs at least 2 parts per repeat")
    y = _check_labels(labels, test_count, c, "labels")

    sq_err = ((outputs - y[:, None, None, :]) ** 2).sum(axis=3)
    risk_pt = _sorted_sum(sq_err, axis=2).sum(axis=1) / (repeats * parts)

    mean_j = _sorted_sum(outputs, axis=2)[:, :, None, :] / parts
    dev_sq = ((outputs - mean_j) ** 2).sum(axis=3)
    var_hat = _sorted_sum(dev_sq, axis=2) / (parts - 1)
    var_pt = var_hat.sum(axis=1) / repeats

    bias_pt = risk_pt - var_pt
    risk = float(risk_pt.mean())
    variance = float(var_pt.mean())
    bias_sq = risk - variance
    per_point = (
        np.column_stack([risk_pt, bias_pt, var_pt]) if keep_per_point else None
    )
    return DecompositionResult(
        risk=risk,
        bias_sq=bias_sq,
        variance=variance,
        per_point=per_point,
        bias_sq_negative=bias_sq < 0.0,
    )


def geometric_mean_distribution(probs: np.ndarray) -> np.ndarray:
    """Normalized elementwise geometric mean of a set of distributions.

    Args:
        probs: array of shape (m, c); every entry must be strictly positive.

    Returns:
        The distribution proportional to ``exp(mean(log(probs), axis=0))``.
    """
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"probs must have shape (m, c), got {arr.shape}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("probs entries must be strictly positive and finite")
    log_mean = _sorted_sum(np.log(arr), axis=0) / arr.shape[0]
    out = np.exp(log_mean - log_mean.max())
    return out / out.sum()


def _one_hot_index(labels: np.ndarray, test_count: int, c: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.shape != (test_count, c):
        raise ValueError(
            f"one-hot labels must have shape ({test_count}, {c}), got {arr.shape}"
        )
    values_ok = np.all((arr == 0.0) | (arr == 1.0))
    if not values_ok or not np.all(arr.sum(axis=1) == 1.0):
        raise ValueError("labels must be exactly one-hot (entries 0/1, row sum 1)")
    return arr.argmax(axis=1)


def estimate_kl_decomposition(
    probs: ProbabilityEnsemble,
    onehot_labels: np.ndarray,
    keep_per_point: bool = True,
) -> DecompositionResult:
    """KL decomposition of a probability ensemble against one-hot labels.

    Per test point, with ``pihat`` the normalized geometric mean over all
    ``repeats * parts`` models: the squared-bias analogue is
    ``KL(pi0 || pihat)``, the variance is ``mean_j KL(pihat || pi_j)``, and
    the risk is ``mean_j KL(pi0 || pi_j)``.  All three are computed directly
    and the identity ``risk == bias_sq + variance``, which holds
    algebraically for any finite ensemble, is asserted to 1e-10.

    Raises:
        ValueError: if labels are not exactly one-hot.
        ArithmeticError: if the decomposition identity is violated, which
            indicates a numerical defect rather than an estimation error.
    """
    p = probs.probabilities
    test_count, repeats, parts, c = p.shape
    true_class = _one_hot_index(onehot_labels, test_count, c)

    flat = p.reshape(test_count, repeats * parts, c)
    log_flat = np.log(flat)
    log_mean = _sorted_sum(log_flat, axis=1) / flat.shape[1]

    shifted = log_mean - log_mean.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    z = weights.sum(axis=1)
    pihat = weights / z[:, None]
    log_pihat = shifted - np.log(z)[:, None]

    rows = np.arange(test_count)
    risk_pt = -_sorted_sum(log_flat[rows, :, true_class], axis=1) / flat.shape[1]
    bias_pt = -log_pihat[rows, true_class]
    kl_to_models = ((log_pihat[:, None, :] - log_flat) * pihat[:, None, :]).sum(axis=2)
    var_pt = _sorted_sum(kl_to_models, axis=1) / flat.shape[1]

    gap = np.max(np.abs(risk_pt - bias_pt - var_pt))
    if gap > _IDENTITY_TOL:
        raise ArithmeticError(
            f"KL decomposition identity violated by {gap:.3e} (> {_IDENTITY_TOL})"
        )

    per_point = (
        np.column_stack([risk_pt, bias_pt, var_pt]) if keep_per_point else None
    )
    return DecompositionResult(
        risk=float(risk_pt.mean()),
        bias_sq=float(bias_pt.mean()),
        variance=float(var_pt.mean()),
        per_point=per_point,
        bias_sq_negative=False,
    )

"""One-hidden-layer ReLU network lab with manual gradients.

Desk-scale counterpart to the deep-network measurements: trains ensembles of
small MLPs by minibatch SGD (momentum, weight decay, stage-wise learning-rate
decay) on the squared distance between the softmax output and the one-hot
label, and feeds the resulting prediction ensembles to the squared-loss
decomposition estimator.  Also provides dataset plumbing: a synthetic
Gaussian-cluster task, uniform label-noise injection, and an IDX-format
reader for image/label file pairs.

Ensemble members are independent (own data part, own RNG stream) and may be
trained concurrently; within one model, training is sequential by epoch and
batch.  The sweep assembles results in fixed (width, repeat, part) order, so
its output is bitwise reproducible from (config, seeds) at any worker count.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .estimators import (
    DecompositionResult,
    PredictionMatrix,
    SplitPlan,
    estimate_mse_decomposition,
)
from .seeding import derive_seed, spawn_rng

__all__ = [
    "MlpParams",
    "LabeledDataset",
    "TrainConfig",
    "TrainingDivergedError",
    "IdxFormatError",
    "init_mlp",
    "softmax",
    "predict_probabilities",
    "loss_and_gradients",
    "train_sgd",
    "inject_label_noise",
    "load_idx",
    "synth_dataset",
    "width_sweep",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


class IdxFormatError(ValueError):
    """The file does not match the IDX image/label layout."""


@dataclass
class MlpParams:
    """Weights of a d_in -> width -> c network with ReLU hidden activation."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        width, d_in = self.w1.shape
        c = self.w2.shape[0]
        if self.b1.shape != (width,) or self.w2.shape != (c, width) or self.b2.shape != (c,):
            raise ValueError("inconsistent parameter shapes")
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")

    @property
    def width(self) -> int:
        return self.w1.shape[0]

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "MlpParams":
        return MlpParams(*[a.copy() for a in self.arrays()])


@dataclass
class LabeledDataset:
    """Feature vectors with integer class labels in [0, n_classes)."""

    inputs: np.ndarray
    labels: np.ndarray
    provenance: str = "synthetic"

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be (n, d) and labels (n,)")
        if len(self.inputs) != len(self.labels):
            raise ValueError(
                f"{len(self.inputs)} inputs vs {len(self.labels)} labels"
            )
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative class indices")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


@dataclass(frozen=True)
class TrainConfig:
    """SGD schedule: momentum, weight decay, stage-wise lr decay.

    The learning rate at epoch ``e`` is
    ``initial_lr / lr_decay_factor ** (e // lr_decay_every)``.  The loss is
    always softmax-MSE against one-hot labels (see :func:`loss_and_gradients`).
    """

    epochs: int
    initial_lr: float
    lr_decay_every: int
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_factor: float = 10.0
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.initial_lr < 0.0:
            raise ValueError(f"initial_lr must be >= 0, got {self.initial_lr}")
        if self.lr_decay_factor <= 1.0:
            raise ValueError(
                f"lr_decay_factor must be > 1, got {self.lr_decay_factor}"
            )
        if self.lr_decay_every < 1 or self.batch_size < 1:
            raise ValueError("lr_decay_every and batch_size must be >= 1")


def init_mlp(d_in: int, width: int, c: int, seed: int) -> MlpParams:
    """Gaussian init with per-layer scale 1/sqrt(fan_in); zero biases.

    Keeps pre-activation magnitudes O(1) across widths, so a width sweep
    varies capacity rather than signal scale.  Deterministic in ``seed``.
    """
    if min(d_in, width, c) < 1:
        raise ValueError("d_in, width and c must be positive")
    rng = spawn_rng(seed, 0x1417)
    w1 = rng.standard_normal((width, d_in)) / np.sqrt(d_in)
    w2 = rng.standard_normal((c, width)) / np.sqrt(width)
    return MlpParams(w1=w1, b1=np.zeros(width), w2=w2, b2=np.zeros(c))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_probabilities(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, shape (n, c)."""
    hidden = np.maximum(inputs @ params.w1.T + params.b1, 0.0)
    return softmax(hidden @ params.w2.T + params.b2)


def _loss_and_gradients_raw(
    arrays: list[np.ndarray], inputs: np.ndarray, onehot: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    w1, b1, w2, b2 = arrays
    batch = inputs.shape[0]
    pre_hidden = inputs @ w1.T + b1
    hidden = np.maximum(pre_hidden, 0.0)
    probs = softmax(hidden @ w2.T + b2)
    residual = probs - onehot
    loss = float(np.vdot(residual, residual)) / batch
    grad_z = 2.0 * probs * (residual - np.sum(residual * probs, axis=1, keepdims=True))
    grad_w2 = grad_z.T @ hidden / batch
    grad_b2 = grad_z.sum(axis=0) / batch
    grad_hidden = (grad_z @ w2) * (pre_hidden > 0.0)
    grad_w1 = grad_hidden.T @ inputs / batch
    grad_b1 = grad_hidden.sum(axis=0) / batch
    return loss, [grad_w1, grad_b1, grad_w2, grad_b2]


def loss_and_gradients(
    params: MlpParams, inputs: np.ndarray, onehot: np.ndarray
) -> tuple[float, MlpParams]:
    """Batch loss mean_b ||softmax(z_b) - y_b||^2 and its exact gradients.

    Returns the loss and an :class:`MlpParams` holding d(loss)/d(parameter).
    The softmax Jacobian is applied analytically:
    dL/dz = 2 p * (r - <r, p>) with p the softmax output and r = p - y.
    """
    loss, grads = _loss_and_gradients_raw(params.arrays(), inputs, onehot)
    return loss, MlpParams(*grads)


def train_sgd(params: MlpParams, data: LabeledDataset, cfg: TrainConfig) -> MlpParams:
    """Train a copy of ``params`` on ``data``; deterministic in ``cfg.seed``.

    Minibatch SGD with momentum; weight decay enters the gradient (so one
    step on a zero data-gradient scales weights by exactly
    ``1 - lr * weight_decay``).  Batches are drawn from a per-epoch
    reshuffle of a seeded stream.

    Raises:
        TrainingDivergedError: as soon as a batch loss is non-finite,
            reporting the epoch and learning rate.
    """
    if len(data) == 0:
        raise ValueError("training data must be nonempty")
    c = max(data.n_classes, int(params.b2.shape[0]))
    onehot_all = np.eye(c)[data.labels]
    current = [a.copy() for a in params.arrays()]
    velocity = [np.zeros_like(a) for a in current]
    order_rng = spawn_rng(cfg.seed, 0x0D0E)
    n = len(data)
    for epoch in range(cfg.epochs):
        lr = cfg.initial_lr / cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = order_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = _loss_and_gradients_raw(current, data.inputs[idx], onehot_all[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} (lr={lr:g}); "
                    "reduce the learning rate"
                )
            for slot, grad in enumerate(grads):
                step = grad + cfg.weight_decay * current[slot]
                velocity[slot] = cfg.momentum * velocity[slot] + step
                current[slot] = current[slot] - lr * velocity[slot]
    return MlpParams(*current)


def inject_label_noise(labels: np.ndarray, p: float, c: int, seed: int) -> np.ndarray:
    """Independently replace each label with a uniform class draw w.p. ``p``.

    The replacement is uniform over all ``c`` classes, so it may coincide
    with the original label.  Deterministic in ``seed``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    labels = np.asarray(labels, dtype=np.int64)
    rng = spawn_rng(seed, 0x401)
    replace_mask = rng.random(labels.shape) < p
    draws = rng.integers(0, c, size=labels.shape)
    noisy = labels.copy()
    noisy[replace_mask] = draws[replace_mask]
    return noisy


def _read_exact(handle, count: int, path: str, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise IdxFormatError(
            f"{path}: truncated file while reading {what} "
            f"(wanted {count} bytes, got {len(data)})"
        )
    return data


def _read_be32(handle, path: str, what: str) -> int:
    return struct.unpack(">I", _read_exact(handle, 4, path, what))[0]


def load_idx(image_path: str, label_path: str) -> LabeledDataset:
    """Load an IDX image/label file pair as flattened [0, 1] vectors.

    Layout (all integers big-endian 32-bit): images carry magic 0x00000803
    then (count, rows, cols) then count*rows*cols unsigned bytes; labels
    carry magic 0x00000801 then count then count unsigned bytes.  Anything
    else raises :class:`IdxFormatError` naming the defect.
    """
    with open(image_path, "rb") as fh:
        magic = _read_be32(fh, image_path, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{image_path}: bad image magic (expected {IDX_IMAGE_MAGIC:#010x}, "
                f"found {magic:#010x})"
            )
        count = _read_be32(fh, image_path, "image count")
        rows = _read_be32(fh, image_path, "row count")
        cols = _read_be32(fh, image_path, "column count")
        pixels = _read_exact(fh, count * rows * cols, image_path, "pixel data")
        if fh.read(1):
            raise IdxFormatError(f"{image_path}: trailing bytes after pixel data")
    with open(label_path, "rb") as fh:
        magic = _read_be32(fh, label_path, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{label_path}: bad label magic (expected {IDX_LABEL_MAGIC:#010x}, "
                f"found {magic:#010x})"
            )
        label_count = _read_be32(fh, label_path, "label count")
        raw_labels = _read_exact(fh, label_count, label_path, "label data")
        if fh.read(1):
            raise IdxFormatError(f"{label_path}: trailing bytes after label data")
    if count != label_count:
        raise IdxFormatError(
            f"image/label count mismatch: {count} images vs {label_count} labels"
        )
    images = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows * cols)
    return LabeledDataset(
        inputs=images.astype(np.float64) / 255.0,
        labels=np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64),
        provenance="idx-file",
    )


def synth_dataset(d_in: int, n: int, c: int, margin: float, seed: int) -> LabeledDataset:
    """Gaussian class clusters with unit noise and controllable separation.

    Class ``k``'s mean is ``margin`` times the ``(k mod d_in)``-th canonical
    basis vector (negated on the second wrap), so the class geometry is a
    fixed function of (d_in, c, margin) and the seed controls sampling only.
    ``margin = 0`` makes labels independent of the inputs.
    """
    if c < 2:
        raise ValueError(f"c must be >= 2, got {c}")
    if d_in < 1 or n < 1:
        raise ValueError("d_in and n must be positive")
    means = np.zeros((c, d_in))
    for k in range(c):
        means[k, k % d_in] = margin * (-1.0 if (k // d_in) % 2 else 1.0)
    rng = spawn_rng(seed, 0x5D5)
    labels = rng.integers(0, c, size=n)
    inputs = means[labels] + rng.standard_normal((n, d_in))
    return LabeledDataset(inputs=inputs, labels=labels, provenance="synthetic")


def _train_member(
    pool: LabeledDataset,
    part_indices: np.ndarray,
    test_inputs: np.ndarray,
    c: int,
    width: int,
    cfg: TrainConfig,
    member_seed: int,
) -> np.ndarray:
    part = LabeledDataset(
        inputs=pool.inputs[part_indices],
        labels=pool.labels[part_indices],
        provenance=pool.provenance,
    )
    initial = init_mlp(pool.inputs.shape[1], width, c, member_seed)
    trained = train_sgd(initial, part, replace(cfg, seed=member_seed))
    return predict_probabilities(trained, test_inputs)


def width_sweep(
    widths: Sequence[int],
    pool: LabeledDataset,
    test: LabeledDataset,
    plan: SplitPlan,
    cfg: TrainConfig,
    max_workers: int = 1,
) -> list[tuple[int, DecompositionResult]]:
    """Train the planned ensemble at each width and decompose its test loss.

    For each width, ``plan.repeats * plan.parts_per_repeat`` models are
    trained (member seeds derive from ``(cfg.seed, width, repeat, part)``)
    and their softmax outputs on the test set are decomposed against one-hot
    test labels.  Members may train in parallel (``max_workers``); outputs
    land in preassigned slots, so the records are identical at any worker
    count.

    Returns:
        One ``(width, DecompositionResult)`` pair per width, in input order.

    Raises:
        TrainingDivergedError: re-raised with the offending width named.
    """
    if not widths:
        raise ValueError("widths must be nonempty")
    if plan.n_total != len(pool):
        raise ValueError(
            f"plan covers {plan.n_total} examples but pool has {len(pool)}"
        )
    c = max(pool.n_classes, test.n_classes)
    onehot_test = np.eye(c)[test.labels]
    results: list[tuple[int, DecompositionResult]] = []
    for width in widths:
        jobs = [
            (i, j, derive_seed(cfg.seed, width, i, j))
            for i in range(plan.repeats)
            for j in range(plan.parts_per_repeat)
        ]
        outputs = np.empty(
            (len(test), plan.repeats, plan.parts_per_repeat, c), dtype=np.float64
        )

        def run(job: tuple[int, int, int]) -> None:
            i, j, member_seed = job
            outputs[:, i, j, :] = _train_member(
                pool, plan.part(i, j), test.inputs, c, width, cfg, member_seed
            )

        try:
            if max_workers > 1:
                with ThreadPoolExecutor(max_workers=max_workers) as pool_exec:
                    list(pool_exec.map(run, jobs))
            else:
                for job in jobs:
                    run(job)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"width {width}: {exc}") from exc
        results.append(
            (int(width), estimate_mse_decomposition(PredictionMatrix(outputs), onehot_test))
        )
    return results

"""One-hidden-layer ReLU network lab with manual gradients.

Desk-scale counterpart to the deep-network measurements: trains ensembles of
small MLPs by minibatch SGD (momentum, weight decay, stage-wise learning-rate
decay) on the squared distance between the softmax output and the one-hot
label, and feeds the resulting prediction ensembles to the squared-loss
decomposition estimator.  Also provides dataset plumbing: a synthetic
Gaussian-cluster task, uniform label-noise injection, and an IDX-format
reader for image/label file pairs.

Ensemble members are independent (own data part, own initialization, own
shuffle stream), but a width's members are stepped together: one stacked
forward/backward/update per batch advances all of them, on one BLAS thread.
Stacked matrix products run the same GEMM on each member's slice and every
elementwise expression keeps its floating-point order, so each member's
weights are bitwise those it would reach if trained alone by
:func:`train_sgd`, and a sweep's output is bitwise reproducible from
(config, seeds).

On a POSIX host with more than one usable CPU, a long enough training loop
splits the members into contiguous blocks, one per CPU the process may run
on (``os.sched_getaffinity``), and trains all but the first block in the
long-lived worker processes of :mod:`bvlab._workers`, each on one BLAS
thread.  The trained weights come back through a pipe and are put back in
member order; since a member does not depend on which members it is stacked
with, the output bytes do not depend on the number of processes.  Limit the
processes with the CPU affinity, e.g. ``taskset -c 0 bvlab mlp-sweep ...``
trains in one process.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _workers
from .estimators import (
    DecompositionResult,
    PredictionMatrix,
    SplitPlan,
    estimate_mse_decomposition,
)
from ._blas import single_blas_thread
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
    """Training loss became non-finite at epoch ``epoch``."""

    def __init__(self, message: str, epoch: int) -> None:
        super().__init__(message)
        self.epoch = epoch

    def __reduce__(self):
        return type(self), (str(self), self.epoch)


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
        for name in ("initial_lr", "lr_decay_factor", "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.initial_lr < 0.0:
            raise ValueError(f"initial_lr must be >= 0, got {self.initial_lr}")
        if self.lr_decay_factor <= 1.0:
            raise ValueError(
                f"lr_decay_factor must be > 1, got {self.lr_decay_factor}"
            )
        if self.lr_decay_every < 1:
            raise ValueError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


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
    # The row maximum, one class column at a time: NumPy's max-reduce over a
    # last axis of a few classes costs several times more.  A maximum is
    # exact, so the result does not depend on the order.
    top = logits[..., 0].copy()
    for k in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., k], out=top)
    shifted = logits - top[..., None]
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_probabilities(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, shape (n, c)."""
    hidden = np.maximum(inputs @ params.w1.T + params.b1, 0.0)
    return softmax(hidden @ params.w2.T + params.b2)


def _layer_views(flat: np.ndarray, d_in: int, width: int, c: int) -> list[np.ndarray]:
    """Views (M, *shape) of w1, b1, w2, b2 into an (M, P) buffer."""
    views = []
    start = 0
    for shape in ((width, d_in), (width,), (c, width), (c,)):
        stop = start + int(np.prod(shape))
        views.append(flat[:, start:stop].reshape(len(flat), *shape))
        start = stop
    return views


def _hidden_buffers(shape: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Work buffers of :func:`_stacked_loss_and_gradients` for (M, batch, width)."""
    return (*(np.empty(shape) for _ in range(3)), np.empty(shape, dtype=bool))


def _stacked_loss_and_gradients(
    layers: list[np.ndarray],
    inputs: np.ndarray,
    onehot: np.ndarray,
    grads: list[np.ndarray],
    work: tuple[np.ndarray, ...],
) -> float:
    """Forward and backward pass of M members on their own (M, batch, .) batches.

    Writes each member's gradients into the arrays ``grads`` and returns the
    squared residual summed over all members and examples.  ``work`` holds
    (M, >= batch, width) buffers for the pre-activation, activation, hidden
    gradient and ReLU mask (bool), made by :func:`_hidden_buffers`.  Every
    product is one GEMM per member and every elementwise expression keeps the
    order of the one-member formulas, so a member's gradients do not depend
    on M.
    """
    w1, b1, w2, b2 = layers
    g_w1, g_b1, g_w2, g_b2 = grads
    batch = inputs.shape[1]
    pre_hidden, hidden, grad_hidden, active = (buf[:, :batch] for buf in work)
    np.matmul(inputs, w1.transpose(0, 2, 1), out=pre_hidden)
    pre_hidden += b1[:, None, :]
    np.maximum(pre_hidden, 0.0, out=hidden)
    probs = softmax(hidden @ w2.transpose(0, 2, 1) + b2[:, None, :])
    residual = probs - onehot
    squared = float(np.vdot(residual, residual))
    grad_z = 2.0 * probs * (residual - np.sum(residual * probs, axis=-1, keepdims=True))
    np.matmul(grad_z.transpose(0, 2, 1), hidden, out=g_w2)
    g_w2 /= batch
    np.divide(grad_z.sum(axis=1), batch, out=g_b2)
    np.matmul(grad_z, w2, out=grad_hidden)
    grad_hidden *= np.greater(pre_hidden, 0.0, out=active)
    np.matmul(grad_hidden.transpose(0, 2, 1), inputs, out=g_w1)
    g_w1 /= batch
    np.divide(grad_hidden.sum(axis=1), batch, out=g_b1)
    return squared


def loss_and_gradients(
    params: MlpParams, inputs: np.ndarray, onehot: np.ndarray
) -> tuple[float, MlpParams]:
    """Batch loss mean_b ||softmax(z_b) - y_b||^2 and its exact gradients.

    Returns the loss and an :class:`MlpParams` holding d(loss)/d(parameter).
    The softmax Jacobian is applied analytically:
    dL/dz = 2 p * (r - <r, p>) with p the softmax output and r = p - y.
    """
    grads = [np.empty((1, *a.shape)) for a in params.arrays()]
    work = _hidden_buffers((1, len(inputs), params.width))
    squared = _stacked_loss_and_gradients(
        [a[None] for a in params.arrays()], inputs[None], onehot[None], grads, work
    )
    return squared / len(inputs), MlpParams(*[g[0] for g in grads])


def _train_stacked(
    members: Sequence[MlpParams],
    inputs: np.ndarray,
    onehot: np.ndarray,
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> list[MlpParams]:
    """Train M members together; member k trains ``members[k]``.

    Member k's data are ``inputs[k]`` and ``onehot[k]`` (shapes (M, n, d)
    and (M, n, c)) and its shuffle stream is that of ``seeds[k]``;
    ``cfg.seed`` is not read.  Each step runs one stacked forward/backward
    pass on every member's own batch and updates all parameters, which live
    in one (M, P) buffer, in place.  The update keeps the order of
    ``step = grad + wd * cur; vel = mom * vel + step; cur = cur - lr * vel``.

    Raises:
        TrainingDivergedError: at the first step where any member's batch
            loss is non-finite, reporting the epoch and learning rate.
    """
    n = inputs.shape[1]
    if n == 0:
        raise ValueError("training data must be nonempty")
    shape = (members[0].w1.shape[1], members[0].width, members[0].b2.shape[0])
    current = np.stack([np.concatenate([a.ravel() for a in p.arrays()]) for p in members])
    grads = np.empty_like(current)
    velocity = np.zeros_like(current)
    scratch = np.empty_like(current)
    layers = _layer_views(current, *shape)
    grad_layers = _layer_views(grads, *shape)
    # Allocating the hidden-layer arrays at every step makes the allocator
    # hand their pages back and fault them in again each time.
    work = _hidden_buffers((len(members), min(cfg.batch_size, n), shape[1]))
    order_rngs = [spawn_rng(seed, 0x0D0E) for seed in seeds]
    # Each epoch gathers every member's shuffled data once, as row indices
    # into the members' examples laid end to end; batches are slices of it.
    row_offsets = (np.arange(len(members)) * n)[:, None]
    all_inputs = inputs.reshape(-1, inputs.shape[2])
    all_onehot = onehot.reshape(-1, onehot.shape[2])
    epoch_inputs = np.empty_like(inputs)
    epoch_onehot = np.empty_like(onehot)
    with single_blas_thread():
        for epoch in range(cfg.epochs):
            lr = cfg.initial_lr / cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
            rows = np.stack([rng.permutation(n) for rng in order_rngs]) + row_offsets
            np.take(all_inputs, rows, axis=0, out=epoch_inputs)
            np.take(all_onehot, rows, axis=0, out=epoch_onehot)
            for start in range(0, n, cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                squared = _stacked_loss_and_gradients(
                    layers, epoch_inputs[:, batch], epoch_onehot[:, batch], grad_layers, work
                )
                if not np.isfinite(squared):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch} (lr={lr:g}); "
                        "reduce the learning rate",
                        epoch,
                    )
                np.multiply(current, cfg.weight_decay, out=scratch)
                grads += scratch
                velocity *= cfg.momentum
                velocity += grads
                np.multiply(velocity, lr, out=grads)
                current -= grads
    return [MlpParams(*[layer[k] for layer in layers]) for k in range(len(members))]


# Fewest stacked steps (epochs x batches per epoch) worth splitting over the
# worker pool (bvlab._workers).  On a 2-vCPU VM a split of the benchmark's
# widths (6 members, 1,024 examples of 16 inputs each) sends a worker its 3
# members and their data (0.49 MB at width 2, 0.62 MB at width 256) and
# gets their trained weights back, a round trip under the 6-9 ms that all
# 6 members' 1 MB took, and the first split of a process also forks the worker (4-14 ms at
# 0-250 MB resident).  A step costs at least about 0.2 ms, so from 1,000
# steps (200 ms) on a split loses at most 5% to the round trip, 12% with the
# fork.  Measured there, 200-epoch widths of 1,600 steps ran 1.2x faster in
# two processes at width 2 and 1.9x at width 256, where a stacked step is
# mostly GEMM; at small widths it is mostly per-call NumPy overhead, which
# does not halve with the members, and a 20-epoch sweep of 160 steps gained
# nothing.
_MIN_FORK_STEPS = 1_000


def _train_members(
    lo: int,
    hi: int,
    members: Sequence[MlpParams],
    inputs: np.ndarray,
    onehot: np.ndarray,
    seeds: Sequence[int],
    cfg: TrainConfig,
) -> list[MlpParams] | TrainingDivergedError:
    """:func:`_train_stacked` on members ``lo..hi-1``, given as their own slices.

    Returns a :class:`TrainingDivergedError` instead of raising it, so that
    :func:`_train_split` can raise the one of the earliest epoch.
    """
    try:
        return _train_stacked(members, inputs, onehot, cfg, seeds)
    except TrainingDivergedError as exc:
        return exc


def _train_split(
    members: Sequence[MlpParams],
    inputs: np.ndarray,
    onehot: np.ndarray,
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> list[MlpParams]:
    """:func:`_train_stacked`, with the members split over the worker pool.

    The members are cut into contiguous blocks whose sizes differ by at most
    one, one per CPU of the process's affinity (at most one per member), and
    trained by :func:`bvlab._workers.run_blocks`: the first block here, each
    other block in a worker process, which is sent only its block's members,
    data and seeds.  Outcomes are merged in member order.
    Stays in one process with one CPU, without ``os.fork``, or below
    ``_MIN_FORK_STEPS`` steps.

    Raises:
        TrainingDivergedError: the one :func:`_train_stacked` raises on all
            members together: that of the block diverging at the earliest
            epoch.
        RuntimeError: a worker process died, naming its block and exit status.
    """
    steps = cfg.epochs * math.ceil(inputs.shape[1] / cfg.batch_size)
    processes = _workers.available() if steps >= _MIN_FORK_STEPS else 1
    outcomes = _workers.run_blocks(_train_members, len(members),
                                   min(processes, len(members)), cfg,
                                   sliced=(members, inputs, onehot, seeds))
    diverged = [outcome for outcome in outcomes if isinstance(outcome, TrainingDivergedError)]
    if diverged:
        raise min(diverged, key=lambda exc: exc.epoch)
    return [params for outcome in outcomes for params in outcome]


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
    c = max(data.n_classes, int(params.b2.shape[0]))
    onehot = np.eye(c)[data.labels]
    (trained,) = _train_stacked([params], data.inputs[None], onehot[None], cfg, [cfg.seed])
    return trained


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


def width_sweep(
    widths: Sequence[int],
    pool: LabeledDataset,
    test: LabeledDataset,
    plan: SplitPlan,
    cfg: TrainConfig,
) -> list[tuple[int, DecompositionResult]]:
    """Train the planned ensemble at each width and decompose its test loss.

    For each width, ``plan.repeats * plan.parts_per_repeat`` models are
    trained (member seeds derive from ``(cfg.seed, width, repeat, part)``)
    and their softmax outputs on the test set are decomposed against one-hot
    test labels.  A width's members are stepped together in stacked loops,
    one per process when the members are split over the worker pool (one
    process per CPU of the affinity mask, from ``_MIN_FORK_STEPS`` steps on;
    the workers are forked once and serve every width); each member ends
    bitwise where :func:`train_sgd` alone would take it, so the results do
    not depend on the number of processes.

    Returns:
        One ``(width, DecompositionResult)`` pair per width, in input order.

    Raises:
        TrainingDivergedError: re-raised with the offending width named; the
            one a single stacked loop of all members would raise.
        RuntimeError: a worker process died.
    """
    if not widths:
        raise ValueError("widths must be nonempty")
    if plan.n_total != len(pool):
        raise ValueError(
            f"plan covers {plan.n_total} examples but pool has {len(pool)}"
        )
    c = max(pool.n_classes, test.n_classes)
    onehot_test = np.eye(c)[test.labels]
    # Member k = repeat * parts_per_repeat + part trains on row k.
    parts = plan.assignment.reshape(plan.model_count, -1)
    inputs = pool.inputs[parts]
    onehot = np.eye(c)[pool.labels[parts]]
    results: list[tuple[int, DecompositionResult]] = []
    for width in widths:
        seeds = [
            derive_seed(cfg.seed, width, i, j)
            for i in range(plan.repeats)
            for j in range(plan.parts_per_repeat)
        ]
        initial = [init_mlp(pool.inputs.shape[1], width, c, seed) for seed in seeds]
        try:
            trained = _train_split(initial, inputs, onehot, cfg, seeds)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"width {width}: {exc}", exc.epoch) from exc
        outputs = np.stack(
            [predict_probabilities(params, test.inputs) for params in trained], axis=1
        ).reshape(len(test), plan.repeats, plan.parts_per_repeat, c)
        results.append(
            (int(width), estimate_mse_decomposition(PredictionMatrix(outputs), onehot_test))
        )
    return results

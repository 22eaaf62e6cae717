import os

import numpy as np
import pytest

import bvlab.mlp as mlp_module
from bvlab.mlp import MlpParams, loss_and_gradients

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="training splits over processes only with os.fork and CPU affinity",
)


def force_processes(monkeypatch, count: int) -> None:
    """Let training split even a short loop over ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(mlp_module, "_MIN_FORK_STEPS", 0)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def finite_difference_gradients(
    params: MlpParams, inputs: np.ndarray, onehot: np.ndarray, step: float = 1e-5
) -> MlpParams:
    """Central finite differences of the batch loss over every parameter."""
    grads = []
    for slot, array in enumerate(params.arrays()):
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up, _ = loss_and_gradients(params, inputs, onehot)
            flat[i] = original - step
            down, _ = loss_and_gradients(params, inputs, onehot)
            flat[i] = original
            grad_flat[i] = (up - down) / (2.0 * step)
        grads.append(grad)
    return MlpParams(*grads)


def relative_gradient_error(analytic: MlpParams, numeric: MlpParams) -> float:
    a = np.concatenate([g.reshape(-1) for g in analytic.arrays()])
    n = np.concatenate([g.reshape(-1) for g in numeric.arrays()])
    return float(np.linalg.norm(a - n) / (np.linalg.norm(n) + 1e-300))

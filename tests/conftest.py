import os

import numpy as np
import pytest

import bvlab._workers as workers
import bvlab.mlp as mlp_module
from bvlab.mlp import MlpParams, loss_and_gradients

needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="work splits over processes only with os.fork and CPU affinity",
)


@pytest.fixture(autouse=True)
def stop_workers_after_test():
    """Each test starts without pool workers, and none outlives it with the
    test's patches in its memory."""
    yield
    workers.shutdown()


def force_processes(monkeypatch, count: int) -> None:
    """Let training, the Monte Carlo and the dump parse split even a short
    loop over ``count`` CPUs.

    Shuts the pool down first, so that its workers are forked with the
    test's patches in place.
    """
    workers.shutdown()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(mlp_module, "_MIN_FORK_STEPS", 0)
    monkeypatch.setattr(workers, "MIN_SPLIT_US", 0.0)


def children() -> dict[int, str]:
    """State letter of each child process of this one, from ``/proc``."""
    found = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the process has exited
            continue
        if int(fields[1]) == os.getpid():
            found[int(name)] = fields[0]
    return found


def assert_only_pool_workers() -> None:
    """Every child is a live pool worker, and shutting the pool down reaps all."""
    if os.path.isdir("/proc"):
        live = {worker.pid for worker in workers._pool if worker}
        states = children()
        assert set(states) == live
        assert "Z" not in states.values()
    workers.shutdown()
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

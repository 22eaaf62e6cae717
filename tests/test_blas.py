import threading

import numpy as np
import pytest

import bvlab._blas as blas
import bvlab.mlp as mlp_module
from bvlab.estimators import plan_splits
from bvlab.mlp import TrainConfig, synth_dataset, width_sweep
from conftest import force_processes, needs_fork

CONTROLS = blas._thread_controls()
needs_openblas = pytest.mark.skipif(
    CONTROLS is None, reason="NumPy does not bundle an OpenBLAS with thread controls"
)


@pytest.fixture
def two_threads():
    """Run with OpenBLAS at (up to) two threads; yield the count it took."""
    get, set_ = CONTROLS
    before = get()
    set_(2)
    try:
        yield get()
    finally:
        set_(before)


def spy_threads(monkeypatch, module, name, fail=False):
    """Record the thread count each call of ``module.name`` sees."""
    seen = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(CONTROLS[0]())
        if fail:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def sweep_inputs():
    pool = synth_dataset(4, 40, 3, margin=2.0, seed=1)
    test = synth_dataset(4, 20, 3, margin=2.0, seed=2)
    plan = plan_splits(40, 2, 1, master_seed=3)
    cfg = TrainConfig(epochs=2, initial_lr=0.2, lr_decay_every=1, batch_size=8, seed=4)
    return pool, test, plan, cfg


@needs_openblas
class TestSingleBlasThread:
    def test_width_sweep_trains_on_one_thread_and_restores(self, monkeypatch, two_threads):
        seen = spy_threads(monkeypatch, mlp_module, "_stacked_loss_and_gradients")
        width_sweep([3], *sweep_inputs())
        assert seen and set(seen) == {1}
        assert CONTROLS[0]() == two_threads

    @needs_fork
    def test_split_sweep_trains_on_one_thread_in_every_process(self, monkeypatch,
                                                               two_threads):
        """A forked block fails the sweep if its steps see another count."""
        step = mlp_module._stacked_loss_and_gradients

        def checked_step(*args):
            if CONTROLS[0]() != 1:
                raise AssertionError(f"a step ran on {CONTROLS[0]()} BLAS threads")
            return step(*args)

        monkeypatch.setattr(mlp_module, "_stacked_loss_and_gradients", checked_step)
        force_processes(monkeypatch, 2)
        width_sweep([3], *sweep_inputs())
        assert CONTROLS[0]() == two_threads

    def test_restored_when_a_step_raises(self, monkeypatch, two_threads):
        spy_threads(monkeypatch, mlp_module, "_stacked_loss_and_gradients", fail=True)
        with pytest.raises(RuntimeError, match="injected"):
            width_sweep([3], *sweep_inputs())
        assert CONTROLS[0]() == two_threads

    def test_count_stays_one_until_the_last_thread_leaves(self, two_threads):
        entered, leave = threading.Event(), threading.Event()

        def inside():
            with blas.single_blas_thread():
                entered.set()
                leave.wait(30)

        thread = threading.Thread(target=inside, daemon=True)
        thread.start()
        try:
            assert entered.wait(30)
            with blas.single_blas_thread():
                pass
            assert CONTROLS[0]() == 1  # the other thread is still inside
        finally:
            leave.set()
            thread.join(30)
        assert not thread.is_alive()
        assert CONTROLS[0]() == two_threads

    def test_missing_symbol_is_a_no_op(self, monkeypatch, two_threads):
        monkeypatch.setattr(blas, "_SET_SYMBOL", "no_such_symbol")
        blas._thread_controls.cache_clear()
        try:
            assert blas._thread_controls() is None
            with blas.single_blas_thread():
                assert CONTROLS[0]() == two_threads
        finally:
            blas._thread_controls.cache_clear()


@pytest.mark.parametrize("hidden", [False, True], ids=["lapack", "numpy"])
class TestInverseCholesky:
    @staticmethod
    def route(monkeypatch, hidden):
        if hidden:
            monkeypatch.setattr(blas, "_lapack", lambda: None)

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_inverts_the_lower_factor_of_the_lower_triangle(self, monkeypatch, hidden, n):
        """K = C^-1 with C C^T = a; a's upper triangle is never read."""
        self.route(monkeypatch, hidden)
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, 2 * n))
        a = B @ B.T + 0.1 * np.eye(n)
        reference = np.linalg.inv(np.linalg.cholesky(a))
        garbled = a.copy()
        garbled[np.triu_indices(n, 1)] = np.nan
        K = blas.inverse_cholesky(garbled)
        assert np.array_equal(K, np.tril(K))
        assert np.abs(K - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_not_positive_definite_raises(self, monkeypatch, hidden):
        self.route(monkeypatch, hidden)
        with pytest.raises(np.linalg.LinAlgError):
            blas.inverse_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("a", [np.eye(2, dtype=np.float32), np.ones((2, 3)), np.ones(2)])
    def test_not_a_square_float64_matrix_rejected(self, monkeypatch, hidden, a):
        self.route(monkeypatch, hidden)
        with pytest.raises(ValueError, match="need a square float64 matrix"):
            blas.inverse_cholesky(a)

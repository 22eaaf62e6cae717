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

    def test_missing_symbol_is_a_no_op(self, monkeypatch, two_threads):
        monkeypatch.setattr(blas, "_SET_SYMBOL", "no_such_symbol")
        blas._thread_controls.cache_clear()
        try:
            assert blas._thread_controls() is None
            with blas.single_blas_thread():
                assert CONTROLS[0]() == two_threads
        finally:
            blas._thread_controls.cache_clear()

import math
import os
import signal
import struct
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bvlab.mlp as mlp_module
from bvlab.estimators import SplitPlan, plan_splits
from bvlab.mlp import (
    IdxFormatError,
    LabeledDataset,
    TrainConfig,
    TrainingDivergedError,
    init_mlp,
    inject_label_noise,
    load_idx,
    loss_and_gradients,
    predict_probabilities,
    synth_dataset,
    train_sgd,
    width_sweep,
)
from conftest import (
    assert_no_child_left,
    finite_difference_gradients,
    force_processes,
    needs_fork,
    relative_gradient_error,
)


def least_squares_probe_accuracy(train: LabeledDataset, test: LabeledDataset) -> float:
    c = max(train.n_classes, test.n_classes)
    design = np.hstack([train.inputs, np.ones((len(train), 1))])
    weights, *_ = np.linalg.lstsq(design, np.eye(c)[train.labels], rcond=None)
    scores = np.hstack([test.inputs, np.ones((len(test), 1))]) @ weights
    return float(np.mean(scores.argmax(axis=1) == test.labels))


class TestInitMlp:
    def test_single_hidden_unit_shapes(self):
        params = init_mlp(d_in=4, width=1, c=3, seed=0)
        assert params.w1.shape == (1, 4)
        assert params.b1.shape == (1,)
        assert params.w2.shape == (3, 1)
        assert params.b2.shape == (3,)
        assert np.all(params.b1 == 0.0) and np.all(params.b2 == 0.0)

    def test_deterministic(self):
        a = init_mlp(7, 5, 3, seed=9)
        b = init_mlp(7, 5, 3, seed=9)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_fan_in_scale(self):
        params = init_mlp(784, 1024, 10, seed=1)
        target = 1.0 / np.sqrt(784)
        assert abs(params.w1.std() - target) / target < 0.05


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        """20 random small networks, relative error below 1e-6 at step 1e-5."""
        rng = np.random.default_rng(321)
        for instance in range(20):
            params = init_mlp(5, 7, 3, seed=1000 + instance)
            inputs = rng.normal(size=(8, 5))
            onehot = np.eye(3)[rng.integers(0, 3, size=8)]
            _, analytic = loss_and_gradients(params, inputs, onehot)
            numeric = finite_difference_gradients(params, inputs, onehot, step=1e-5)
            assert relative_gradient_error(analytic, numeric) < 1e-6


class TestTrainSgd:
    def test_zero_learning_rate_is_identity(self):
        data = synth_dataset(4, 32, 3, margin=1.0, seed=0)
        params = init_mlp(4, 6, 3, seed=1)
        cfg = TrainConfig(epochs=3, initial_lr=0.0, lr_decay_every=2,
                          weight_decay=0.0, seed=5)
        trained = train_sgd(params, data, cfg)
        for before, after in zip(params.arrays(), trained.arrays()):
            assert np.array_equal(before, after)

    def test_weight_decay_shrinks_weights_exactly(self):
        """One step on zero data-gradient multiplies weights by 1 - lr*wd."""
        data = LabeledDataset(inputs=np.zeros((8, 4)), labels=np.zeros(8, dtype=int))
        params = init_mlp(4, 6, 2, seed=2)
        cfg = TrainConfig(epochs=1, initial_lr=0.5, lr_decay_every=1,
                          weight_decay=0.5, batch_size=8, seed=5)
        trained = train_sgd(params, data, cfg)
        assert np.array_equal(trained.w1, 0.75 * params.w1)
        assert np.array_equal(trained.w2, 0.75 * params.w2)

    def test_interpolates_single_point(self):
        data = LabeledDataset(inputs=np.array([[0.5, -1.0, 2.0, 0.3]]),
                              labels=np.array([2]))
        params = init_mlp(4, 32, 3, seed=3)
        cfg = TrainConfig(epochs=300, initial_lr=0.5, lr_decay_every=150,
                          weight_decay=0.0, batch_size=1, seed=6)
        trained = train_sgd(params, data, cfg)
        probs = predict_probabilities(trained, data.inputs)
        assert float(np.sum((probs - np.eye(3)[data.labels]) ** 2)) < 1e-2

    def test_loss_decreases_on_standard_config(self):
        data = synth_dataset(8, 256, 3, margin=2.0, seed=4)
        params = init_mlp(8, 16, 3, seed=5)
        cfg = TrainConfig(epochs=30, initial_lr=0.3, lr_decay_every=15, seed=7)
        trained = train_sgd(params, data, cfg)
        onehot = np.eye(3)[data.labels]
        before, _ = loss_and_gradients(params, data.inputs, onehot)
        after, _ = loss_and_gradients(trained, data.inputs, onehot)
        assert after < before

    def test_deterministic(self):
        data = synth_dataset(5, 64, 3, margin=1.5, seed=8)
        cfg = TrainConfig(epochs=5, initial_lr=0.2, lr_decay_every=3, seed=9)
        a = train_sgd(init_mlp(5, 8, 3, seed=10), data, cfg)
        b = train_sgd(init_mlp(5, 8, 3, seed=10), data, cfg)
        for left, right in zip(a.arrays(), b.arrays()):
            assert np.array_equal(left, right)

    def test_divergence_detected(self):
        data = synth_dataset(6, 64, 3, margin=1.0, seed=11)
        params = init_mlp(6, 8, 3, seed=12)
        cfg = TrainConfig(epochs=80, initial_lr=1e6, lr_decay_every=40,
                          batch_size=8, seed=13)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            with np.errstate(all="ignore"):
                train_sgd(params, data, cfg)

    def test_empty_data_rejected(self):
        params = init_mlp(3, 4, 2, seed=0)
        empty = LabeledDataset(inputs=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))
        cfg = TrainConfig(epochs=1, initial_lr=0.1, lr_decay_every=1)
        with pytest.raises(ValueError, match="nonempty"):
            train_sgd(params, empty, cfg)

    @pytest.mark.parametrize("name, value", [
        ("initial_lr", float("nan")),
        ("initial_lr", float("inf")),
        ("lr_decay_factor", float("nan")),
        ("lr_decay_factor", float("inf")),
        ("momentum", float("nan")),
        ("momentum", float("-inf")),
        ("weight_decay", float("inf")),
        ("weight_decay", float("nan")),
    ])
    def test_non_finite_schedule_value_named(self, name, value):
        """Refused when built, not as a divergence after training starts."""
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            TrainConfig(**{"epochs": 1, "initial_lr": 0.1, "lr_decay_every": 1, name: value})


class TestInjectLabelNoise:
    def test_zero_probability_is_identity(self):
        labels = np.arange(10) % 3
        assert np.array_equal(inject_label_noise(labels, 0.0, 3, seed=1), labels)

    def test_full_replacement_collision_rate(self):
        """p=1 with c=10 leaves about 10% of labels unchanged."""
        labels = np.zeros(10_000, dtype=int)
        noisy = inject_label_noise(labels, 1.0, 10, seed=2)
        changed = int(np.sum(noisy != labels))
        sigma = np.sqrt(10_000 * 0.9 * 0.1)
        assert abs(changed - 9000) <= 3 * sigma

    def test_partial_replacement_rate(self):
        """p=0.1 changes about p*(c-1)/c of the labels."""
        labels = np.zeros(10_000, dtype=int)
        noisy = inject_label_noise(labels, 0.1, 10, seed=3)
        changed = int(np.sum(noisy != labels))
        expected = 10_000 * 0.1 * 0.9
        sigma = np.sqrt(10_000 * 0.09 * 0.91)
        assert abs(changed - expected) <= 3 * sigma

    def test_deterministic(self):
        labels = np.arange(100) % 4
        a = inject_label_noise(labels, 0.5, 4, seed=4)
        b = inject_label_noise(labels, 0.5, 4, seed=4)
        assert np.array_equal(a, b)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            inject_label_noise(np.zeros(3, dtype=int), 1.5, 2, seed=0)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   rows=2, cols=3, truncate_images=False):
    image_path = tmp_path / "images.idx"
    label_path = tmp_path / "labels.idx"
    count = len(labels)
    body = struct.pack(">IIII", image_magic, len(pixels) // (rows * cols), rows, cols)
    body += bytes(pixels)
    if truncate_images:
        body = body[:-2]
    image_path.write_bytes(body)
    label_path.write_bytes(struct.pack(">II", label_magic, count) + bytes(labels))
    return str(image_path), str(label_path)


class TestLoadIdx:
    def test_roundtrip_hand_built_fixture(self, tmp_path):
        pixels = list(range(24))  # 4 images of 2x3
        labels = [0, 2, 1, 3]
        images, labels_file = write_idx_pair(tmp_path, pixels, labels)
        data = load_idx(images, labels_file)
        assert len(data) == 4
        assert data.provenance == "idx-file"
        assert data.inputs.shape == (4, 6)
        assert_allclose(data.inputs[0], np.arange(6) / 255.0, rtol=1e-15)
        assert_allclose(data.inputs[3], np.arange(18, 24) / 255.0, rtol=1e-15)
        assert np.array_equal(data.labels, labels)

    def test_count_mismatch(self, tmp_path):
        images, labels_file = write_idx_pair(tmp_path, list(range(12)), [1, 0, 1])
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_idx(images, labels_file)

    def test_wrong_image_magic_names_both_values(self, tmp_path):
        images, labels_file = write_idx_pair(
            tmp_path, list(range(6)), [1], image_magic=0x00000802
        )
        with pytest.raises(IdxFormatError, match="0x00000803") as excinfo:
            load_idx(images, labels_file)
        assert "0x00000802" in str(excinfo.value)

    def test_wrong_label_magic(self, tmp_path):
        images, labels_file = write_idx_pair(
            tmp_path, list(range(6)), [1], label_magic=0x00000805
        )
        with pytest.raises(IdxFormatError, match="label magic"):
            load_idx(images, labels_file)

    def test_truncated_pixels(self, tmp_path):
        images, labels_file = write_idx_pair(
            tmp_path, list(range(12)), [0, 1], truncate_images=True
        )
        with pytest.raises(IdxFormatError, match="truncated"):
            load_idx(images, labels_file)


class TestSynthDataset:
    def test_zero_margin_is_unlearnable(self):
        train = synth_dataset(8, 2000, 4, margin=0.0, seed=20)
        test = synth_dataset(8, 2000, 4, margin=0.0, seed=21)
        accuracy = least_squares_probe_accuracy(train, test)
        assert abs(accuracy - 0.25) < 0.05

    def test_large_margin_is_separable(self):
        train = synth_dataset(8, 1500, 3, margin=4.0, seed=22)
        test = synth_dataset(8, 1500, 3, margin=4.0, seed=23)
        assert least_squares_probe_accuracy(train, test) > 0.95

    def test_deterministic(self):
        a = synth_dataset(5, 50, 3, margin=1.0, seed=24)
        b = synth_dataset(5, 50, 3, margin=1.0, seed=24)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_cover_range(self):
        data = synth_dataset(4, 500, 3, margin=1.0, seed=25)
        assert set(np.unique(data.labels)) == {0, 1, 2}

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(4, 10, 1, margin=1.0, seed=0)


def tiny_sweep_setup(pool_n=60, test_n=30, parts=2, repeats=1, seed=100):
    pool = synth_dataset(4, pool_n, 3, margin=2.0, seed=seed)
    test = synth_dataset(4, test_n, 3, margin=2.0, seed=seed + 1)
    plan = plan_splits(pool_n, parts, repeats, master_seed=seed + 2)
    cfg = TrainConfig(epochs=3, initial_lr=0.2, lr_decay_every=2,
                      batch_size=16, seed=seed + 3)
    return pool, test, plan, cfg


class TestWidthSweep:
    def test_identical_members_give_zero_variance(self, monkeypatch):
        """Two models with the same seed and the same data coincide exactly."""
        monkeypatch.setattr(mlp_module, "derive_seed", lambda *args: 77)
        pool, test, plan, cfg = tiny_sweep_setup()
        degenerate = SplitPlan(
            n_total=plan.n_total,
            parts_per_repeat=2,
            repeats=1,
            assignment=np.tile(plan.assignment[0, 0], (1, 2, 1)),
        )
        (width, result), = width_sweep([4], pool, test, degenerate, cfg)
        assert width == 4
        assert result.variance == 0.0
        assert result.bias_sq == result.risk

    def test_one_record_per_width_in_order(self):
        pool, test, plan, cfg = tiny_sweep_setup()
        results = width_sweep([2, 4, 8], pool, test, plan, cfg)
        assert [w for w, _ in results] == [2, 4, 8]
        for _, record in results:
            assert record.risk >= 0.0
            assert_allclose(record.risk, record.bias_sq + record.variance, rtol=1e-12)

    def test_pool_size_mismatch_rejected(self):
        pool, test, plan, cfg = tiny_sweep_setup()
        short_pool = LabeledDataset(pool.inputs[:50], pool.labels[:50])
        with pytest.raises(ValueError, match="pool"):
            width_sweep([2], short_pool, test, plan, cfg)

    def test_divergence_names_width(self):
        pool, test, plan, cfg = tiny_sweep_setup()
        bad_cfg = TrainConfig(epochs=60, initial_lr=1e6, lr_decay_every=30,
                              batch_size=4, seed=1)
        with pytest.raises(TrainingDivergedError, match="width 8"):
            with np.errstate(all="ignore"):
                width_sweep([8], pool, test, plan, bad_cfg)

    def test_empty_widths_rejected(self):
        pool, test, plan, cfg = tiny_sweep_setup()
        with pytest.raises(ValueError, match="widths"):
            width_sweep([], pool, test, plan, cfg)

    def test_members_equal_training_each_alone(self, monkeypatch):
        """Stacked members end bitwise where init_mlp -> train_sgd -> predict takes each."""
        pool, test, plan, _ = tiny_sweep_setup(pool_n=90, repeats=2)
        cfg = TrainConfig(epochs=4, initial_lr=0.3, lr_decay_every=2,
                          batch_size=20, seed=103)  # 45-example parts: a partial batch
        captured = []
        decompose = mlp_module.estimate_mse_decomposition

        def capture(matrix, onehot):
            captured.append(matrix.outputs)
            return decompose(matrix, onehot)

        monkeypatch.setattr(mlp_module, "estimate_mse_decomposition", capture)
        widths = [1, 3, 37]
        width_sweep(widths, pool, test, plan, cfg)
        for width, outputs in zip(widths, captured):
            for i in range(plan.repeats):
                for j in range(plan.parts_per_repeat):
                    seed = mlp_module.derive_seed(cfg.seed, width, i, j)
                    part = LabeledDataset(pool.inputs[plan.assignment[i, j]],
                                          pool.labels[plan.assignment[i, j]])
                    alone = train_sgd(init_mlp(4, width, 3, seed), part,
                                      replace(cfg, seed=seed))
                    expected = predict_probabilities(alone, test.inputs)
                    assert np.array_equal(outputs[:, i, j, :], expected)


def count_forks(monkeypatch):
    """Count the calls of ``os.fork``; returns the one-item count list."""
    count = [0]
    fork = os.fork

    def counting_fork():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return count


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)


def marked_setup():
    """Six members on disjoint parts whose feature 0 is the member index."""
    pool, test, plan, cfg = tiny_sweep_setup(pool_n=90, parts=6)  # 15 examples: 1 batch
    inputs = pool.inputs.copy()
    for member, rows in enumerate(plan.assignment.reshape(plan.model_count, -1)):
        inputs[rows, 0] = member
    return LabeledDataset(inputs, pool.labels), test, plan, cfg


def diverge_from(monkeypatch, first_bad_epoch):
    """Make member k's batch loss non-finite from epoch ``first_bad_epoch[k]`` on.

    Needs one batch per epoch and the data of :func:`marked_setup`.
    """
    train, loss = mlp_module._train_stacked, mlp_module._stacked_loss_and_gradients
    epoch = [0]

    def counting_train(*args):
        epoch[0] = 0
        return train(*args)

    def marked_loss(layers, inputs, onehot, grads, work):
        squared = loss(layers, inputs, onehot, grads, work)
        members = inputs[:, 0, 0].astype(int)
        bad = any(epoch[0] >= first_bad_epoch[k] for k in members)
        epoch[0] += 1
        return math.nan if bad else squared

    monkeypatch.setattr(mlp_module, "_train_stacked", counting_train)
    monkeypatch.setattr(mlp_module, "_stacked_loss_and_gradients", marked_loss)


def fail_in(monkeypatch, child, failure):
    """Run ``failure()`` before training in every forked process, or in this one."""
    train, parent = mlp_module._train_stacked, os.getpid()

    def train_or_fail(*args):
        if (os.getpid() != parent) == child:
            failure()
        return train(*args)

    monkeypatch.setattr(mlp_module, "_train_stacked", train_or_fail)


@needs_fork
class TestProcessSplit:
    def test_outputs_bitwise_equal_at_1_2_3_processes(self, monkeypatch):
        pool, test, plan, cfg = tiny_sweep_setup(pool_n=90, repeats=3)  # 6 members
        decompose = mlp_module.estimate_mse_decomposition
        forks = count_forks(monkeypatch)
        runs = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            forks[0] = 0
            outputs = []

            def capture(matrix, onehot):
                outputs.append(matrix.outputs.tobytes())
                return decompose(matrix, onehot)

            monkeypatch.setattr(mlp_module, "estimate_mse_decomposition", capture)
            results = width_sweep([1, 3, 37], pool, test, plan, cfg)
            floats = np.array([(r.risk, r.bias_sq, r.variance) for _, r in results])
            runs.append((outputs, floats.tobytes()))
            assert forks[0] == 3 * (processes - 1)
            assert_no_child_left()
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("first_bad_epoch, epoch", [
        ([9, 9, 9, 9, 1, 9], 1),  # only the last block
        ([2, 9, 9, 9, 1, 9], 1),  # both blocks: the later block's earlier epoch
        ([1, 9, 9, 2, 9, 9], 1),  # both blocks: the first block's earlier epoch
        ([9, 9, 2, 9, 9, 2], 2),  # both blocks at one epoch
    ])
    def test_divergence_raises_the_serial_error(self, monkeypatch, first_bad_epoch, epoch):
        pool, test, plan, cfg = marked_setup()
        diverge_from(monkeypatch, first_bad_epoch)
        messages = []
        for processes in (1, 2, 3):
            force_processes(monkeypatch, processes)
            with pytest.raises(TrainingDivergedError) as info:
                width_sweep([3], pool, test, plan, cfg)
            assert info.value.epoch == epoch
            messages.append(str(info.value))
            assert_no_child_left()
        lr = cfg.initial_lr / cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        assert messages[0].startswith(f"width 3: non-finite loss at epoch {epoch} (lr={lr:g})")
        assert messages == [messages[0]] * 3

    def test_child_exception_names_block_and_status(self, monkeypatch):
        def failure():
            raise ValueError("injected in the child")

        fail_in(monkeypatch, True, failure)
        force_processes(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"members 3-5 .*\(exit status 1\): "
                                               r"ValueError: injected in the child"):
            width_sweep([3], *tiny_sweep_setup(pool_n=90, repeats=3))
        assert_no_child_left()

    def test_child_killed_by_a_signal(self, monkeypatch):
        fail_in(monkeypatch, True, lambda: os.kill(os.getpid(), signal.SIGKILL))
        force_processes(monkeypatch, 3)
        with pytest.raises(RuntimeError, match=rf"members 2-3 .*\(killed by signal "
                                               rf"{int(signal.SIGKILL)}\)"):
            width_sweep([3], *tiny_sweep_setup(pool_n=90, repeats=3))
        assert_no_child_left()

    def test_parent_failure_leaves_no_child(self, monkeypatch):
        def failure():
            raise KeyError("injected in the parent")

        fail_in(monkeypatch, False, failure)
        force_processes(monkeypatch, 3)
        with pytest.raises(KeyError, match="injected in the parent"):
            width_sweep([3], *tiny_sweep_setup(pool_n=90, repeats=3))
        assert_no_child_left()

    def test_one_cpu_stays_in_process(self, monkeypatch):
        force_processes(monkeypatch, 1)
        forbid_fork(monkeypatch)
        width_sweep([3], *tiny_sweep_setup(pool_n=90, repeats=3))

    def test_train_sgd_stays_in_process(self, monkeypatch):
        force_processes(monkeypatch, 3)
        forbid_fork(monkeypatch)
        data = synth_dataset(4, 40, 3, margin=2.0, seed=0)
        cfg = TrainConfig(epochs=3, initial_lr=0.2, lr_decay_every=2, batch_size=8)
        train_sgd(init_mlp(4, 5, 3, seed=0), data, cfg)

    def test_short_sweep_stays_in_process(self, monkeypatch):
        """The benchmark's smoke sweep: 20 epochs of 8 batches, 160 steps."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        forbid_fork(monkeypatch)
        pool = synth_dataset(16, 2048, 4, margin=2.0, seed=1)
        test = synth_dataset(16, 512, 4, margin=2.0, seed=2)
        plan = plan_splits(2048, 2, 3, master_seed=3)
        cfg = TrainConfig(epochs=20, initial_lr=0.3, lr_decay_every=100, seed=4)
        assert cfg.epochs * math.ceil(plan.part_size / cfg.batch_size) == 160
        assert 160 < mlp_module._MIN_FORK_STEPS
        width_sweep([16], pool, test, plan, cfg)

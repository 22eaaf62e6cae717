import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bvlab.estimators import (
    PredictionMatrix,
    ProbabilityEnsemble,
    estimate_kl_decomposition,
    estimate_mse_decomposition,
    geometric_mean_distribution,
    plan_splits,
)


def _gaussian_ensemble(rng, test_count=1, repeats=1, parts=3, c=4, sigma_sq=0.7):
    """Predictions center + iid noise with total per-model variance sigma_sq."""
    center = rng.normal(size=c)
    noise = rng.normal(
        0.0, math.sqrt(sigma_sq / c), size=(test_count, repeats, parts, c)
    )
    return PredictionMatrix(center + noise)


class TestPlanSplits:
    def test_partition_of_four(self):
        plan = plan_splits(4, parts=2, repeats=1, master_seed=5)
        merged = np.sort(plan.assignment[0].reshape(-1))
        assert np.array_equal(merged, np.arange(4))
        assert plan.part_size == 2

    def test_half_split_three_repeats(self):
        plan = plan_splits(50_000, parts=2, repeats=3, master_seed=0)
        assert plan.part_size == 25_000
        assert plan.model_count == 6

    def test_five_way_split_four_repeats(self):
        plan = plan_splits(50_000, parts=5, repeats=4, master_seed=0)
        assert plan.part_size == 10_000
        assert plan.model_count == 20

    def test_disjoint_within_repeat_remainder_dropped(self):
        plan = plan_splits(103, parts=4, repeats=3, master_seed=9)
        assert plan.part_size == 25
        for i in range(plan.repeats):
            flat = plan.assignment[i].reshape(-1)
            assert len(np.unique(flat)) == 100
            assert flat.min() >= 0 and flat.max() < 103

    def test_bitwise_reproducible(self):
        a = plan_splits(1000, 4, 3, master_seed=123)
        b = plan_splits(1000, 4, 3, master_seed=123)
        assert np.array_equal(a.assignment, b.assignment)

    def test_repeats_differ(self):
        plan = plan_splits(1000, 2, 2, master_seed=123)
        assert not np.array_equal(plan.assignment[0], plan.assignment[1])

    @pytest.mark.parametrize(
        "n_total,parts,repeats",
        [(100, 1, 1), (3, 4, 1), (100, 2, 0)],
    )
    def test_invalid_arguments(self, n_total, parts, repeats):
        with pytest.raises(ValueError):
            plan_splits(n_total, parts, repeats, master_seed=0)


class TestMseDecomposition:
    def test_identical_models_zero_variance(self):
        rng = np.random.default_rng(0)
        one = rng.normal(size=(6, 1, 1, 3))
        preds = PredictionMatrix(np.tile(one, (1, 2, 4, 1)))
        labels = rng.normal(size=(6, 3))
        result = estimate_mse_decomposition(preds, labels)
        assert result.variance == 0.0
        assert result.bias_sq == result.risk

    def test_two_model_hand_example(self):
        """f1=(1,0), f2=(0,1), y=(1,0): variance 1, risk 1, bias 0."""
        preds = PredictionMatrix(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
        result = estimate_mse_decomposition(preds, np.array([[1.0, 0.0]]))
        assert_allclose(result.variance, 1.0, atol=1e-15)
        assert_allclose(result.risk, 1.0, atol=1e-15)
        assert_allclose(result.bias_sq, 0.0, atol=1e-15)

    def test_unbiased_for_gaussian_predictions(self):
        """Sample mean of the estimator approaches the true model variance."""
        rng = np.random.default_rng(42)
        sigma_sq, draws = 0.7, 2500
        estimates = np.empty(draws)
        for r in range(draws):
            preds = _gaussian_ensemble(rng, sigma_sq=sigma_sq)
            labels = np.zeros((1, 4))
            estimates[r] = estimate_mse_decomposition(preds, labels).variance
        stderr = estimates.std(ddof=1) / math.sqrt(draws)
        assert abs(estimates.mean() - sigma_sq) < 4.0 * stderr

    def test_model_order_within_repeat_is_irrelevant_bitwise(self):
        rng = np.random.default_rng(7)
        outputs = rng.normal(size=(5, 3, 4, 2))
        labels = rng.normal(size=(5, 2))
        base = estimate_mse_decomposition(PredictionMatrix(outputs), labels)
        shuffled = outputs.copy()
        for i in range(3):
            shuffled[:, i] = shuffled[:, i, rng.permutation(4)]
        other = estimate_mse_decomposition(PredictionMatrix(shuffled), labels)
        assert base.risk == other.risk
        assert base.bias_sq == other.bias_sq
        assert base.variance == other.variance
        assert np.array_equal(base.per_point, other.per_point)

    def test_negative_bias_reported_raw_and_flagged(self):
        """Labels at the ensemble mean make risk < variance; keep it raw."""
        delta = np.array([0.3, -0.2])
        outputs = np.array([[[delta, -delta]]])
        result = estimate_mse_decomposition(
            PredictionMatrix(outputs), np.zeros((1, 2))
        )
        assert result.bias_sq < 0.0
        assert result.bias_sq_negative
        assert_allclose(result.risk, result.bias_sq + result.variance, rtol=1e-12)

    def test_repeat_averaging_reduces_estimator_spread(self):
        """Empirical variance of the k=3-averaged estimator stays below k=1."""
        rng = np.random.default_rng(3)
        single, averaged = [], []
        for _ in range(1500):
            single.append(
                estimate_mse_decomposition(
                    _gaussian_ensemble(rng, repeats=1), np.zeros((1, 4))
                ).variance
            )
            averaged.append(
                estimate_mse_decomposition(
                    _gaussian_ensemble(rng, repeats=3), np.zeros((1, 4))
                ).variance
            )
        assert np.var(averaged) < np.var(single)

    def test_aggregate_is_mean_of_per_point(self):
        rng = np.random.default_rng(11)
        preds = PredictionMatrix(rng.normal(size=(9, 2, 3, 4)))
        labels = rng.normal(size=(9, 4))
        result = estimate_mse_decomposition(preds, labels)
        assert result.per_point.shape == (9, 3)
        assert_allclose(result.risk, result.per_point[:, 0].mean(), rtol=1e-12)
        assert_allclose(result.variance, result.per_point[:, 2].mean(), rtol=1e-12)
        assert_allclose(result.risk, result.bias_sq + result.variance, rtol=1e-12)

    def test_label_shape_mismatch_rejected(self):
        preds = PredictionMatrix(np.zeros((2, 1, 2, 3)))
        with pytest.raises(ValueError, match="shape"):
            estimate_mse_decomposition(preds, np.zeros((2, 4)))

    def test_single_part_rejected(self):
        preds = PredictionMatrix(np.zeros((2, 1, 1, 3)))
        with pytest.raises(ValueError, match="2 parts"):
            estimate_mse_decomposition(preds, np.zeros((2, 3)))

    def test_non_finite_outputs_rejected(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PredictionMatrix(bad)


class TestGeometricMeanDistribution:
    def test_idempotent_on_equal_inputs(self):
        pi = np.array([0.5, 0.3, 0.2])
        assert_allclose(
            geometric_mean_distribution(np.tile(pi, (4, 1))), pi, atol=1e-15
        )

    def test_symmetric_pair_gives_uniform(self):
        out = geometric_mean_distribution(np.array([[0.8, 0.2], [0.2, 0.8]]))
        assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_single_input_passthrough(self):
        pi = np.array([0.9, 0.1])
        assert_allclose(geometric_mean_distribution(pi[None, :]), pi, atol=1e-15)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            geometric_mean_distribution(np.array([[1.0, 0.0]]))


class TestProbabilityEnsemble:
    def test_clamping_keeps_simplex(self):
        raw = np.array([[[[1.0, 0.0], [0.7, 0.3]]]])
        ensemble = ProbabilityEnsemble.from_predictions(raw)
        probs = ensemble.probabilities
        assert probs.min() > 0.0
        assert_allclose(probs.sum(axis=3), 1.0, atol=1e-15)

    def test_strict_constructor_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="positive"):
            ProbabilityEnsemble(np.array([[[[1.0, 0.0]]]]))
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityEnsemble(np.array([[[[0.6, 0.6]]]]))


class TestKlDecomposition:
    def test_perfect_models_have_zero_everything(self):
        raw = np.tile(np.array([1.0, 0.0, 0.0]), (4, 2, 3, 1))
        ensemble = ProbabilityEnsemble.from_predictions(raw)
        labels = np.tile(np.array([1.0, 0.0, 0.0]), (4, 1))
        result = estimate_kl_decomposition(ensemble, labels)
        assert abs(result.risk) < 1e-9
        assert abs(result.bias_sq) < 1e-9
        assert abs(result.variance) < 1e-9

    def test_two_model_hand_example(self):
        """Direct KL evaluation of the {(.8,.2),(.2,.8)} vs one-hot case."""
        ensemble = ProbabilityEnsemble(np.array([[[[0.8, 0.2], [0.2, 0.8]]]]))
        result = estimate_kl_decomposition(ensemble, np.array([[1.0, 0.0]]))
        risk_expected = -(math.log(0.8) + math.log(0.2)) / 2.0
        bias_expected = math.log(2.0)
        assert_allclose(result.risk, risk_expected, atol=1e-12)
        assert_allclose(result.bias_sq, bias_expected, atol=1e-12)
        assert_allclose(result.variance, risk_expected - bias_expected, atol=1e-12)
        assert_allclose(
            [result.risk, result.bias_sq, result.variance],
            [0.91629, 0.69315, 0.22314],
            atol=5e-6,
        )

    def test_single_model_zero_variance(self):
        ensemble = ProbabilityEnsemble(np.array([[[[0.7, 0.3]]]]))
        result = estimate_kl_decomposition(ensemble, np.array([[0.0, 1.0]]))
        assert abs(result.variance) < 1e-12

    def test_identity_on_random_ensembles(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            t, k, n, c = rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 5), rng.integers(2, 6)
            raw = rng.dirichlet(np.ones(c), size=(t, k, n))
            ensemble = ProbabilityEnsemble.from_predictions(raw)
            labels = np.eye(c)[rng.integers(0, c, size=t)]
            result = estimate_kl_decomposition(ensemble, labels)
            gap = np.abs(
                result.per_point[:, 0] - result.per_point[:, 1] - result.per_point[:, 2]
            )
            assert gap.max() < 1e-10

    def test_model_order_irrelevant_bitwise(self):
        rng = np.random.default_rng(5)
        raw = rng.dirichlet(np.ones(3), size=(4, 2, 5))
        labels = np.eye(3)[rng.integers(0, 3, size=4)]
        base = estimate_kl_decomposition(ProbabilityEnsemble.from_predictions(raw), labels)
        shuffled = raw.copy()
        for i in range(2):
            shuffled[:, i] = shuffled[:, i, rng.permutation(5)]
        other = estimate_kl_decomposition(
            ProbabilityEnsemble.from_predictions(shuffled), labels
        )
        assert base.risk == other.risk
        assert base.bias_sq == other.bias_sq
        assert base.variance == other.variance

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([[0.5, 0.5]]),
            np.array([[1.0, 1.0]]),
            np.array([[0.0, 0.0]]),
            np.array([[0.3, 0.7]]),
        ],
    )
    def test_non_one_hot_labels_rejected(self, labels):
        ensemble = ProbabilityEnsemble(np.array([[[[0.6, 0.4], [0.5, 0.5]]]]))
        with pytest.raises(ValueError, match="one-hot"):
            estimate_kl_decomposition(ensemble, labels)


class TestDecompositionProperties:
    """Identities and model-order invariance over random ensembles.

    Hypothesis picks the ensemble shape and a seed; the outputs, labels and
    permutations are drawn from that seed.
    """

    @staticmethod
    def _decompositions(outputs, labels, probs, onehot):
        return (
            estimate_mse_decomposition(PredictionMatrix(outputs), labels),
            estimate_kl_decomposition(ProbabilityEnsemble(probs), onehot),
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(2, 4), st.integers(2, 4)),
    )
    def test_identity_and_model_order_invariance(self, seed, shape):
        rng = np.random.default_rng(seed)
        test_count, repeats, parts, c = shape
        outputs = rng.normal(size=shape)
        labels = rng.normal(size=(test_count, c))
        logits = rng.normal(scale=3.0, size=shape)
        probs = np.exp(logits - logits.max(axis=3, keepdims=True))
        probs /= probs.sum(axis=3, keepdims=True)
        onehot = np.eye(c)[rng.integers(c, size=test_count)]

        # Shuffle the repeats, then the parts inside each repeat; a model's
        # outputs move together across test points.
        order = rng.permutation(repeats)
        part_orders = [rng.permutation(parts) for _ in range(repeats)]

        def shuffle(array):
            moved = array[:, order]
            return np.stack([moved[:, i][:, part_orders[i]] for i in range(repeats)], axis=1)

        base = self._decompositions(outputs, labels, probs, onehot)
        moved = self._decompositions(shuffle(outputs), labels, shuffle(probs), onehot)
        for result, other in zip(base, moved):
            terms = np.array([result.risk, result.bias_sq, result.variance])
            # Relative to the largest term: the squared-loss bias is a
            # difference, so its own size can be far below the others'.
            scale = np.max(np.abs(terms))
            assert_allclose(result.risk, result.bias_sq + result.variance,
                            rtol=0, atol=1e-12 * scale)
            point_scale = np.max(np.abs(result.per_point), axis=1)
            risk_pt, bias_pt, var_pt = result.per_point.T
            assert np.all(np.abs(risk_pt - bias_pt - var_pt) <= 1e-12 * point_scale)
            assert_allclose([other.risk, other.bias_sq, other.variance], terms,
                            rtol=0, atol=1e-12 * scale)
            assert np.all(np.abs(other.per_point - result.per_point)
                          <= 1e-12 * point_scale[:, None])


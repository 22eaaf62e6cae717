"""bvlab: a numerical laboratory for random-design bias-variance decompositions.

Measures squared-error and KL decompositions for pluggable predictor
ensembles, simulates a two-layer linear network with a random first layer
exactly, and evaluates the matching closed-form wide-limit theory, so the
Monte Carlo and analytic routes can be checked against each other.
"""

from .estimators import (
    DecompositionResult,
    PredictionMatrix,
    ProbabilityEnsemble,
    SplitPlan,
    estimate_kl_decomposition,
    estimate_mse_decomposition,
    geometric_mean_distribution,
    plan_splits,
)
from .mlp import (
    LabeledDataset,
    MlpParams,
    TrainConfig,
    init_mlp,
    inject_label_noise,
    load_idx,
    synth_dataset,
    train_sgd,
    width_sweep,
)
from .seeding import derive_seed, spawn_rng
from .theory import (
    BiasVarianceRisk,
    bias_derivative,
    mp_risk,
    narayana,
    narayana_series,
    narayana_series_closed,
    small_lambda_expansion,
    theory_point,
    variance_peak,
)
from .twolayer import (
    LinearNetSample,
    ModelDims,
    m_matrix,
    m_tilde,
    mc_bias_variance,
    mc_risk_mtilde,
    ridge_fit,
    sample_instance,
)

__version__ = "0.1.0"

"""Confidence-weighted implicit-feedback recommendation.

The package trains matrix-factorization preference models where each
observed or missing interaction carries an exposure-derived confidence
weight. Exposure is propagated over a social graph or a learned
pseudo-social graph, and training batches are drawn by random walks whose
stop law matches the propagated weights, so frequent-weight pairs are
sampled often and the per-pair gradient estimator stays unbiased.
"""

from .corpus import (FilterResult, InteractionMatrix, SocialEdges, SplitSpec,
                     binarize_and_filter, load_interactions, load_social,
                     matrix_from_pairs, read_pairs, social_edges,
                     split_folds, split_train_test, write_pairs)
from .errors import (ConfigError, EmptyDatasetError, EstimatorError,
                     GuardError, ParseError, WalkrecError)
from .exposure import (elbo_value, full_objective, g_term, g_term_grad,
                       phi_objective_and_backward, propagate_columns,
                       propagate_forward)
from .factors import (ModelConfig, PreferenceFactors, init_factors,
                      load_factors, predict, predict_pairs, save_factors)
from .graphnet import (PseudoGraphParams, SocialGraphParams,
                       build_pseudo_graph, build_social_graph, load_graph,
                       normalize_edges, save_graph)
from .metrics import EvalReport, evaluate, variance_bench
from .synth import SynthInstance, planted_instance
from .trainer import (TrainConfig, TrainState, fit, fit_uniform_baseline,
                      load_state, save_state)
from .walker import (BASELINE_KINDS, BaselineSampler, SampleBatch,
                     SamplerConfig, WalkEngine)

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS", "BaselineSampler", "ConfigError", "EmptyDatasetError",
    "EstimatorError", "EvalReport", "FilterResult", "GuardError",
    "InteractionMatrix", "ModelConfig", "ParseError", "PreferenceFactors",
    "PseudoGraphParams", "SampleBatch", "SamplerConfig", "SocialEdges",
    "SocialGraphParams", "SplitSpec", "SynthInstance", "TrainConfig",
    "TrainState", "WalkEngine", "WalkrecError", "__version__",
    "binarize_and_filter", "build_pseudo_graph", "build_social_graph",
    "elbo_value", "evaluate", "fit", "fit_uniform_baseline",
    "full_objective", "g_term", "g_term_grad", "init_factors",
    "load_factors", "load_graph", "load_interactions", "load_social",
    "load_state", "matrix_from_pairs", "normalize_edges",
    "phi_objective_and_backward", "planted_instance", "predict",
    "predict_pairs", "propagate_columns", "propagate_forward", "read_pairs",
    "save_factors", "save_graph", "save_state", "social_edges",
    "split_folds", "split_train_test", "variance_bench", "write_pairs",
]

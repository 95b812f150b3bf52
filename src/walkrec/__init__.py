"""Confidence-weighted implicit-feedback recommendation.

The package trains matrix-factorization preference models where each
observed or missing interaction carries an exposure-derived confidence
weight. Exposure is propagated over a social graph or a learned
pseudo-social graph, and training batches are drawn by random walks whose
stop law matches the propagated weights, so frequent-weight pairs are
sampled often and the per-pair gradient estimator stays unbiased.

The top-level names are the ones the README's library example uses;
everything else is imported from its submodule (``walkrec.corpus``,
``walkrec.graphnet``, ``walkrec.walker`` and so on).
"""

from .factors import ModelConfig
from .metrics import evaluate
from .synth import planted_instance
from .trainer import TrainConfig, fit
from .walker import SamplerConfig

__version__ = "0.1.0"

__all__ = [
    "ModelConfig", "SamplerConfig", "TrainConfig", "__version__", "evaluate",
    "fit", "planted_instance",
]

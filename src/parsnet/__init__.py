"""parsnet: self-evolving weakly-supervised learning on data streams.

A single-pass stream classifier built from a tied-weight denoising
autoencoder that shares its encoder with a softmax head, a self-adjusting
Gaussian mixture tracking the input density, bias/variance-driven growth
and pruning of the hidden layer, and a confidence-gated self-labelling
policy whose anchored importance pull contains the damage of wrong pseudo
labels.  A prequential harness covers the sporadic-label and first-batch-
only label protocols.
"""

from .agmm import AgmmModel, EmptyModelError, insertion_threshold
from .cli import (ConfigError, ExperimentConfig, gen_hyperplane, gen_sea,
                  load_csv, run_experiment)
from .network import Network, mask_input, normalized_top2
from .plasticity import (PhaseMonitor, RunningStat, bias_variance,
                         expected_hidden, prune_candidates)
from .slash import HedgeState, ReconScaler, augment, propose_label
from .stream import (Batch, RunConfig, RunMetrics, StreamLearner,
                     StreamScenario, as_batches, make_infinite_delay,
                     make_sporadic, normalize_batches, prequential_run)

__version__ = "0.1.0"

__all__ = [
    "AgmmModel", "EmptyModelError", "insertion_threshold",
    "Network", "mask_input", "normalized_top2",
    "PhaseMonitor", "RunningStat", "bias_variance", "expected_hidden",
    "prune_candidates",
    "HedgeState", "ReconScaler", "augment", "propose_label",
    "Batch", "StreamScenario", "RunConfig", "RunMetrics", "StreamLearner",
    "as_batches", "make_sporadic", "make_infinite_delay", "normalize_batches",
    "prequential_run",
    "ExperimentConfig", "ConfigError", "load_csv", "gen_sea", "gen_hyperplane",
    "run_experiment",
    "__version__",
]

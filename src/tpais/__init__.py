"""Tree-pyramid adaptive importance sampling toolkit."""

from .baselines import MHConfig, PMCConfig, run_mh, run_pmc
from .bench import (DEFAULT_SAMPLE_COUNTS, ExperimentSpec, ResultRow,
                    derive_seed, emit_csv, run_experiments, run_single)
from .metrics import (KDEModel, ess_is, ess_mcmc, evidence_estimate,
                      evidence_mse, expectation_estimate, jsd, kde_density,
                      kde_fit, kl_mc, ness_is)
from .plots import emit_plots
from .proposal import (Kernel, TreeProposal, component_density,
                       mixture_weights, sample_mixture)
from .sampler import (NodeSelection, SamplerConfig, TPAISResult, Weighting,
                      WeightedSampleSet, evidence_from_tree, leaf_sample_set,
                      run_tp_ais)
from .targets import (GaussianMixture, TargetDensity, make_egg_target,
                      make_gmm5_target, make_normal_target)
from .tree import (DEFAULT_MAX_DEPTH, DepthLimitError, DomainBounds, Node,
                   TreePyramid, serialize_tree)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_DEPTH", "DEFAULT_SAMPLE_COUNTS", "DepthLimitError",
    "DomainBounds", "ExperimentSpec", "GaussianMixture", "KDEModel", "Kernel",
    "MHConfig", "Node", "NodeSelection", "PMCConfig", "ResultRow",
    "SamplerConfig", "TargetDensity", "TPAISResult", "TreeProposal",
    "TreePyramid", "WeightedSampleSet", "Weighting", "component_density",
    "derive_seed", "emit_csv", "emit_plots", "ess_is", "ess_mcmc",
    "evidence_estimate", "evidence_from_tree", "evidence_mse",
    "expectation_estimate", "jsd", "kde_density", "kde_fit", "kl_mc",
    "leaf_sample_set", "make_egg_target", "make_gmm5_target",
    "make_normal_target", "mixture_weights", "ness_is", "run_experiments",
    "run_mh", "run_pmc", "run_single", "run_tp_ais", "sample_mixture",
    "serialize_tree",
]

"""Graphical models with exponential-family marginals.

Six quadratic-variance family members drive a three-level hierarchical
construction (shared anchor, pairwise links, node observations) whose node
marginals are invariant and whose pairwise correlations have closed forms in
the edge intensities.  The package provides forward simulation, the exact
dependence formulas, full Bayesian inference via a Gibbs sampler with
Metropolis sub-steps, independent verification oracles, and a CLI.
"""

from .errors import (
    ChainError,
    DataFormatError,
    DomainError,
    EnumerationOverflowError,
    GridConvergenceError,
    InfiniteVarianceError,
    ManifestError,
    QvgraphError,
    SingularModelError,
    SupportViolationError,
)
from .families import (
    Family,
    FamilyKind,
    VarianceCoefficients,
    canonical_maps,
    get_family,
    log_b,
    log_h,
    log_link_density,
    log_w_density,
    sample_link,
    sample_w,
    variance_function,
)
from .inference import (
    ChainState,
    GammaS0Prior,
    MCMCConfig,
    NormalS0Prior,
    ParamSummary,
    PosteriorSamples,
    PriorConfig,
    UniformOnC0S0Prior,
    gibbs_sweep,
    initial_state,
    log_full_conditional_c0,
    log_full_conditional_cjk,
    log_full_conditional_s0,
    log_posterior,
    predictive_mse,
    run_chains,
    sample_link_conditional,
    sample_w_conditional,
    split_chain_psrf,
    summarize,
)
from .io import (
    EdgeWeight,
    NetworkExport,
    RunConfig,
    export_network,
    load_dataset,
    load_samples,
    persist_samples,
    preprocess_reciprocal,
    preprocess_standardize_plus3,
    samples_identical,
    save_dataset,
)
from .model import (
    Dataset,
    Latents,
    ModelParams,
    correlation_matrix,
    log_extended_likelihood,
    marginal_moments,
    pairwise_correlation,
    precision_check_3x3,
    simulate,
)
from .presets import five_area_edge_matrix, five_area_params
from .verify import (
    OracleReport,
    SmallInstance,
    conditional_consistency_check,
    density_normalization_check,
    mc_correlation_check,
    mc_moment_check,
)

__version__ = "0.1.0"

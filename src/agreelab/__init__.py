"""Finite-model laboratory for Bayesian agreement dynamics.

Exact probability models of agents with private signals, announcement
protocols run to their common-knowledge fixed points, and the quantitative
aggregation bounds those fixed points provably satisfy, checked exactly on
small models and statistically at scale.
"""

from .bounds import (
    BoundReport,
    EstimatorMoments,
    ExactSummary,
    conditional_expectation_interval,
    count_law,
    count_posterior,
    default_eps_grid,
    estimator_moments_by_counts,
    estimator_moments_enumerated,
    estimator_y,
    exact_pooled_summary,
    k_statistic,
    learning_bounds,
    qn_bound,
)
from .dynamics import (
    NETWORK_BELIEF,
    PROTOCOL_KINDS,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    ProtocolResult,
    ProtocolTrace,
    fixed_point_partitions,
    run_protocol,
)
from .errors import (
    AbsoluteContinuityError,
    AgreementLabError,
    BoundedBeliefsError,
    ConnectivityError,
    EnumerationBudgetError,
    NonInformativeModelError,
    NonInformativeTruncationError,
    NullConditioningError,
    ScenarioParameterError,
    UnknownSymbolError,
)
from .harness import (
    CHUNK_TRIALS,
    POOLED,
    RNG_VERSION,
    Check,
    SweepTable,
    TrialSummary,
    VerificationReport,
    binary_noise_to_signal_exact,
    chunk_streams,
    default_verification_suite,
    run_monte_carlo,
    senate_exact_summary,
    sweep_n,
    trial_rng,
    verify_report,
)
from .knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    DEFAULT_ENUMERATION_BUDGET,
    TIE,
    OutcomeSpace,
    Partition,
    is_common_knowledge,
    optimal_action_set,
    outcome_space_iid,
    own_signal_partitions,
    pooled_posterior,
    validate_partitions,
)
from .scenarios import (
    Scenario,
    build_scenario,
    flip_accuracy,
    geometric_tail,
    geometric_tail_model,
    iid_binary,
    parity,
    senate,
    two_bit,
    uncorrelated_tight,
)
from .signals import (
    SignalModel,
    belief_from_llr,
    belief_range,
    belief_tail_cdf,
    cov_state_llr,
    kl_divergence,
    log_likelihood_ratio,
    noise_to_signal_ratio,
    private_belief,
    symmetrized_divergence,
    truncate_llr,
    truncated_model,
)

__version__ = "0.1.0"

"""Sharp non-asymptotic prophet-inequality constants for single-threshold
stopping rules on iid sequences: closed-form rewards, discretized zero-sum
games with error certificates, constrained families, and a seeded Monte
Carlo validator."""

__version__ = "0.1.0"

from .constrained import (
    KappaResult,
    ParetoProblem,
    ParetoResult,
    kappa,
    pareto_ratio,
)
from .dist import (
    DiscreteDistribution,
    QuantileIncrements,
    grid_distribution,
    infer_grid_size,
    lfd_from_mu_diff,
    lfd_from_mu_ratio,
)
from .game import (
    GameSolution,
    SharpConstantReport,
    SolverError,
    VerificationResult,
    sharp_ratio,
    sharp_regret,
    solve_game,
    verify_solution,
)
from .kernel import (
    KernelKind,
    PayoffMatrix,
    err_bound_diff,
    err_bound_ratio,
    kernel_a,
    kernel_r,
    lipschitz_a,
    lipschitz_r,
    payoff_matrix,
    prophet_weights,
    reward_matvec,
    reward_rmatvec,
    reward_weights,
    stop_weight,
    support_cutoff,
)
from .reward import (
    OptimalRule,
    RuleEvaluation,
    ThresholdRule,
    ratio_floor,
    floor_rule,
    ehsani_distribution,
    evaluate_rule,
    growth_bound_check,
    optimal_rule,
    reward_by_level,
    reward_v1,
    reward_v2,
    rule_at_level,
    samuel_cahn_closed_forms,
    samuel_cahn_distribution,
)
from .sim import SimConfig, SimResult, TrialStream, run_prophet, run_rule, sample

__all__ = [name for name in dir() if not name.startswith("_")]

"""Sharp non-asymptotic prophet-inequality constants for single-threshold
stopping rules on iid sequences: closed-form rewards, discretized zero-sum
games with error certificates, constrained families, and a seeded Monte
Carlo validator."""

__version__ = "0.1.0"

import types  # __all__ leaves out the submodules: a star import must not rebind a user name

from .constrained import (
    KappaResult,
    ParetoResult,
    kappa,
    pareto_band,
    pareto_ratio,
)
from .dist import (
    DiscreteDistribution,
    grid_distribution,
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
    Generator,
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
from .sim import SimConfig, SimResult, run_prophet, run_rule

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))

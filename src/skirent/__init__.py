"""Robust and consistent ski-rental policies from distributional advice."""

from .baselines import BaselineKind, baseline_policy, lambda_from_r, purohit_branch, r_from_lambda
from .deterministic import (
    NEVER,
    BoundReport,
    Threshold,
    clamp_threshold,
    cr_bound_early,
    cr_bound_late,
    exact_ecr,
    expected_cost_threshold,
    is_never,
    optimal_threshold,
    robust_consistent_bound,
    sufficient_condition_check,
)
from .distributions import (
    DayDistribution,
    Family,
    FamilySpec,
    expected_opt,
    make_distribution,
    parse_distribution,
    perturb_wasserstein,
    survival,
    total_variation,
    wasserstein1,
)
from .errors import (
    DegenerateTailError,
    EmptySupportError,
    InfeasibleError,
    InvalidParamsError,
    InvalidRError,
    InvariantError,
    ScaleExceededError,
    SkirentError,
)
from .evaluation import (
    ExperimentResult,
    ResultRow,
    TABLE_FAMILIES,
    case_study_lambda_third,
    consistency,
    run_consistency_table,
    run_perturbation_sweep,
    sweep_true_distribution,
)
from .oracle import LpInstance, brute_force_threshold, lp_instance_from_cost, lp_solve
from .randomized import (
    CostFunction,
    RobustnessReport,
    StoppingDistribution,
    WaterLevelSearch,
    build_cost_function,
    check_robustness,
    expected_policy_cost,
    extension_condition_check,
    feasible_robustness,
    geometric_cdf,
    level_feasible,
    minimal_water_level,
    onehot_exact,
    parse_policy,
    realized_worst_ratio,
    water_fill,
)

__version__ = "0.1.0"

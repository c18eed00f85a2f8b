"""Quadratic funding with capital-constrained matching pools.

Allocation math for quadratic-rule grant rounds whose matches are scaled
down to a fixed pool, plus the analytics that go with it: share
concentration, marginal-benefit multipliers, best-response and planner
equilibria, collusion thresholds, a day-by-day round simulator, and
reciprocal-backing forensics over contribution ledgers.
"""

from .concentration import (
    BudgetedContributor,
    ShareProfile,
    decomposed_match,
    max_match,
    share_profile,
    total_match_for_shares,
)
from .efficiency import (
    DispersionStats,
    LambdaReport,
    dispersion,
    k_sweep,
    lambda_lower_bound,
    lambda_p,
    lambda_report,
)
from .equilibrium import (
    EquilibriumResult,
    PlannerResult,
    Valuation,
    best_response,
    load_valuations,
    planner_optimum,
    welfare,
)
from .errors import (
    BudgetBreachError,
    DomainError,
    LedgerFormatError,
    NoMatchableProjectsError,
)
from .funding import (
    ProjectLedger,
    compute_k,
    cqf_allocate,
    marginal_match,
    matching_requirement,
    qf_target,
    required_match,
)
from .ledger import (
    ContributionGraph,
    TeamRoster,
    build_graph,
    cross_category_stats,
    load_budgets,
    load_contributions,
    load_pools,
    load_roster,
    reciprocity_stats,
)
from .report import AllocationReport, build_report
from .roundsim import (
    AgentSpec,
    CategorySpec,
    PoolEvent,
    RoundConfig,
    RoundTrajectory,
    deficit_curve,
    emit_panel,
    run_repeated_rounds,
    run_round,
)
from .strategy import (
    CollusionThresholds,
    PayoffMatrix,
    alpha_double_star,
    alpha_star,
    collusion_thresholds,
    payoff_matrix,
    repeated_game_simulate,
    ring_payoff,
    trigger_sustainable,
)

__version__ = "0.1.0"

__all__ = [
    "AgentSpec",
    "AllocationReport",
    "BudgetBreachError",
    "BudgetedContributor",
    "CategorySpec",
    "CollusionThresholds",
    "ContributionGraph",
    "DispersionStats",
    "DomainError",
    "EquilibriumResult",
    "LambdaReport",
    "LedgerFormatError",
    "NoMatchableProjectsError",
    "PayoffMatrix",
    "PlannerResult",
    "PoolEvent",
    "ProjectLedger",
    "RoundConfig",
    "RoundTrajectory",
    "ShareProfile",
    "TeamRoster",
    "Valuation",
    "alpha_double_star",
    "alpha_star",
    "best_response",
    "build_graph",
    "build_report",
    "collusion_thresholds",
    "compute_k",
    "cqf_allocate",
    "cross_category_stats",
    "decomposed_match",
    "deficit_curve",
    "dispersion",
    "emit_panel",
    "k_sweep",
    "lambda_lower_bound",
    "lambda_p",
    "lambda_report",
    "load_budgets",
    "load_contributions",
    "load_valuations",
    "load_pools",
    "load_roster",
    "marginal_match",
    "matching_requirement",
    "max_match",
    "payoff_matrix",
    "planner_optimum",
    "qf_target",
    "reciprocity_stats",
    "repeated_game_simulate",
    "required_match",
    "ring_payoff",
    "run_repeated_rounds",
    "run_round",
    "share_profile",
    "total_match_for_shares",
    "trigger_sustainable",
    "welfare",
]

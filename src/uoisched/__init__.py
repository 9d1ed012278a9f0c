"""Gain-index scheduling for minimizing the uncertainty of information (UoI)
of finite-state Markov sources sharing a limited set of channels.

The library decomposes the scheduling problem into single-bandit belief MDPs
with a service charge, finds the optimal charge by a gradient search on the
concave piecewise-linear dual, computes per-state gain indices, and evaluates
the resulting top-m policy against baselines and an exact joint oracle.
"""

from .belief_mdp import (
    BanditSpec,
    TruncatedBeliefMDP,
    TruncationDiagnostics,
    average_error_bound,
    build_truncated,
    choose_truncation,
    discounted_error_bound,
    transition_matrices,
    truncation_diagnostics,
)
from .errors import (
    ChainError,
    ConfigError,
    DimensionMismatch,
    IndexOutOfRange,
    MaxItersExceeded,
    NoConvergence,
    NotStochastic,
    Periodic,
    Reducible,
    StateSpaceTooLarge,
    TruncationTooDeep,
)
from .index_policy import (
    GainIndexTable,
    gain_index_general,
    gain_index_tables,
    gain_indices_average,
    gain_indices_discounted,
    load_table,
    or_active,
    save_table,
)
from .lagrange import (
    GradientTrace,
    LagrangeProblem,
    gradient_search,
    make_problem,
    objective_derivative,
    objective_value,
)
from .markov import (
    ChainSpec,
    belief_propagate,
    belief_reset,
    entropies,
    entropy,
    n_step_column,
    uoi,
    validate_chain,
)
from .oracle import JointMDP, OracleResult, build_joint, joint_solve_average, joint_solve_discounted
from .rng import Xoshiro256StarStar
from .simulate import (
    AsymptoticSweep,
    RMABInstance,
    SimResult,
    asymptotic_sweep,
    discounted_horizon,
    simulate,
)
from .solvers import (
    AVERAGE,
    DISCOUNTED,
    PolicyAndValues,
    average_policy_evaluation,
    criterion_of,
    policy_evaluation_discounted,
    policy_iteration_discounted,
    solve_average,
)

__version__ = "0.1.0"

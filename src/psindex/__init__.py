"""Index policies for banks of egalitarian processor-sharing queues.

The toolkit computes Whittle indices per queue, runs the resulting
scheduling policy against exact dynamic programming and myopic or
random baselines in a slotted simulator, and certifies the structural
properties (threshold optimality, indexability, monotone stationary
mass, drift stability) that justify the index heuristic.
"""

from .model import (ConvergenceError, LyapunovCertificate, ServerParams,
                    SystemConfig, ValidationReport, lyapunov_certificate,
                    lyapunov_margin, passive_kernel, transition_kernel,
                    validate_config)
from .threshold import (optimal_threshold_costs, stationary_distribution,
                        threshold_chains)
from .whittle import (IndexIterationConfig, IndexTable, ValueSolution,
                      bisect_index, build_index_table, compute_index,
                      index_residual, solve_value)
from .dp import (BruteForceResult, JointSolution, SingleQueueSolution,
                 active_interval, admission_gain_profile,
                 brute_force_policy_search, joint_policy_average_cost,
                 joint_rvi, policy_reachable_states, single_queue_rvi)
from .policies import CmuPolicy, ExactPolicy, RandomPolicy, WhittlePolicy
from .sim import ComparisonTable, DepartureSampler, SimReport, compare, simulate

__all__ = [
    "ConvergenceError", "LyapunovCertificate", "ServerParams",
    "SystemConfig", "ValidationReport", "lyapunov_certificate",
    "lyapunov_margin", "passive_kernel", "transition_kernel",
    "validate_config",
    "optimal_threshold_costs", "stationary_distribution",
    "threshold_chains",
    "IndexIterationConfig", "IndexTable", "ValueSolution", "bisect_index",
    "build_index_table", "compute_index", "index_residual", "solve_value",
    "BruteForceResult", "JointSolution", "SingleQueueSolution",
    "active_interval", "admission_gain_profile",
    "brute_force_policy_search", "joint_policy_average_cost", "joint_rvi",
    "policy_reachable_states", "single_queue_rvi",
    "CmuPolicy", "ExactPolicy", "RandomPolicy", "WhittlePolicy",
    "ComparisonTable", "DepartureSampler", "SimReport", "compare",
    "simulate",
]

__version__ = "0.1.0"

"""Index policies for banks of egalitarian processor-sharing queues.

The toolkit computes Whittle indices per queue, runs the resulting
scheduling policy against exact dynamic programming and myopic or
random baselines in a slotted simulator, and certifies the structural
properties (threshold optimality, indexability, monotone stationary
mass, drift stability) that justify the index heuristic.

Importing the package loads only the stdlib-only config layer (the
bank, its validation and the index knobs). Every other exported name
is imported from its module on first access (PEP 562) and then kept
here, so checking a configuration never pays for numpy or scipy.
"""

import importlib

from .config import (ConvergenceError, IndexIterationConfig, ServerParams,
                     SystemConfig, ValidationReport, validate_config)

# The module that defines each exported name, in the order of __all__.
_HOME = {
    "ConvergenceError": "config", "LyapunovCertificate": "model",
    "ServerParams": "config", "SystemConfig": "config",
    "ValidationReport": "config", "lyapunov_certificate": "model",
    "lyapunov_margin": "model", "passive_kernel": "model",
    "transition_kernel": "model", "validate_config": "config",
    "optimal_threshold_costs": "threshold",
    "threshold_chains": "threshold",
    "IndexIterationConfig": "config", "IndexTable": "whittle",
    "ValueSolution": "whittle", "bisect_index": "whittle",
    "build_index_table": "whittle", "compute_index": "whittle",
    "index_residual": "whittle", "solve_value": "whittle",
    "JointSolution": "dp", "SingleQueueSolution": "dp",
    "active_interval": "dp", "admission_gain_profile": "dp",
    "joint_rvi": "dp", "single_queue_rvi": "dp",
    "CmuPolicy": "policies", "ExactPolicy": "policies",
    "RandomPolicy": "policies", "WhittlePolicy": "policies",
    "ComparisonTable": "sim", "DepartureSampler": "sim",
    "SimReport": "sim", "compare": "sim", "simulate": "sim",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

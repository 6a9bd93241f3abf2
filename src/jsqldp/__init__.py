"""Weighted join-the-shortest-queue networks: simulation, fluid limits and
large-deviation rate computations."""

__version__ = "0.9.1"

from .cost import PoissonCost, pi, pi_vec
from .fluid import FluidSolution, fluid_solve, lyapunov_check
from .ldp import (
    ActionReport,
    ActionSegment,
    NoFiniteStartError,
    RareEventSpec,
    TooFewHitsError,
    estimate_rare_event,
    minimize_action,
    path_action,
    wilson_interval,
)
from .piecewise import PiecewisePath
from .rate import (
    DomainLabel,
    RateWitness,
    SolverError,
    classify_domain,
    label_matches,
    local_rate,
    local_rate_bruteforce,
    psi_ij,
)
from .sim import SamplePath, TieRule, audit, scale_counters, scale_path, simulate
from .topology import Topology, TopologyError, dump, load, validate

__all__ = [
    "ActionReport",
    "ActionSegment",
    "DomainLabel",
    "FluidSolution",
    "NoFiniteStartError",
    "PiecewisePath",
    "PoissonCost",
    "RareEventSpec",
    "RateWitness",
    "SamplePath",
    "SolverError",
    "TieRule",
    "TooFewHitsError",
    "Topology",
    "TopologyError",
    "audit",
    "classify_domain",
    "dump",
    "estimate_rare_event",
    "fluid_solve",
    "label_matches",
    "load",
    "local_rate",
    "local_rate_bruteforce",
    "lyapunov_check",
    "minimize_action",
    "path_action",
    "pi",
    "pi_vec",
    "psi_ij",
    "scale_counters",
    "scale_path",
    "simulate",
    "validate",
    "wilson_interval",
]

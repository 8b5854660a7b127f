"""Causal interventions in multivariate Ornstein-Uhlenbeck SDEs.

Pin a coordinate of dX = B (X - A) dt + sigma dW to a constant, obtain the
reduced OU model, decide existence of stationary laws, classify stability of
the mean-reversion matrix and its principal submatrices, and validate every
closed form by exact-transition or Euler simulation.
"""

from . import errors
from .models import (
    DependenceGraph,
    GeneralSde,
    Intervention,
    InterventionRecord,
    OuModel,
    dependence_graph,
    intervene_general,
    intervene_ou,
    intervene_seq,
    intervened_dependence_graph,
    ou_as_general,
)
from .simulate import (
    PathBundle,
    PathStats,
    TimeGrid,
    coupled_intervention_diff,
    exact_transition,
    path_stats,
    simulate_paths,
    uniform_grid,
)
from .stability import (
    Classification,
    StabilityReport,
    SubmatrixScreen,
    classify,
    diagonal_lyapunov_certificate,
    is_stable,
    screen_principal_submatrices,
    spectral_abscissa,
    verify_diagonal_certificate,
)
from .stationary import (
    GaussianLaw,
    StationarityVerdict,
    Verdict,
    controllability_rank,
    intervened_stationary_closed_form,
    stationary_distribution,
    stationary_exists,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "DependenceGraph",
    "GaussianLaw",
    "GeneralSde",
    "Intervention",
    "InterventionRecord",
    "OuModel",
    "PathBundle",
    "PathStats",
    "StabilityReport",
    "StationarityVerdict",
    "SubmatrixScreen",
    "TimeGrid",
    "Verdict",
    "classify",
    "controllability_rank",
    "coupled_intervention_diff",
    "dependence_graph",
    "diagonal_lyapunov_certificate",
    "errors",
    "exact_transition",
    "intervene_general",
    "intervene_ou",
    "intervene_seq",
    "intervened_dependence_graph",
    "intervened_stationary_closed_form",
    "is_stable",
    "ou_as_general",
    "path_stats",
    "screen_principal_submatrices",
    "simulate_paths",
    "spectral_abscissa",
    "stationary_distribution",
    "stationary_exists",
    "uniform_grid",
    "verify_diagonal_certificate",
]

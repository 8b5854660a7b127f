"""Causal interventions in multivariate Ornstein-Uhlenbeck SDEs.

Pin a coordinate of dX = B (X - A) dt + sigma dW to a constant, obtain the
reduced OU model, decide existence of stationary laws, classify stability of
the mean-reversion matrix and its principal submatrices, and validate every
closed form by exact-transition or Euler simulation.

Names load on first use (PEP 562): `import oucausal` imports only `errors`,
and reading an exported name imports the module that defines it, so a
caller that never simulates never loads `oucausal.simulate`.
"""

import importlib

from . import errors

# Each exported name, under the module that defines it.
_EXPORTS = {
    "models": ("DependenceGraph", "GeneralSde", "Intervention", "InterventionRecord",
               "OuModel", "dependence_graph", "intervene_general", "intervene_ou",
               "intervene_seq", "ou_as_general"),
    "simulate": ("PathBundle", "PathStats", "TimeGrid", "coupled_intervention_diff",
                 "exact_transition", "path_stats", "simulate_paths", "uniform_grid"),
    "stability": ("Classification", "StabilityReport", "SubmatrixScreen", "classify",
                  "diagonal_lyapunov_certificate", "is_stable",
                  "screen_principal_submatrices", "spectral_abscissa",
                  "verify_diagonal_certificate"),
    "stationary": ("GaussianLaw", "StationarityVerdict", "Verdict", "controllability_rank",
                   "stationary_distribution", "stationary_exists"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(["errors", *_HOME])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

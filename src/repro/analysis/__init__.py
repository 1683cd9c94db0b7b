"""Analysis tooling: potentials, symmetry, fits, sweeps, tables."""

from .fitting import MODELS, best_model, fit_constant, growth_exponent
from .potential import KnowledgeReplay, initial_potential
from .sweep import (
    SweepCell,
    SweepPlan,
    SweepResult,
    SweepRow,
    cell_key,
    get_algorithm,
    measure,
    registered_algorithms,
)
from .symmetry import LiveRoundProfile, live_round_profile, symmetry_ratio
from .tables import format_table, print_table

__all__ = [
    "KnowledgeReplay",
    "LiveRoundProfile",
    "MODELS",
    "SweepCell",
    "SweepPlan",
    "SweepResult",
    "SweepRow",
    "best_model",
    "cell_key",
    "fit_constant",
    "format_table",
    "get_algorithm",
    "growth_exponent",
    "initial_potential",
    "live_round_profile",
    "measure",
    "print_table",
    "registered_algorithms",
    "symmetry_ratio",
]

"""Finite truncations of dyadic level systems for monomial languages.

Build word systems W(2^(i+1)) = C(2^i) W(2^i) from an exactly evaluated
growth function, optionally forcing uniform recurrence (suffix captures) or
free power-monomial generators, then verify growth sandwiches, recurrence
gaps, entropy partials, and freeness certificates with exact arithmetic.
"""

from .growth import (
    GrowthSpec,
    geometric,
    poly_geometric,
    sharp_paper,
    exp_power,
    table_spec,
    check_basic,
    check_rapid_growth,
    check_capture_conditions,
    compute_mu,
    verify_hypotheses,
)
from .construction import (
    Alphabet,
    CSet,
    LevelSystem,
    CaptureEntry,
    FreeParams,
    build_plain,
    build_uniformly_recurrent,
    build_free_power_system,
)
from .analyzer import (
    factor_set_bruteforce,
    dim_series,
    check_growth_sandwich,
    verify_recurrence_gaps,
    check_nonperiodicity,
    minimal_forbidden_words,
    entropy_report,
)
from .freesub import (
    compute_t,
    degree_lower_bound,
    optimality_report,
    verify_free_generators,
)
from .persist import save_system, load_system
from . import errors

__version__ = "0.1.0"

__all__ = [
    "GrowthSpec", "geometric", "poly_geometric", "sharp_paper", "exp_power",
    "table_spec", "check_basic", "check_rapid_growth", "check_capture_conditions",
    "compute_mu", "verify_hypotheses",
    "Alphabet", "CSet", "LevelSystem", "CaptureEntry", "FreeParams",
    "build_plain", "build_uniformly_recurrent", "build_free_power_system",
    "factor_set_bruteforce", "dim_series", "check_growth_sandwich",
    "verify_recurrence_gaps", "check_nonperiodicity", "minimal_forbidden_words",
    "entropy_report",
    "compute_t", "degree_lower_bound", "optimality_report", "verify_free_generators",
    "save_system", "load_system", "errors",
]

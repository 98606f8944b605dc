"""Bootstrap percolation on [n]^d x [k]^ell: closure dynamics, spans,
crossing events, the threshold-constant integral, and seeded Monte Carlo.

``import bootperc`` loads the input rules and ``analytic`` only, neither of
which imports numpy.  The lattice modules ``structures``, ``dynamics``,
``span`` and ``montecarlo`` are imported together on the first use of any
of their names (or of a module name, such as ``bootperc.structures``), and
their names are then bound here, so that later uses are plain attributes.
"""

import importlib

from .rules import DomainError
from .analytic import (
    DEFAULT_SETTINGS,
    ConvergenceError,
    QuadratureSettings,
    beta,
    g,
    l_exact,
    lambda_constant,
    lambda_table,
    q_of_p,
)

__version__ = "0.1.0"

# The lattice modules, in import order, and the names each re-exports.
_LATTICE = {
    "structures": (
        "PLAIN", "STAR", "SLAB",
        "CellSet", "Coord", "Rectangle", "StructureSpec",
        "bounding_rectangle", "components", "diameter", "neighbors",
        "projection", "threshold",
    ),
    "dynamics": (
        "CrossDirection", "LEFT_TO_RIGHT", "RIGHT_TO_LEFT",
        "BOTTOM_TO_TOP", "TOP_TO_BOTTOM",
        "closure", "closure_uniform", "has_double_gap", "is_crossed",
        "is_semi_crossed", "percolates", "semi_percolates",
    ),
    "span": (
        "SpanResult", "find_spanned_component", "find_spanned_rectangle",
        "internally_spans", "span_direct", "span_main_algorithm",
    ),
    "montecarlo": (
        "PERCOLATES", "SEMI_PERCOLATES", "SPANS", "CROSSED", "SEMI_CROSSED",
        "LONG_SPAN", "SWEEP_COLUMNS",
        "Estimate", "EventSpec", "SweepConfig", "SweepPoint",
        "derive_seed", "estimate_event_prob", "estimate_lgap",
        "estimate_p_alpha", "run_sweep", "sample_bin", "trial_rng",
        "wilson_interval",
    ),
}

__all__ = [
    "DomainError",
    "ConvergenceError", "QuadratureSettings", "DEFAULT_SETTINGS",
    "beta", "g", "l_exact", "lambda_constant", "lambda_table", "q_of_p",
    *(name for names in _LATTICE.values() for name in names),
]


def __getattr__(name: str):
    """Import the lattice modules and bind their names, on the first use of
    one of them; any other unknown name is an AttributeError."""
    if name not in _LATTICE and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _LATTICE.items():
        home = importlib.import_module(f".{module}", __name__)
        globals().update((each, getattr(home, each)) for each in names)
    return globals()[name]

"""Fractional-order denatured Morris-Lecar neurons.

Simulation of single and coupled cells under a Caputo-type memory operator,
with closed-form equilibrium, stability and bifurcation analysis.

The closed-form analysis runs on ``math`` alone.  The solver's names
(``solve_fde``, ``run_experiment``, ``bifurcation_sweep`` and their records)
import numpy, so they are loaded on first use.
"""

import importlib

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    DmlNeuroError,
    GridMemoryError,
    InsufficientSamplesError,
    NonFiniteStateError,
    NumericalError,
)
from .models import (
    CouplingSpec,
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
    SolverConfig,
    check_order,
)
from .equilibria import (
    Branch,
    EquilibriumSet,
    critical_points,
    find_symmetric_equilibria,
    fold_voltages,
    i_infinity,
    i_infinity_derivative,
    y_infinity,
)
from .stability import (
    BetaStarKind,
    BetaStarResult,
    Classification,
    HopfCurve,
    beta_star,
    classify,
    hopf_curve,
    indicators,
    jacobian,
)

# solver name -> its module, imported with numpy when the name is first read
_SOLVER = {
    "Trajectory": "fde",
    "mittag_leffler": "fde",
    "solve_fde": "fde",
    "BifurcationScan": "experiments",
    "SimulationSummary": "experiments",
    "bifurcation_sweep": "experiments",
    "run_experiment": "experiments",
}


def __getattr__(name):
    if name not in _SOLVER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOLVER[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

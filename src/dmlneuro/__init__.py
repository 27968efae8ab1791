"""Fractional-order denatured Morris-Lecar neurons.

Simulation of single and coupled cells under a Caputo-type memory operator,
with closed-form equilibrium, stability and bifurcation analysis.
"""

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    DmlNeuroError,
    GridMemoryError,
    InsufficientSamplesError,
    NonFiniteStateError,
    NumericalError,
)
from .fde import (
    SolverConfig,
    Trajectory,
    check_order,
    mittag_leffler,
    solve_fde,
)
from .models import (
    CouplingSpec,
    DmlParams,
    LinearCoupling,
    NoCoupling,
    SigmoidCoupling,
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
    beta_star,
    classify,
    indicators,
    jacobian,
)
from .experiments import (
    BifurcationScan,
    HopfCurve,
    SimulationSummary,
    bifurcation_sweep,
    hopf_curve,
    run_experiment,
)

__version__ = "0.1.0"

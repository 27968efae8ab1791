"""Fractional-order denatured Morris-Lecar neurons.

Simulation of single and coupled cells under a Caputo-type memory operator,
with closed-form equilibrium, stability and bifurcation analysis.
"""

from .exceptions import (
    ConvergenceError,
    DegenerateDeterminantError,
    DimensionMismatchError,
    DmlNeuroError,
    InsufficientSamplesError,
    NoExtremaError,
    NonFiniteStateError,
    NumericalError,
    RootWindowExhaustedError,
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
    vector_field,
)
from .equilibria import (
    Branch,
    EquilibriumSet,
    InfCurveExtrema,
    classify_branch,
    find_extrema,
    find_symmetric_equilibria,
    i_infinity,
    i_infinity_derivative,
    y_infinity,
)
from .stability import (
    BetaStarKind,
    BetaStarResult,
    Classification,
    SaddleNodeReport,
    StabilityIndicators,
    beta_star,
    classify,
    eigenvalues,
    indicators,
    jacobian,
    saddle_node_condition,
)
from .experiments import (
    BifurcationScan,
    HopfCurve,
    OscillationMetrics,
    SimulationSummary,
    bifurcation_sweep,
    hopf_curve,
    oscillation_metrics,
    run_experiment,
)

__version__ = "0.1.0"

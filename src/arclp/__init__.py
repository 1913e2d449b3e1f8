"""Arc-search interior-point methods for linear programming.

The package solves ``min c @ x : A @ x = b, x >= 0`` (and MPS files via
the ingestion pipeline) with interior-point methods that follow an
ellipsoidal arc approximation of the central path, optionally restarted
each iteration with Nesterov-style momentum.  See :mod:`arclp.solvers`
for the four methods and :mod:`arclp.bench` for the benchmark harness.
"""

from .bench import (BenchmarkRecord, ProfileCurve, average_time_report,
                    performance_profile, records_from_csv, records_to_csv,
                    run_benchmark, solve_mps_file)
from .core import (arc_point, duality_measure, in_neighborhood,
                   momentum_weight_full, momentum_weight_simple, residuals,
                   restart_point)
from .linalg import NewtonFactor, NumericalError, factor, solve_block
from .mps import MpsParseError, RawLP, parse_mps, write_mps
from .presolve import PresolveReport, presolve
from .solvers import (SolveResult, SolverConfig, Status, check_convergence,
                      check_theoretical_stop, initial_point_alg1,
                      initial_point_mehrotra, max_alpha_positivity, solve)
from .standardize import (InfeasibleBoundsError, StandardLP, VarMap,
                          recover_solution, to_standard_form)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRecord", "ProfileCurve", "average_time_report",
    "performance_profile", "records_from_csv", "records_to_csv",
    "run_benchmark", "solve_mps_file",
    "arc_point", "duality_measure", "in_neighborhood",
    "momentum_weight_full", "momentum_weight_simple", "residuals",
    "restart_point",
    "NewtonFactor", "NumericalError", "factor", "solve_block",
    "MpsParseError", "RawLP", "parse_mps", "write_mps",
    "PresolveReport", "presolve",
    "SolveResult", "SolverConfig", "Status", "check_convergence",
    "check_theoretical_stop", "initial_point_alg1",
    "initial_point_mehrotra", "max_alpha_positivity", "solve",
    "InfeasibleBoundsError", "StandardLP", "VarMap", "recover_solution",
    "to_standard_form",
]

"""Positive solutions of order-alpha two-point Dirichlet problems on [0,1].

The package discretizes the equivalent kernel integral equation by product
integration and builds on it: principal eigenvalue and eigenfunction of the
weighted linear problem, monotone iteration with sub/super-solution brackets
in the sublinear regime, Newton solves with nondegeneracy margins and
continuation in the order alpha in the superlinear regime, and a shooting
pipeline for Henon-type weights that seeds the multiplicity experiments.
"""

from .errors import (ConvergenceError, DegeneratePointError, FracBVPError,
                     HorizonError, HypothesisError, IntegrationError,
                     MonotonicityError, ScalingError, TransversalityError)
from .grid import (GridFunction, Mesh, boundary_weight,
                   default_grading_exponent, make_mesh, production_mesh)
from .operator import (NonlinearityFamily, OperatorMatrix, WeightFamily,
                       assemble)
from .eigen import (EigenResult, Lambda1Bounds, SweepRow, lambda1_bounds,
                    principal_eigenpair, sweep_alpha)
from .sublinear import (Bracket, ProbeReport, SolveReport, find_bracket,
                        monotone_solve, nonexistence_probe)
from .superlinear import (ContinuationTrace, NewtonReport,
                          NondegeneracyReport, continue_alpha,
                          find_positive_solution, newton_solve, nondegeneracy)
from .shooting import (HenonParams, ShootingRecord, UnitSolution,
                       continue_crossings, find_crossings, rescale_to_unit,
                       unit_problem)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FracBVPError", "HypothesisError", "ConvergenceError",
    "DegeneratePointError", "MonotonicityError", "IntegrationError",
    "HorizonError", "TransversalityError", "ScalingError",
    "Mesh", "GridFunction", "make_mesh", "production_mesh",
    "default_grading_exponent", "boundary_weight",
    "WeightFamily", "NonlinearityFamily", "OperatorMatrix", "assemble",
    "EigenResult", "Lambda1Bounds", "SweepRow", "principal_eigenpair",
    "lambda1_bounds", "sweep_alpha",
    "Bracket", "SolveReport", "ProbeReport", "find_bracket", "monotone_solve",
    "nonexistence_probe",
    "NewtonReport", "NondegeneracyReport", "ContinuationTrace", "newton_solve",
    "nondegeneracy", "continue_alpha", "find_positive_solution",
    "HenonParams", "ShootingRecord", "UnitSolution", "find_crossings",
    "rescale_to_unit", "unit_problem", "continue_crossings",
]

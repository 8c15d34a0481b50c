"""Cycle-lift trees of polynomial and rational self-maps of Z/p^nZ.

The package enumerates cycles and tails exhaustively (the oracle), computes
per-cycle linearization data, classifies lift behaviour, predicts the shape
of the infinite lift tree from a finite prefix, and verifies every analytic
claim against the oracle.
"""

from .arith import IntPoly, OddPrime, Valuation, iterate_series, mult_order, ord_p
from .checkers import InverseEvalMap, RationalMap, is_permutation, is_single_cycle
from .errors import (BadReductionError, BudgetExceededError, CycletreeError,
                     InvariantError, NotACycleError, NotPeriodicError, SeparationError)
from .graph import (Cycle, LevelDecomposition, TailStats, build_tree_bruteforce,
                    enumerate_level, tail_analysis)
from .lifting import (Behavior, Classification, CycleNode, LinearData, classify,
                      classify_lifts, compute_lin, expand_children, make_node)
from .predictor import (AnalyzedTree, OrbitReport, PredictedShape,
                        SeparationAnalysis, ShapeKind, analyze, check_corollaries,
                        predict, separation_analysis)
from .verify import verify_all, verify_map

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "OddPrime", "Valuation", "iterate_series", "mult_order", "ord_p",
    "Cycle", "LevelDecomposition", "TailStats", "build_tree_bruteforce",
    "enumerate_level", "tail_analysis",
    "Behavior", "Classification", "CycleNode", "LinearData", "classify",
    "classify_lifts", "compute_lin", "expand_children", "make_node",
    "AnalyzedTree", "OrbitReport", "PredictedShape", "SeparationAnalysis",
    "ShapeKind", "analyze", "check_corollaries", "predict", "separation_analysis",
    "InverseEvalMap", "RationalMap", "is_permutation", "is_single_cycle",
    "verify_all", "verify_map",
    "CycletreeError", "BudgetExceededError", "BadReductionError", "InvariantError",
    "NotACycleError", "NotPeriodicError", "SeparationError",
    "__version__",
]

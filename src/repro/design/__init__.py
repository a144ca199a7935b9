"""``repro.design`` — closed-loop HFPU design-space optimizer.

Searches sharing degree × L1 FPU design × per-phase precision policy
under user-supplied area/energy budgets and emits verified Pareto
fronts (area mm², energy nJ/op, throughput improvement, believability
margin).  See :mod:`repro.design.space` for the model,
:mod:`repro.design.optimizer` for the loop, and the ``repro design``
CLI / serve ``design`` op for the boundaries.
"""

from .evaluate import DesignEval, evaluate_point
from .optimizer import DesignResult, SearchStats, run_search
from .pareto import ARTIFACT_VERSION, ParetoFront, dominates
from .space import (
    DESIGN_CHOICES,
    SHARING_DEGREES,
    Budgets,
    DesignPoint,
    DesignQuery,
    DesignSpace,
    DesignSpaceError,
    design_by_name,
    paper_points,
)

__all__ = [
    "ARTIFACT_VERSION",
    "DESIGN_CHOICES",
    "SHARING_DEGREES",
    "Budgets",
    "DesignEval",
    "DesignPoint",
    "DesignQuery",
    "DesignResult",
    "DesignSpace",
    "DesignSpaceError",
    "ParetoFront",
    "SearchStats",
    "design_by_name",
    "dominates",
    "evaluate_point",
    "paper_points",
    "run_search",
]

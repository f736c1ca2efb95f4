"""Local-search maximization of set functions under matroid constraints,
with exact structural diagnostics (meta-submodularity parameter, curvature
classification, multilinear-extension smoothness, and distance-matrix checks).
"""

from .errors import GuardError, ValidationError
from .matching import Matching, max_weight_matching_k
from .matroid import (
    GraphicMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
)
from .setfn import (
    CoverageFunction,
    DiversityFunction,
    SetFunctionOracle,
    TableFunction,
    elements_of,
    mask_of,
)
from .search import SolveResult, brute_force_opt, solve

__all__ = [
    "GuardError",
    "ValidationError",
    "Matching",
    "max_weight_matching_k",
    "MatroidOracle",
    "UniformMatroid",
    "PartitionMatroid",
    "GraphicMatroid",
    "SetFunctionOracle",
    "DiversityFunction",
    "CoverageFunction",
    "TableFunction",
    "mask_of",
    "elements_of",
    "SolveResult",
    "solve",
    "brute_force_opt",
]

__version__ = "0.1.0"

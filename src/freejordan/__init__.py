"""Exact graded-dimension computations for free Jordan superalgebras."""

from .homology import ChainComplex, compute_homology
from .jordan import GradedJordanAlgebra, build_free_jordan
from .rings import GDim, RLaurent, TZSeries
from .solver import residual_series, solve_dims, solve_dims_pair
from .tag import TagAlgebra, build_Bs, build_tag, inner_rank_diagnostic

__all__ = [
    "ChainComplex",
    "GDim",
    "GradedJordanAlgebra",
    "RLaurent",
    "TZSeries",
    "TagAlgebra",
    "build_Bs",
    "build_free_jordan",
    "build_tag",
    "compute_homology",
    "inner_rank_diagnostic",
    "residual_series",
    "solve_dims",
    "solve_dims_pair",
]

__version__ = "0.1.0"

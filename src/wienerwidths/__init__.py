"""Exact widths of weighted Wiener and mixed-smoothness Sobolev embeddings.

The package computes the four classical s-numbers (approximation,
Kolmogorov, Bernstein, Weyl) of embeddings whose singular values are the
nonincreasing rearrangement of {1/omega(k) : k in Z^d} for a family of
lattice weights omega, and numerically verifies the asymptotic constants
and exact lattice-count identities that govern their decay.
"""
from .weights import Family, WeightSpec, log_weight_box
from .sigma import (
    BoxTooSmallError,
    CumSumOverflowError,
    ResourceLimitError,
    SigmaPrefix,
    count_leq,
    iter_orbits,
    orbit_multiplicity,
    sigma_bruteforce,
    sigma_prefix,
)
from .widths import (
    Embedding,
    PrefixTooShortError,
    WidthKind,
    WidthValue,
    sup_over_h,
    width,
)
from .asymptotics import (
    CONSTANT_NAMES,
    aux_integral,
    constant,
    convergence_table,
    series_S,
)
from .lattice_count import (
    count_A,
    count_A_split,
    count_C,
    lambda_split_exponent,
    sandwich_check,
    verify_appendix_limits,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "WeightSpec",
    "log_weight_box",
    "SigmaPrefix",
    "BoxTooSmallError",
    "CumSumOverflowError",
    "ResourceLimitError",
    "iter_orbits",
    "orbit_multiplicity",
    "sigma_prefix",
    "sigma_bruteforce",
    "count_leq",
    "Embedding",
    "WidthKind",
    "WidthValue",
    "PrefixTooShortError",
    "width",
    "sup_over_h",
    "CONSTANT_NAMES",
    "constant",
    "series_S",
    "convergence_table",
    "aux_integral",
    "count_C",
    "count_A",
    "count_A_split",
    "lambda_split_exponent",
    "verify_appendix_limits",
    "sandwich_check",
]

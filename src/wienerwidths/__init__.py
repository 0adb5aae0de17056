"""Exact widths of weighted Wiener and mixed-smoothness Sobolev embeddings.

The package computes the four classical s-numbers (approximation,
Kolmogorov, Bernstein, Weyl) of embeddings whose singular values are the
nonincreasing rearrangement of {1/omega(k) : k in Z^d} for a family of
lattice weights omega, and numerically verifies the asymptotic constants
and exact lattice-count identities that govern their decay.
"""
import importlib

# Each public name and the module it lives in.  A name is imported at its
# first access (``__getattr__`` below), so that importing the package, or
# the numpy-free part of it, does not load numpy.
_HOMES = {
    "common": ("Family", "ResourceLimitError", "Embedding", "WidthKind"),
    "weights": ("WeightSpec", "log_weight_box"),
    "sigma": (
        "BoxTooSmallError",
        "CumSumOverflowError",
        "SigmaPrefix",
        "count_leq",
        "iter_orbits",
        "orbit_multiplicity",
        "sigma_bruteforce",
        "sigma_prefix",
    ),
    "widths": ("PrefixTooShortError", "WidthValue", "sup_over_h", "width"),
    "asymptotics": (
        "CONSTANT_NAMES",
        "aux_integral",
        "constant",
        "convergence_table",
        "series_S",
    ),
    "lattice_count": (
        "count_A",
        "count_A_split",
        "count_C",
        "lambda_split_exponent",
        "sandwich_check",
        "verify_appendix_limits",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

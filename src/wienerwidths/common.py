"""Names the command line needs before it knows whether to compute on arrays.

The enums that parse the weight, embedding and width options, and the
error that ``main`` turns into exit code 3, live here, free of numpy, so
that ``constants``, ``count`` and ``integral`` run without importing it.
``weights``, ``widths`` and ``sigma`` import them from here: every import
path gives the same objects.

``sigma_prefix``, ``sigma_bruteforce`` and ``width`` forward to the
functions of those names in ``sigma`` and ``widths``, importing them, and
numpy, at the first call.  The modules that need them bind these
forwarders as module attributes, which is where their callers, the tests
and the benchmark's tracer look them up.
"""
from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .sigma import SigmaPrefix
    from .weights import WeightSpec
    from .widths import WidthValue

__all__ = ["Family", "Embedding", "WidthKind", "ResourceLimitError"]


class Family(enum.Enum):
    """The five weight families, keyed by their CLI names."""

    MIXED_SR = "mixed-sr"
    MIXED_INF = "mixed-inf"
    ISOTROPIC_SR = "isotropic-sr"
    ISOTROPIC_INF = "isotropic-inf"
    H1_RATIO = "h1-ratio"


class Embedding(enum.Enum):
    A_TO_A = "a-to-a"
    F_TO_L2 = "f-to-l2"
    A_TO_L2 = "a-to-l2"
    A_TO_LINF = "a-to-linf"
    A_TO_LP = "a-to-lp"
    CMIX_TO_L2 = "cmix-to-l2"
    AMIX_TO_H1 = "amix-to-h1"
    HMIX_TO_H1 = "hmix-to-h1"


class WidthKind(enum.Enum):
    APPROXIMATION = "approximation"
    KOLMOGOROV = "kolmogorov"
    BERNSTEIN = "bernstein"
    WEYL = "weyl"


class ResourceLimitError(RuntimeError):
    """A computation exceeded its resource cap (series length, prefix size)
    or a bound it must certify."""


def sigma_prefix(spec: WeightSpec, n_max: int) -> SigmaPrefix:
    """``sigma.sigma_prefix``."""
    from .sigma import sigma_prefix

    return sigma_prefix(spec, n_max)


def sigma_bruteforce(spec: WeightSpec, n_max: int, box_radius: int) -> SigmaPrefix:
    """``sigma.sigma_bruteforce``."""
    from .sigma import sigma_bruteforce

    return sigma_bruteforce(spec, n_max, box_radius)


def width(
    prefix: SigmaPrefix,
    embedding: Embedding,
    kind: WidthKind,
    ns: Sequence[int],
    p: float | None = None,
) -> list[WidthValue]:
    """``widths.width``."""
    from .widths import width

    return width(prefix, embedding, kind, ns, p=p)

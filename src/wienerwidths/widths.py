"""Exact widths of embeddings, computed from a rearrangement prefix.

Let sigma_1 >= sigma_2 >= ... be the nonincreasing rearrangement of
{1/omega(k)}.  For the embeddings supported here the four classical
s-numbers (approximation a_n, Kolmogorov d_n, Bernstein b_n, Weyl x_n)
collapse to two groups:

    u_n = a_n = d_n        v_n = b_n = x_n

and admit closed formulas in sigma:

    coefficient-space target (a-to-a), Hilbert source (f-to-l2),
    H^1-target on the ratio weight (hmix-to-h1):
        all four kinds equal sigma_n                          (exact)

    L_2 target from the Wiener class (a-to-l2) and the first-order
    Sobolev target from the analytic mixed class (amix-to-h1):
        v_n = ( sum_{k<=n} sigma_k^-2 )^(-1/2)                (exact)
        u_n = sup_{h>=n} ( (h-n+1) / sum_{k<=h} sigma_k^-2 )^(1/2)
                                                              (exact)

    sup-norm and L_p targets (a-to-linf, a-to-lp, 2 < p < inf):
        the same-kind L_2 value is a lower bound and sigma_n an upper
        bound; equality is not known, so a bracket is returned.

    L_2 target from the m-fold mixed-derivative class (cmix-to-l2),
    computed on the prefix of the mixed weight with s=m, r=2m (the
    norm whose singular values are exactly 1/omega):
        v_n exact as above; u_n bracketed by
        [sup_h formula, 2^(d/2) sigma_n].

The sup over h is evaluated with a certified scan: after scanning up to h,
every later candidate h' > h satisfies

    (h'-n+1)/S_{h'} <= (h'-n+1)/(S_h + (h'-h) sigma_h^-2)

whose supremum over h' > h is max((h-n+2)/(S_h + sigma_h^-2), sigma_h^2)
because the bound is monotone in h' with limit sigma_h^2.  Once that ceiling
drops to the incumbent, the incumbent is the supremum and the smallest
maximizer has already been seen.  This needs nothing beyond sigma being
nonincreasing, so it is sound in every regime (including flat prefixes,
where the coarser ceiling 2 sigma_{ceil(h/2)}^2 would never fire).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .sigma import SigmaPrefix
from .weights import Family, WeightSpec
from . import sigma as _sigma

__all__ = [
    "Embedding",
    "WidthKind",
    "WidthQuery",
    "WidthValue",
    "PrefixTooShortError",
    "width",
    "needs_sup",
    "sup_over_h",
    "s_lambda_error",
]


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


# kinds sharing the sup formula (u) and the sum formula (v)
_U_KINDS = (WidthKind.APPROXIMATION, WidthKind.KOLMOGOROV)
_V_KINDS = (WidthKind.BERNSTEIN, WidthKind.WEYL)

# embeddings whose u-kind widths come from the sup formula (exact or as the
# lower end of a bracket)
_SUP_EMBEDDINGS = (
    Embedding.A_TO_L2,
    Embedding.A_TO_LINF,
    Embedding.A_TO_LP,
    Embedding.CMIX_TO_L2,
    Embedding.AMIX_TO_H1,
)


def needs_sup(embedding: Embedding, kind: WidthKind) -> bool:
    """True when ``width`` evaluates this pair through ``sup_over_h``, whose
    certificate needs a prefix reaching past n."""
    return kind in _U_KINDS and embedding in _SUP_EMBEDDINGS


class PrefixTooShortError(ValueError):
    """The prefix does not reach far enough; ``required`` is a lower bound
    on the length to retry with."""

    def __init__(self, required: int, message: str) -> None:
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class WidthQuery:
    """One width request: which embedding, which s-number, which n."""

    embedding: Embedding
    kind: WidthKind
    n: int
    p: float | None = None  # only for a-to-lp, 2 < p < inf

    def __post_init__(self) -> None:
        if not isinstance(self.embedding, Embedding):
            raise ValueError(f"unknown embedding: {self.embedding!r}")
        if not isinstance(self.kind, WidthKind):
            raise ValueError(f"unknown width kind: {self.kind!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.embedding is Embedding.A_TO_LP:
            if self.p is None or not (2.0 < float(self.p) < math.inf):
                raise ValueError(
                    "a-to-lp requires a finite exponent p with 2 < p < inf "
                    "(p=2 is a-to-l2, p=inf is a-to-linf)"
                )
            object.__setattr__(self, "p", float(self.p))
        elif self.p is not None:
            raise ValueError(f"p is only meaningful for a-to-lp")


@dataclass(frozen=True)
class WidthValue:
    """A width, either exact (lower == upper) or a proven bracket."""

    lower: float
    upper: float
    exact: bool

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("width bracket inverted")

    @property
    def value(self) -> float:
        if not self.exact:
            raise ValueError("bracket result has no single exact value")
        return self.lower


def sup_over_h(prefix: SigmaPrefix, n: int) -> tuple[float, int]:
    """sup_{h>=n} ((h-n+1)/sum_{k<=h} sigma_k^-2)^(1/2) and its smallest
    maximizer, by certified forward scan (see module docstring).

    Raises PrefixTooShortError when the prefix ends before the certificate
    fires; ``required`` suggests a retry length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    N = prefix.n_max
    if n > N:
        raise PrefixTooShortError(n, f"prefix too short: n={n} > n_max={N}")
    S = prefix.cum_inv_sq
    sig = prefix.values
    best = -math.inf
    best_h = n
    lo = n
    chunk = 1024
    while lo <= N:
        hi = min(lo + chunk - 1, N)
        hs = np.arange(lo, hi + 1)
        vals = (hs - (n - 1)) / S[lo - 1 : hi]
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_h = int(hs[i])
        # ceiling on every h' > hi; monotone in h' with limit sigma_hi^2
        b = 1.0 / (sig[hi - 1] * sig[hi - 1])
        ceiling = max((hi - n + 2) / (S[hi - 1] + b), sig[hi - 1] * sig[hi - 1])
        if ceiling <= best:
            return math.sqrt(best), best_h
        lo = hi + 1
        chunk = min(chunk * 2, 1 << 20)
    raise PrefixTooShortError(
        2 * N,
        f"prefix exhausted before certificate at n={n}; "
        f"retry with at least {2 * N} terms",
    )


def _sigma_n(prefix: SigmaPrefix, n: int) -> float:
    if n > prefix.n_max:
        raise PrefixTooShortError(
            n, f"prefix too short: n={n} > n_max={prefix.n_max}"
        )
    return float(prefix.values[n - 1])


def _v_value(prefix: SigmaPrefix, n: int) -> float:
    if n > prefix.n_max:
        raise PrefixTooShortError(
            n, f"prefix too short: n={n} > n_max={prefix.n_max}"
        )
    return float(prefix.cum_inv_sq[n - 1]) ** -0.5


def _l2_value(prefix: SigmaPrefix, kind: WidthKind, n: int) -> float:
    if kind in _V_KINDS:
        return _v_value(prefix, n)
    return sup_over_h(prefix, n)[0]


def width(prefix: SigmaPrefix, query: WidthQuery) -> WidthValue:
    """Dispatch a width query against a rearrangement prefix."""
    emb = query.embedding
    n = query.n
    if emb in (Embedding.A_TO_A, Embedding.F_TO_L2):
        v = _sigma_n(prefix, n)
        return WidthValue(v, v, True)
    if emb is Embedding.HMIX_TO_H1:
        _require_family(prefix, Family.H1_RATIO, emb)
        v = _sigma_n(prefix, n)
        return WidthValue(v, v, True)
    if emb is Embedding.A_TO_L2:
        v = _l2_value(prefix, query.kind, n)
        return WidthValue(v, v, True)
    if emb is Embedding.AMIX_TO_H1:
        _require_family(prefix, Family.H1_RATIO, emb)
        v = _l2_value(prefix, query.kind, n)
        return WidthValue(v, v, True)
    if emb in (Embedding.A_TO_LINF, Embedding.A_TO_LP):
        lower = _l2_value(prefix, query.kind, n)
        upper = _sigma_n(prefix, n)
        return WidthValue(lower, upper, False)
    if emb is Embedding.CMIX_TO_L2:
        _require_cmix_prefix(prefix)
        if query.kind in _V_KINDS:
            v = _v_value(prefix, n)
            return WidthValue(v, v, True)
        lower = sup_over_h(prefix, n)[0]
        upper = 2.0 ** (prefix.spec.d / 2.0) * _sigma_n(prefix, n)
        return WidthValue(lower, upper, False)
    raise AssertionError(f"unhandled embedding {emb}")  # pragma: no cover


def _require_family(
    prefix: SigmaPrefix, family: Family, emb: Embedding
) -> None:
    if prefix.spec.family is not family:
        raise ValueError(
            f"{emb.value} requires a {family.value} prefix, "
            f"got {prefix.spec.family.value}"
        )


def _require_cmix_prefix(prefix: SigmaPrefix) -> None:
    spec = prefix.spec
    m = spec.s
    ok = (
        spec.family is Family.MIXED_SR
        and m == int(m)
        and m >= 1
        and spec.r == 2.0 * m
    )
    if not ok:
        raise ValueError(
            "cmix-to-l2 requires a mixed-sr prefix with integer s = m >= 1 "
            "and r = 2m (the norm whose singular values are exactly "
            "1/omega); got "
            f"family={spec.family.value}, s={spec.s}, r={spec.r}"
        )


def s_lambda_error(spec: WeightSpec, n: int) -> float:
    """Worst coefficient weight outside the optimal (n-1)-point index set.

    Equals sigma_n exactly: the optimal set keeps the n-1 smallest-weight
    points, so the best omitted point is the n-th of the enumeration.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    covered = 0
    for orb in _sigma.iter_orbits(spec):
        covered += orb.multiplicity
        if covered >= n:
            return 1.0 / orb.weight
    raise AssertionError("orbit stream is infinite")  # pragma: no cover

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

``width(prefix, embedding, kind, ns, p=None)`` evaluates one embedding and
kind on a whole n grid, one ``WidthValue`` per n.

The sup over h is evaluated with a certified scan: after scanning up to h,
every later candidate h' > h satisfies

    (h'-n+1)/S_{h'} <= (h'-n+1)/(S_h + (h'-h) sigma_h^-2)

whose supremum over h' > h is max((h-n+2)/(S_h + sigma_h^-2), sigma_h^2)
because the bound is monotone in h' with limit sigma_h^2.  Once that ceiling
drops to the incumbent, the incumbent is the supremum and the smallest
maximizer has already been seen.  This needs nothing beyond sigma being
nonincreasing, so it is sound in every regime (including flat prefixes,
where the coarser ceiling 2 sigma_{ceil(h/2)}^2 would never fire).

``width`` evaluates the sup for a whole grid in one forward pass over the
sorted distinct n, and each scan starts at the previous n's maximizer h
instead of at n.  This skips no winner: if h' < h loses to h at some n
(strictly, in floats, hence in reals), it loses at every larger n, because
both numerators drop by the same amount while S_{h'} < S_h; correctly
rounded division keeps that order, so a skipped h' never exceeds the value.
Up to 64 consecutive grid entries are evaluated at once, as one matrix over
a window of 2048 values of h; each row keeps its running max and smallest
argmax, gets the same ceiling test at the window's end, and the leading
certified rows are kept.  Entries past the first window's end are left out
of the block, since they cannot certify in it.  A block whose first row
does not certify (a single n far from its maximizer, flat stretches of the
prefix) moves on to the next window, twice as wide (up to 2^20 values of h,
as in ``sup_over_h``), with half its rows, so the matrix never holds more
than 64 x 2048 floats until one row is left.  At the end of the prefix the
pass raises ``sup_over_h``'s PrefixTooShortError.  The pass never calls
``sup_over_h``, which stays as the independent per-n reference, and every
value is the one ``sup_over_h(prefix, n)[0]`` returns, to the last bit.
"""
from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sigma import _PREFIX_CAP, ResourceLimitError, SigmaPrefix
from .weights import Family, WeightSpec

__all__ = [
    "Embedding",
    "WidthKind",
    "WidthValue",
    "PrefixTooShortError",
    "width",
    "check_width",
    "refuse_flat",
    "needs_sup",
    "is_exact",
    "sup_over_h",
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


# kinds sharing the sup formula (u); the others share the sum formula (v)
_U_KINDS = (WidthKind.APPROXIMATION, WidthKind.KOLMOGOROV)

# embeddings whose u-kind widths come from the sup formula (exact or as the
# lower end of a bracket)
_SUP_EMBEDDINGS = (
    Embedding.A_TO_L2,
    Embedding.A_TO_LINF,
    Embedding.A_TO_LP,
    Embedding.CMIX_TO_L2,
    Embedding.AMIX_TO_H1,
)


# the grid pass evaluates up to _BLOCK_ROWS grid entries over a window of
# _BLOCK_WIDTH values of h at once: one matrix of 64 x 2048 floats, 1 MB;
# a block that does not certify doubles its window up to _MAX_WIDTH, the
# last chunk of sup_over_h, and halves its rows
_BLOCK_ROWS = 64
_BLOCK_WIDTH = 2048
_MAX_WIDTH = 1 << 20


def needs_sup(embedding: Embedding, kind: WidthKind) -> bool:
    """True when ``width`` evaluates this pair by the sup formula, whose
    certificate needs a prefix reaching past n."""
    return kind in _U_KINDS and embedding in _SUP_EMBEDDINGS


def is_exact(embedding: Embedding, kind: WidthKind) -> bool:
    """True when ``width`` returns exact values for this pair, False when it
    returns brackets (a-to-linf, a-to-lp, and the u-kinds of cmix-to-l2)."""
    if embedding in (Embedding.A_TO_LINF, Embedding.A_TO_LP):
        return False
    return not (embedding is Embedding.CMIX_TO_L2 and kind in _U_KINDS)


class PrefixTooShortError(ValueError):
    """The prefix does not reach far enough; ``required`` is a lower bound
    on the length to retry with."""

    def __init__(self, required: int, message: str) -> None:
        super().__init__(message)
        self.required = required


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
    _require_n(prefix, n)
    N = prefix.n_max
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


def _require_n(prefix: SigmaPrefix, n: int) -> None:
    if n > prefix.n_max:
        raise PrefixTooShortError(
            n, f"prefix too short: n={n} > n_max={prefix.n_max}"
        )


def check_width(
    spec: WeightSpec,
    embedding: Embedding,
    kind: WidthKind,
    ns: Sequence[int],
    p: float | None = None,
) -> None:
    """Refuse what ``width`` refuses whatever the prefix length: an unknown
    embedding or kind, an n that is not a positive integer, a p against the
    a-to-lp rules, or a weight the embedding does not take.  Needs no
    prefix, so a caller can refuse before enumerating one."""
    if not isinstance(embedding, Embedding):
        raise ValueError(f"unknown embedding: {embedding!r}")
    if not isinstance(kind, WidthKind):
        raise ValueError(f"unknown width kind: {kind!r}")
    for n in ns:
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"n must be a positive integer, got {n!r}")
    if embedding is Embedding.A_TO_LP:
        if p is None or not (2.0 < float(p) < math.inf):
            raise ValueError(
                "a-to-lp requires a finite exponent p with 2 < p < inf "
                "(p=2 is a-to-l2, p=inf is a-to-linf)"
            )
    elif p is not None:
        raise ValueError("p is only meaningful for a-to-lp")
    if embedding in (Embedding.HMIX_TO_H1, Embedding.AMIX_TO_H1):
        _require_family(spec, Family.H1_RATIO, embedding)
    if embedding is Embedding.CMIX_TO_L2:
        _require_cmix_spec(spec)


def refuse_flat(
    spec: WeightSpec, embedding: Embedding, kind: WidthKind, n_hi: int
) -> None:
    """Refuse, before any enumeration, a sup width at some n >= 2 (the grid's
    largest n is ``n_hi``) on a weight that evaluates to exactly 1.0 at
    every point of a prefix within the cap.

    On such a prefix S_h = h, so (h-n+1)/S_h stays below the ceiling's
    sigma_h^2 = 1 and the certificate never fires: the prefix would double
    up to the cap and be refused there, after minutes of enumeration.

    The test is that log omega at the axis point (cap, 0, ..., 0) lies below
    2^-55.  Orbits come out in nondecreasing log key, and the 2 cap + 1 axis
    points |j| <= cap have keys at most that one, so every point of a prefix
    of at most cap terms has a key below 2^-55 as well.  At such a point
    each family evaluates omega as float powers whose exact logs are at most
    the key (up to rounding far inside the margin):

        mixed-inf      float(prod of the |k_i| > 1) ** s
        isotropic-inf  float(max |k_i|) ** s
        isotropic-sr   (1 + sum |k_i|^r) ** (s/r)
        mixed-sr       the product of (1 + |k_i|^r) ** (s/r), one factor
                       per coordinate, each factor's log at most the key

    A pow whose exact value lies in [1, 1 + 2^-54) returns 1.0, since
    1 + 2^-53 is the midpoint to the next double (a pow off by up to 3/4
    ulp still does), and a product of 1.0s is 1.0; where a pow overflows,
    ``evaluate`` returns exp(log key), which is 1.0 as well.  h1-ratio
    divides by sqrt(1 + |k|^2), which is no such power, and is not refused
    here.
    """
    if not needs_sup(embedding, kind) or n_hi < 2:
        return
    if spec.family is Family.H1_RATIO:
        return
    log_w = spec.log_evaluate((_PREFIX_CAP,) + (0,) * (spec.d - 1))
    if log_w < 2.0**-55:
        raise ResourceLimitError(
            f"every weight of a prefix within the cap {_PREFIX_CAP} "
            f"evaluates to 1.0 (log omega at {_PREFIX_CAP} e_1 is "
            f"{log_w:.3g}), so no sup certificate can fire for n >= 2; "
            "give a larger s"
        )


def width(
    prefix: SigmaPrefix,
    embedding: Embedding,
    kind: WidthKind,
    ns: Sequence[int],
    p: float | None = None,
) -> list[WidthValue]:
    """The width of one embedding and kind at every n of ``ns``, in input
    order (repeats and unsorted grids allowed).  ``p`` is only for a-to-lp,
    where 2 < p < inf.

    Raises ValueError where ``check_width`` does, and PrefixTooShortError
    when the prefix ends before max(ns), with ``required = max(ns)``, or
    before a sup certificate fires.
    """
    check_width(prefix.spec, embedding, kind, ns, p)
    if ns:
        _require_n(prefix, max(ns))

    def sigma(n: int) -> float:
        return float(prefix.values[n - 1])

    if embedding in (Embedding.A_TO_A, Embedding.F_TO_L2, Embedding.HMIX_TO_H1):
        return [WidthValue(v, v, True) for v in map(sigma, ns)]
    # the L_2-target width of this kind
    if needs_sup(embedding, kind):
        l2 = _sup_values(prefix, ns)
    else:
        l2 = [float(prefix.cum_inv_sq[n - 1]) ** -0.5 for n in ns]
    if is_exact(embedding, kind):
        return [WidthValue(v, v, True) for v in l2]
    if embedding is Embedding.CMIX_TO_L2:
        scale = 2.0 ** (prefix.spec.d / 2.0)
        return [WidthValue(v, scale * sigma(n), False) for n, v in zip(ns, l2)]
    # a-to-linf, a-to-lp
    return [WidthValue(v, sigma(n), False) for n, v in zip(ns, l2)]


def _sup_values(prefix: SigmaPrefix, ns: Sequence[int]) -> list[float]:
    """``sup_over_h(prefix, n)[0]`` for every n of ``ns``, in input order, by
    the warm-started, blocked grid pass of the module docstring."""
    N = prefix.n_max
    S = prefix.cum_inv_sq
    sig = prefix.values
    order = sorted(set(ns))
    found: dict[int, float] = {}
    warm = 1  # maximizer of the last n answered
    i = 0
    while i < len(order):
        lo = max(order[i], warm)
        step = _BLOCK_WIDTH
        hi = min(lo + step - 1, N)
        # a row with n > hi has no h >= n in the first window and cannot
        # certify in it
        j = bisect.bisect_right(order, hi, i, min(i + _BLOCK_ROWS, len(order)))
        rows = np.array(order[i:j])
        best = np.full(len(rows), -math.inf)
        arg = np.zeros(len(rows), dtype=np.int64)
        while True:
            # (h - n + 1) / S_h, as in sup_over_h: the integer differences
            # are exact in float64
            vals = np.subtract(np.arange(lo, hi + 1), rows[:, None] - 1,
                               dtype=np.float64)
            vals /= S[lo - 1 : hi]
            at = np.argmax(vals, axis=1)
            top = vals[np.arange(len(rows)), at]
            # strict, so the smallest maximizer wins
            better = top > best
            best = np.where(better, top, best)
            arg = np.where(better, lo + at, arg)
            # sup_over_h's ceiling at hi, one per row
            b = 1.0 / (sig[hi - 1] * sig[hi - 1])
            ceiling = np.maximum(
                (hi - rows + 2) / (S[hi - 1] + b), sig[hi - 1] * sig[hi - 1]
            )
            ok = ceiling <= best
            k = len(rows) if ok.all() else int(np.argmin(ok))
            if k:
                break
            if hi == N:
                raise PrefixTooShortError(
                    2 * N,
                    f"prefix exhausted before certificate at n={order[i]}; "
                    f"retry with at least {2 * N} terms",
                )
            # twice the window, half the rows, up to sup_over_h's last chunk
            keep = max(1, len(rows) // 2)
            rows, best, arg = rows[:keep], best[:keep], arg[:keep]
            lo = hi + 1
            step = min(2 * step, _MAX_WIDTH)
            hi = min(lo + step - 1, N)
        found.update(zip(order[i : i + k], map(math.sqrt, best[:k].tolist())))
        warm = int(arg[k - 1])
        i += k
    return [found[n] for n in ns]


def _require_family(spec: WeightSpec, family: Family, emb: Embedding) -> None:
    if spec.family is not family:
        raise ValueError(
            f"{emb.value} requires a {family.value} prefix, "
            f"got {spec.family.value}"
        )


def _require_cmix_spec(spec: WeightSpec) -> None:
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


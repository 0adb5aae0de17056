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
kind on a whole n grid, one ``WidthValue`` per n.  It wraps the array core
``_width_arrays``, which returns float64 arrays of the lower and upper ends
in grid order (for an exact pair one array serves as both) and is what the
CLI's width table streams from: one computation for both callers.  The sum
formula keeps Python's float power (libm's pow), mapped over the array,
since numpy's ``** -0.5`` differs from it in the last bit.

The sup over h is evaluated with a certified scan: after scanning up to h,
every later candidate h' > h satisfies

    (h'-n+1)/S_{h'} <= (h'-n+1)/(S_h + (h'-h) sigma_h^-2)

whose supremum over h' > h is max((h-n+2)/(S_h + sigma_h^-2), sigma_h^2)
because the bound is monotone in h' with limit sigma_h^2.  Once that ceiling
drops to the incumbent, the incumbent is the supremum and the smallest
maximizer has already been seen.  This needs nothing beyond sigma being
nonincreasing, so it holds in every regime (including flat prefixes, where
the coarser ceiling 2 sigma_{ceil(h/2)}^2 would never fire).  It bounds real
ratios but compares rounded ones: where S drifts by ulps along a plateau (a
plain float cumsum, not ``sigma_prefix``'s compensated one) it can fire an
ulp short, and then where a window ends moves the last bit.

``width`` evaluates the sup for a whole grid in one forward pass over the
sorted distinct n.  With w_h = sigma_h^-2 (nondecreasing),
f_n(h) = (h-n+1)/S_h and g(h) = h + 1 - S_h / w_{h+1}, f_n(h+1) >= f_n(h)
iff n >= g(h), and
g(h+1) - g(h) = (1 - w_{h+1}/w_{h+2}) + S_h (1/w_{h+1} - 1/w_{h+2}) >= 0:
f_n is unimodal, and its smallest maximizer h*(n) = min{h : g(h) >= n} is
nondecreasing in n (Dinkelbach's parametric view of a ratio, 1967).  For a
chunk of rows from lo = max(first n, last maximizer), the running max of
float g over about twice the chunk's spread guesses h* as a, where it first
reaches n.  Row i scans [L_i, R_i], from max(n_i, a_{i-1} - 2) (the first
row from lo) to the first h past a_i + 1 where sigma_h^2 falls to f_n(a_i);
the leading windows within one budget of _CELLS values make one flat array.
A row is final when the ceiling at R_i falls to its max, and when
L_i <= max(n_i, m), m the last row's maximizer: an h' < m lost to m at a
smaller n (strictly, in floats, hence in reals), so it loses at every larger
n, since both numerators drop by the same amount while S_h' < S_m (correctly
rounded division keeps that order).  The leading final rows are kept, and
the next chunk starts at the first row that is not; its start is proven.
If its ceiling does not fire either (at the prefix's end, at the budget, or
past a bad guess), it scans on alone from R_i, keeping its running max, in
consecutive windows that double up to _CELLS: a guess costs time.  At the
end of a prefix from ``sigma_prefix``, its walk (``SigmaPrefix.resume``)
takes as many terms again, up to the cap, into a buffer of the row's h on; a
prefix built from arrays raises ``sup_over_h``'s PrefixTooShortError there.
The square roots are taken at once (IEEE sqrt, correctly rounded as
``math.sqrt`` is) and mapped back to the grid's order, repeats and all.  The
pass never calls ``sup_over_h``, the per-n reference; on ``sigma_prefix``'s
prefixes the tests find its values to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .common import Embedding, Family, ResourceLimitError, WidthKind
from .sigma import _PREFIX_CAP, SigmaPrefix, _refuse_above_cap
from .weights import WeightSpec

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


# the grid pass evaluates at most _CELLS values of (h - n + 1) / S_h at once
# (1 MB): a chunk's windows together, or one window of a row alone
_CELLS = 1 << 17


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
    # a range holds ints, and with a positive step its first is its least
    for n in ns[:1] if isinstance(ns, range) and ns.step > 0 else ns:
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
    when a prefix built from arrays ends before a sup certificate fires.
    """
    check_width(prefix.spec, embedding, kind, ns, p)
    lower, upper, exact = _width_arrays(prefix, embedding, kind, ns, p)
    lows = lower.tolist()
    ups = lows if upper is lower else upper.tolist()
    return [WidthValue(lo, up, exact) for lo, up in zip(lows, ups)]


def _width_arrays(
    prefix: SigmaPrefix,
    embedding: Embedding,
    kind: WidthKind,
    ns: Sequence[int],
    p: float | None = None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """``width`` as float64 arrays in ``ns`` order: (lower, upper, exact),
    where ``upper`` is the ``lower`` array itself for an exact pair.  The
    caller has passed ``check_width``; raises what ``width`` raises past
    it."""
    if not ns:
        idx = np.empty(0, dtype=np.int64)
    elif isinstance(ns, range):
        # the largest n is an end: a range is not walked
        _require_n(prefix, max(ns[0], ns[-1]))
        idx = np.arange(ns.start, ns.stop, ns.step, dtype=np.int64)
    else:
        _require_n(prefix, max(ns))
        idx = np.array(ns, dtype=np.int64)
    sigma = prefix.values[idx - 1]
    if embedding in (Embedding.A_TO_A, Embedding.F_TO_L2, Embedding.HMIX_TO_H1):
        return sigma, sigma, True
    # the L_2-target width of this kind
    if needs_sup(embedding, kind):
        l2 = _sup_values(prefix, idx)
    else:
        # libm's pow, through Python's float power: numpy's ** -0.5
        # differs from it in the last bit
        l2 = np.fromiter(
            map(pow, prefix.cum_inv_sq[idx - 1].tolist(), repeat(-0.5)),
            np.float64, idx.size,
        )
    if is_exact(embedding, kind):
        return l2, l2, True
    if embedding is Embedding.CMIX_TO_L2:
        sigma *= 2.0 ** (prefix.spec.d / 2.0)
    # a-to-linf, a-to-lp and the u-kinds of cmix-to-l2
    if (l2 > sigma).any():
        raise ValueError("width bracket inverted")
    return l2, sigma, False


def _sup_values(prefix: SigmaPrefix, ns: np.ndarray) -> np.ndarray:
    """``sup_over_h(prefix, n)[0]`` for every n of the int64 array ``ns``,
    in its order, by the located grid pass of the module docstring."""
    N, S, sig = prefix.n_max, prefix.cum_inv_sq, prefix.values
    base, walk = 0, None  # S and sig hold h = base + 1 .. N
    # the sorted distinct grid: the grid itself where it increases
    # strictly, as a range does, else sorted and deduplicated (a bool mask:
    # no int64 temporary of its size)
    order = ns
    increasing = bool((ns[1:] > ns[:-1]).all())
    if not increasing:
        order = np.sort(ns)
        order = order[np.r_[True, order[1:] != order[:-1]]]
    found = np.empty(len(order))  # the sup of (h - n + 1) / S_h at each n
    warm, i = 1, 0  # the maximizer of the last n answered, and the next n
    while i < len(order):
        lo = max(int(order[i]), warm)
        # a dense row's window holds 5 values of h or more, so the rows
        # within _CELLS / 16 of the first fill about half the budget
        rows = order[i : np.searchsorted(order, order[i] + _CELLS // 16)]
        k, best, arg, hi = _windows(S, sig, base, N, rows, lo, warm)
        if not k:
            # the first row alone, on from its window with its running max,
            # in consecutive windows that double up to _CELLS
            rows, best, arg = rows[:1], best[:1], arg[:1]
            k, step = 1, hi - lo + 1
            while True:
                if hi == N:
                    walk = walk or prefix.resume()
                    if walk is None:
                        raise PrefixTooShortError(2 * N, (
                            f"prefix exhausted before certificate at n={rows[0]}; "
                            f"retry with at least {2 * N} terms"))
                    if N >= _PREFIX_CAP:
                        _refuse_above_cap(2 * N)
                    # N more terms, up to the cap, after the row's h >= lo
                    held, more = N - lo + 1, min(N, _PREFIX_CAP - N)
                    grown = np.empty((2, held + more))
                    grown[0, :held] = S[lo - 1 - base :]
                    grown[1, :held] = sig[lo - 1 - base :]
                    walk.take(grown[1], grown[0], held, more)
                    S, sig = grown
                    base, N = lo - 1, N + more
                step = min(2 * step, _CELLS)
                start, hi = hi + 1, min(hi + step, N)
                top, at, ceiling = _scan(S, sig, base, rows, start, hi)
                if top[0] > best[0]:
                    best, arg = top, at
                if ceiling[0] <= best[0]:
                    break
        found[i : i + k] = best[:k]
        warm = int(arg[k - 1])
        i += k
    # IEEE sqrt, correctly rounded as math.sqrt is
    np.sqrt(found, out=found)
    return found if increasing else found[np.searchsorted(order, ns)]


def _windows(S, sig, base, N, rows, lo, warm):
    """The located windows of the sorted distinct ``rows``, the first from
    lo, after the maximizer ``warm`` (S and sig hold h = base + 1 .. N):
    the count of leading final rows, each scanned row's max and smallest
    maximizer, and the first row's window end."""
    # locate: the running max of g over [lo, top) first reaches n at a
    top = min(lo + 2 * int(rows[-1] - rows[0]) + 2, lo + _CELLS, N)
    g = np.arange(lo + 1, top + 1) - (
        S[lo - 1 - base : top - 1 - base] * sig[lo - base : top - base] ** 2)
    a = np.clip(np.searchsorted(np.maximum.accumulate(g), rows) + lo, rows, top)
    # the windows [L, R]: R where sigma_h^2 falls to f_n(a), past a + 1 and
    # within the budget, and the leading windows that fit it together
    f = (a - rows + 1) / S[a - 1 - base]
    R = np.searchsorted(-sig[lo - 1 - base : top - base], -np.sqrt(f)) + lo
    L = np.maximum(rows, np.r_[lo, a[:-1] - 2]).clip(lo)
    R = np.minimum(np.maximum(R, a + 2), np.minimum(L + _CELLS - 1, N))
    k = int(np.searchsorted(np.cumsum(R - L + 1), _CELLS, side="right"))
    rows, L, R = rows[:k], L[:k], R[:k]
    best, arg, ceiling = _scan(S, sig, base, rows, L, R)
    # final: the ceiling at R falls to the max, and the warm start proves L
    final = (ceiling <= best) & (L <= np.maximum(rows, np.r_[warm, arg[:-1]]))
    return int(np.argmin(np.r_[final, False])), best, arg, int(R[0])


def _scan(S, sig, base, rows, L, R):
    """Per row, over its window [L, R] of h as one flat array: the max of
    (h - n + 1) / S_h, its smallest maximizer, and sup_over_h's ceiling."""
    lens = np.atleast_1d(R - L + 1)
    at = np.cumsum(lens) - lens
    # h - 1 - base, the index into S, and h - n + 1, a sum exact in float64
    ix = np.arange(at[-1] + lens[-1]) + np.repeat(L - 1 - base - at, lens)
    vals = np.repeat((L - rows + 1 - at).astype(np.float64), lens)
    vals += np.arange(len(ix), dtype=np.float64)
    vals /= S[ix]
    best = np.maximum.reduceat(vals, at)
    first = np.flatnonzero(vals == np.repeat(best, lens))
    s_R = sig[R - 1 - base]
    ceiling = np.maximum(
        (R - rows + 2) / (S[R - 1 - base] + 1.0 / (s_R * s_R)), s_R * s_R)
    return best, ix[first[np.searchsorted(first, at)]] + base + 1, ceiling


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


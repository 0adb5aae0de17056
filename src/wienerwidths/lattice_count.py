"""Exact lattice counts behind the H^1-target width asymptotics.

For the ratio weight omega(k) = prod (1+k_i^2)^(s/2) / (1+|k|_2^2)^(1/2)
(s > 1) the counting function

    C(r, d) = |{k in Z^d : omega(k) <= (1+r^2)^((s-1)/2)}|

satisfies C(r, d)/r -> 2d (2S+1)^(d-1) with S = sum_{k>=1} (k^2+1)^(-p),
p = s/(2(s-1)).  The proof classifies points by support: with

    A(r, l) = |{k in N^l : omega_l(k) <= (1+r^2)^((s-1)/2)}|   (all k_i >= 1)

the sign/support decomposition gives the exact identity

    C(r, d) = 1 + sum_{l=1}^d 2^l binom(d, l) A(r, l),

and each A(r, l) splits by a cut 1 <= r_l <= r into

    A(r, l) = sum_{j=0}^l binom(l, j) A(r, l, j),

where A(r, l, j) counts the points with k_1..k_j <= r_l < k_{j+1}..k_l.
For the cut r_l = floor(r^lambda) with lambda strictly inside
(0, (s-1)/(s l)) the only O(r) contribution is j = l-1, with
A(r, l, l-1)/r -> S^(l-1); all other j are o(r).  This module computes all
three counts exactly and reports the finite-r ratios against those limits.

Exactness: membership omega(k) <= (1+r^2)^((s-1)/2) is equivalent to

    prod (1+k_i^2)^s  <=  (1+r^2)^(s-1) (1 + sum k_i^2),

and for rational s = p/q, after raising both sides to the q-th power, to
an inequality between integers.  One depth-first search counts every C, A
and A-split: it compares in the log domain, and a comparison that lands
inside a guard band wide enough to cover its float rounding is settled
another way.  A point with at most one nonzero coordinate m is a member
exactly when m <= r.  Otherwise, when s has denominator at most 64, the
integer inequality decides, so those counts are exact.  Floats given as
decimals ("1.5", 2.0) resolve to small fractions.  For a larger
denominator such a point is refused with ResourceLimitError, so every
count returned is exact.

Every point with omega(k) <= (1+r^2)^((s-1)/2) has |k_j| <= r (drop the
other coordinates and compare), so the search space is the box of radius r;
the search also abandons a branch as soon as the partial point with
remaining coordinates at their minimum already fails, which keeps the work
proportional to the count.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .asymptotics import series_S
from .common import Family, ResourceLimitError, sigma_prefix

__all__ = [
    "count_C",
    "count_A",
    "count_A_split",
    "lambda_split_exponent",
    "split_cut",
    "verify_appendix_limits",
    "sandwich_check",
]

# Fractions with denominators beyond this are treated as irrational: a
# guard-band comparison is not settled in integers but refused.
_EXACT_DENOMINATOR_CAP = 64

# Least half-width of the log-domain guard band.
_FLOAT_GUARD = 1e-9


def _smoothness(s) -> Fraction:
    """s as an exact fraction, refused unless s > 1."""
    if isinstance(s, Fraction):
        frac = s
    elif isinstance(s, (int, str)):
        frac = Fraction(s)
    elif isinstance(s, float):
        # decimal reading: 1.5 -> 3/2, not the binary expansion
        frac = Fraction(str(s))
    else:
        raise TypeError(f"cannot interpret smoothness parameter {s!r}")
    if frac <= 1:
        raise ValueError("requires s>1")
    return frac


def _require_positive(name: str, value) -> None:
    if not (isinstance(value, int) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _count(s, r: int, ranges: list[tuple[int, int]], signed: bool) -> int:
    """Count points k in prod [lo_i, hi_i] (all hi_i <= r) with
    omega(k) <= (1+r^2)^((s-1)/2).

    With signed=True each nonzero coordinate contributes a factor 2
    (the ranges then describe |k_i|).
    """
    frac = _smoothness(s)
    _require_positive("r", r)
    for lo, hi in ranges:
        if lo > hi:
            return 0  # an empty coordinate range empties the product set
    p, q = frac.numerator, frac.denominator
    sf = float(frac)
    dims = len(ranges)
    log1p = math.log1p
    log_r = log1p(r * r)
    log_rhs = (sf - 1.0) * log_r
    lpw = [sf * log1p(v * v) for v in range(max(hi for _, hi in ranges) + 1)]
    # Band width: a comparison adds up dims + 2 float terms, the
    # s log(1+k_i^2), log(1+|k|^2) and (s-1) log(1+r^2), so no partial sum
    # exceeds M = sum_i s log(1+k_i^2) + log(1+|k|^2) + s log(1+r^2).
    # Each term is off by at most 5 2^-53 of its share of M (log1p to one
    # ulp, the product and the rounding of s to half an ulp each), and the
    # at most dims + 3 roundings of sums add 2^-53 M each, so the computed
    # difference is within (dims + 8) 2^-53 M < 1e-12 M of the exact one
    # for dims < 9000.  As |k_i| <= r, big_m bounds M over the whole search.
    big_m = (dims + 1) * sf * log_r + log_r + math.log(dims)
    band = max(_FLOAT_GUARD, 1e-12 * big_m)
    low = -band
    # minimal completion of a branch: remaining coordinates at their lows
    point = [lo for lo, _ in ranges]
    suf_lw = [0.0] * (dims + 1)
    suf_sq = [0] * (dims + 1)
    for j in reversed(range(dims)):
        suf_lw[j] = suf_lw[j + 1] + lpw[point[j]]
        suf_sq[j] = suf_sq[j + 1] + point[j] * point[j]
    last = dims - 1

    def member(leaf: bool) -> bool:
        """Membership of `point`, whose comparison fell inside the band."""
        nonzero = [v for v in point if v]
        if len(nonzero) <= 1:
            return max(point) <= r  # omega(m e_1) = (1+m^2)^((s-1)/2)
        if q <= _EXACT_DENOMINATOR_CAP:
            # x^p <= y^(p-q) z^q reads (x/y)^p <= (z/y)^q, and x > z with
            # two nonzero coordinates: when z <= y <= x the left side is at
            # least 1 and the right side less, so the powers, whose size
            # grows with p, are needed only when both lie on the same side
            x = math.prod(1 + v * v for v in nonzero)
            y = 1 + r * r
            z = 1 + sum(v * v for v in nonzero)
            if z <= y <= x:
                return False
            return x ** p <= y ** (p - q) * z ** q
        if leaf:
            raise ResourceLimitError(
                f"k={tuple(point)} lies within the {band:g} guard band of the "
                f"r={r} threshold, and s={frac} has a denominator above "
                f"{_EXACT_DENOMINATOR_CAP}, too large to settle in integers; "
                f"give s with a denominator of at most {_EXACT_DENOMINATOR_CAP}"
            )
        # above a leaf, True only keeps the branch open; the leaves below decide
        return True

    def rec(j: int, acc: float, sq: int, mult: int) -> int:
        lo, hi = ranges[j]
        off = suf_lw[j + 1] - log_rhs
        ssq = suf_sq[j + 1]
        total = 0
        for m in range(lo, hi + 1):
            point[j] = m
            ac = acc + lpw[m]
            s2 = sq + m * m
            diff = ac + off - log1p(s2 + ssq)
            if diff > low and (diff >= band or not member(j == last)):
                break  # monotone in m: larger m only fail harder
            mm = mult * (2 if (signed and m) else 1)
            total += mm if j == last else rec(j + 1, ac, s2, mm)
        point[j] = lo
        return total

    return rec(0, 0.0, 0, 1)


def count_C(s, r: int, d: int) -> int:
    """C(r, d): signed lattice points with omega(k) <= (1+r^2)^((s-1)/2)."""
    _require_positive("d", d)
    return _count(s, r, [(0, r)] * d, signed=True)


def count_A(s, r: int, ell: int) -> int:
    """A(r, l): all-positive points k in N^l below the threshold."""
    _require_positive("ell", ell)
    return _count(s, r, [(1, r)] * ell, signed=False)


def count_A_split(s, r: int, ell: int, j: int, r_ell: int) -> int:
    """A(r, l, j): positive points with k_1..k_j <= r_l < k_{j+1}..k_l."""
    _require_positive("ell", ell)
    if not (isinstance(j, int) and 0 <= j <= ell):
        raise ValueError(f"j must lie in 0..ell, got {j!r}")
    if not (isinstance(r_ell, int) and 1 <= r_ell <= r):
        raise ValueError(f"r_ell must lie in 1..r, got {r_ell!r}")
    ranges = [(1, r_ell)] * j + [(r_ell + 1, r)] * (ell - j)
    return _count(s, r, ranges, signed=False)


def lambda_split_exponent(s, ell: int) -> float:
    """Midpoint cut exponent: half of the admissible ceiling (s-1)/(s l)."""
    frac = _smoothness(s)
    _require_positive("ell", ell)
    return float(frac - 1) / (2.0 * float(frac) * ell)


def split_cut(s, r: int, ell: int) -> int:
    """The automatic cut r_l = max(1, floor(r^lambda)) at the midpoint
    exponent lambda = lambda_split_exponent(s, ell)."""
    return max(1, math.floor(r ** lambda_split_exponent(s, ell)))


def verify_appendix_limits(
    s, d: int, r_grid: Sequence[int], tol: float = 1e-10
) -> list[tuple]:
    """Finite-r ratios of all counts against their proven limits, as
    ``(section, r, ell, j, r_ell, count, ratio, target)`` rows.

    For each r in the grid: a ``c`` row, C(r, d) with ratio C(r, d)/r and
    target 2d (2S+1)^(d-1); then for each support size l in 2..d, with the
    midpoint cut r_l = floor(r^lambda_l), an ``a`` row for A(r, l) (no
    target) followed by the ``a-split`` rows for A(r, l, j), j = 0..l, whose
    target is S^(l-1) at j = l-1 and 0.0 elsewhere.  Every ratio is the
    count over r; ell, j and r_ell are None where they do not apply.
    """
    frac = _smoothness(s)
    _require_positive("d", d)
    grid = [int(r) for r in r_grid]
    if not grid or any(r < 1 for r in grid):
        raise ValueError("r_grid entries must be >= 1")
    S = series_S(float(frac), tol)
    target_c = 2.0 * d * (2.0 * S + 1.0) ** (d - 1)
    rows: list[tuple] = []
    for r in grid:
        c = count_C(frac, r, d)
        rows.append(("c", r, None, None, None, c, c / r, target_c))
        for ell in range(2, d + 1):
            r_ell = split_cut(frac, r, ell)
            a_total = count_A(frac, r, ell)
            rows.append(("a", r, ell, None, r_ell, a_total, a_total / r, None))
            for j in range(ell + 1):
                cnt = count_A_split(frac, r, ell, j, r_ell)
                target = S ** (ell - 1) if j == ell - 1 else 0.0
                rows.append(("a-split", r, ell, j, r_ell, cnt, cnt / r, target))
    return rows


def sandwich_check(s, d: int, r: int) -> bool:
    """Exact interval membership of the rearrangement between thresholds.

    For every n with C(r-1, d) < n <= C(r, d) the rearrangement satisfies

        (1+r^2)^(-(s-1)/2) <= sigma_n <= (1+(r-1)^2)^(-(s-1)/2).

    Both endpoints are attained (threshold points exist on the axes), so the
    float comparison carries a 1e-9 relative guard.
    """
    from .sigma import _refuse_above_cap
    from .weights import WeightSpec

    frac = _smoothness(s)
    _require_positive("r", r)
    if r < 2:
        raise ValueError("requires r >= 2 (the lower threshold uses r-1)")
    _require_positive("d", d)
    c_hi = count_C(frac, r, d)
    _refuse_above_cap(c_hi)
    c_lo = count_C(frac, r - 1, d)
    sf = float(frac)
    spec = WeightSpec(Family.H1_RATIO, s=sf, d=d)
    prefix = sigma_prefix(spec, c_hi)
    lower = (1.0 + r * r) ** (-(sf - 1.0) / 2.0)
    upper = (1.0 + (r - 1.0) ** 2) ** (-(sf - 1.0) / 2.0)
    vals = prefix.values[c_lo:c_hi]
    guard = 1e-9
    ok_lo = bool((vals >= lower * (1.0 - guard)).all())
    ok_hi = bool((vals <= upper * (1.0 + guard)).all())
    return ok_lo and ok_hi

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

so for rational s = p/q both sides become integers after raising to the
q-th power; the comparison runs in arbitrary-precision integers.  Floats
given as decimals ("1.5", 2.0) resolve to small fractions; anything with a
large denominator falls back to guarded log-domain comparison and warns
when a comparison lands inside the guard band.

Every point with omega(k) <= (1+r^2)^((s-1)/2) has |k_j| <= r (drop the
other coordinates and compare), so the search space is the box of radius r;
the depth-first scans below also abandon a branch as soon as the partial
point with remaining coordinates at their minimum already fails, which
keeps the work proportional to the count.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .asymptotics import series_S
from .sigma import sigma_prefix
from .weights import Family, WeightSpec

__all__ = [
    "SplitCell",
    "AppendixRow",
    "AppendixReport",
    "count_C",
    "count_A",
    "count_A_split",
    "lambda_split_exponent",
    "split_cut",
    "verify_appendix_limits",
    "sandwich_check",
]

# Fractions with denominators beyond this are treated as irrational and
# counted through the guarded float path.
_EXACT_DENOMINATOR_CAP = 64

# Half-width of the log-domain guard band on the float path.
_FLOAT_GUARD = 1e-9


def _to_fraction(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    if isinstance(s, float):
        # decimal reading: 1.5 -> 3/2, not the binary expansion
        return Fraction(str(s))
    raise TypeError(f"cannot interpret smoothness parameter {s!r}")


def _validate_sr(s, r: int) -> Fraction:
    frac = _to_fraction(s)
    if frac <= 1:
        raise ValueError("requires s>1")
    if not (isinstance(r, int) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    return frac


def _count_exact(
    p: int, q: int, r: int, ranges: list[tuple[int, int]], signed: bool
) -> int:
    """Count points k in prod [lo_i, hi_i] with
    prod (1+k_i^2)^p <= (1+r^2)^(p-q) (1+sum k_i^2)^q, exactly.

    With signed=True each nonzero coordinate contributes a factor 2
    (the ranges then describe |k_i|).
    """
    dims = len(ranges)
    if dims == 0:
        return 1
    rhs_c = (1 + r * r) ** (p - q)
    max_hi = max(hi for _, hi in ranges)
    pw = [(1 + v * v) ** p for v in range(max_hi + 1)]
    # minimal completion of a branch: remaining coordinates at their lows
    suf_pw = [1] * (dims + 1)
    suf_sq = [0] * (dims + 1)
    for j in reversed(range(dims)):
        lo = ranges[j][0]
        if lo > ranges[j][1]:
            return 0  # an empty coordinate range empties the product set
        suf_pw[j] = suf_pw[j + 1] * pw[lo]
        suf_sq[j] = suf_sq[j + 1] + lo * lo
    last = dims - 1

    def rec(j: int, prod: int, sq: int, mult: int) -> int:
        lo, hi = ranges[j]
        spw = suf_pw[j + 1]
        ssq = suf_sq[j + 1]
        total = 0
        for m in range(lo, hi + 1):
            pr = prod * pw[m]
            s2 = sq + m * m
            if pr * spw > rhs_c * (1 + s2 + ssq) ** q:
                break  # monotone in m: larger m only fail harder
            mm = mult * (2 if (signed and m) else 1)
            total += mm if j == last else rec(j + 1, pr, s2, mm)
        return total

    return rec(0, 1, 0, 1)


def _count_float(
    s: float, r: int, ranges: list[tuple[int, int]], signed: bool
) -> int:
    """Guarded log-domain fallback for irrational s."""
    dims = len(ranges)
    if dims == 0:
        return 1
    log_rhs = (s - 1.0) * math.log1p(r * r)
    max_hi = max(hi for _, hi in ranges)
    lpw = [s * math.log1p(v * v) for v in range(max_hi + 1)]
    for lo, hi in ranges:
        if lo > hi:
            return 0
    suf_lw = [0.0] * (dims + 1)
    suf_sq = [0] * (dims + 1)
    for j in reversed(range(dims)):
        lo = ranges[j][0]
        suf_lw[j] = suf_lw[j + 1] + lpw[lo]
        suf_sq[j] = suf_sq[j + 1] + lo * lo
    last = dims - 1
    ambiguous = 0

    def rec(j: int, acc: float, sq: int, mult: int) -> int:
        nonlocal ambiguous
        lo, hi = ranges[j]
        slw = suf_lw[j + 1]
        ssq = suf_sq[j + 1]
        total = 0
        for m in range(lo, hi + 1):
            ac = acc + lpw[m]
            s2 = sq + m * m
            diff = ac + slw - math.log1p(s2 + ssq) - log_rhs
            if abs(diff) < _FLOAT_GUARD:
                ambiguous += 1
            if diff > _FLOAT_GUARD:
                break
            mm = mult * (2 if (signed and m) else 1)
            total += mm if j == last else rec(j + 1, ac, s2, mm)
        return total

    out = rec(0, 0.0, 0, 1)
    if ambiguous:
        warnings.warn(
            f"{ambiguous} threshold comparisons fell inside the {_FLOAT_GUARD:g} "
            "guard band; the count may be off by that many points",
            stacklevel=3,
        )
    return out


def _count(s, r: int, ranges: list[tuple[int, int]], signed: bool) -> int:
    frac = _validate_sr(s, r)
    if frac.denominator <= _EXACT_DENOMINATOR_CAP:
        return _count_exact(frac.numerator, frac.denominator, r, ranges, signed)
    return _count_float(float(frac), r, ranges, signed)


def count_C(s, r: int, d: int, box_radius: int | None = None) -> int:
    """C(r, d): signed lattice points with omega(k) <= (1+r^2)^((s-1)/2).

    box_radius widens the scanned box past the proven bound |k_j| <= r
    (the count must not change; exposed so tests can confirm that)."""
    if not (isinstance(d, int) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    hi = r if box_radius is None else int(box_radius)
    if hi < r:
        raise ValueError("box_radius below the proven bound r would truncate")
    return _count(s, r, [(0, hi)] * d, signed=True)


def count_A(s, r: int, ell: int) -> int:
    """A(r, l): all-positive points k in N^l below the threshold."""
    if not (isinstance(ell, int) and ell >= 1):
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    return _count(s, r, [(1, r)] * ell, signed=False)


def count_A_split(s, r: int, ell: int, j: int, r_ell: int) -> int:
    """A(r, l, j): positive points with k_1..k_j <= r_l < k_{j+1}..k_l."""
    if not (isinstance(ell, int) and ell >= 1):
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    if not (isinstance(j, int) and 0 <= j <= ell):
        raise ValueError(f"j must lie in 0..ell, got {j!r}")
    if not (isinstance(r_ell, int) and 1 <= r_ell <= r):
        raise ValueError(f"r_ell must lie in 1..r, got {r_ell!r}")
    ranges = [(1, r_ell)] * j + [(r_ell + 1, r)] * (ell - j)
    return _count(s, r, ranges, signed=False)


def lambda_split_exponent(s, ell: int) -> float:
    """Midpoint cut exponent: half of the admissible ceiling (s-1)/(s l)."""
    frac = _to_fraction(s)
    if frac <= 1:
        raise ValueError("requires s>1")
    if not (isinstance(ell, int) and ell >= 1):
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    return float(frac - 1) / (2.0 * float(frac) * ell)


def split_cut(s, r: int, ell: int) -> int:
    """The automatic cut r_l = max(1, floor(r^lambda)) at the midpoint
    exponent lambda = lambda_split_exponent(s, ell)."""
    return max(1, math.floor(r ** lambda_split_exponent(s, ell)))


@dataclass(frozen=True)
class SplitCell:
    """A(r, ell) (j is None) or A(r, ell, j), with its r-normalized ratio."""

    ell: int
    j: int | None
    r_ell: int
    count: int
    ratio: float  # count / r
    target: float | None  # S^(ell-1) at j=ell-1, 0.0 at other j, None for A


@dataclass(frozen=True)
class AppendixRow:
    r: int
    count_c: int
    c_over_r: float
    cells: tuple[SplitCell, ...]


@dataclass(frozen=True)
class AppendixReport:
    s: str
    d: int
    series_value: float  # S
    c_over_r_target: float  # 2d (2S+1)^(d-1)
    rows: tuple[AppendixRow, ...]


def verify_appendix_limits(
    s, d: int, r_grid: Sequence[int], tol: float = 1e-10
) -> AppendixReport:
    """Finite-r ratios of all counts against their proven limits.

    For each r in the grid: C(r, d)/r against 2d (2S+1)^(d-1), and for each
    support size l in 2..d with the midpoint cut r_l = floor(r^lambda_l):
    A(r, l) plus the full split A(r, l, j), j = 0..l, each normalized by r.
    """
    frac = _to_fraction(s)
    if frac <= 1:
        raise ValueError("requires s>1")
    if not (isinstance(d, int) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    grid = [int(r) for r in r_grid]
    if not grid or any(r < 1 for r in grid):
        raise ValueError("r_grid entries must be >= 1")
    S = series_S(float(frac), tol)
    target_c = 2.0 * d * (2.0 * S + 1.0) ** (d - 1)

    def row(r: int) -> AppendixRow:
        c = count_C(frac, r, d)
        cells: list[SplitCell] = []
        for ell in range(2, d + 1):
            r_ell = split_cut(frac, r, ell)
            a_total = count_A(frac, r, ell)
            cells.append(SplitCell(ell, None, r_ell, a_total, a_total / r, None))
            for j in range(ell + 1):
                cnt = count_A_split(frac, r, ell, j, r_ell)
                target = S ** (ell - 1) if j == ell - 1 else 0.0
                cells.append(SplitCell(ell, j, r_ell, cnt, cnt / r, target))
        return AppendixRow(r, c, c / r, tuple(cells))

    return AppendixReport(str(frac), d, S, target_c, tuple(row(r) for r in grid))


def sandwich_check(s, d: int, r: int) -> bool:
    """Exact interval membership of the rearrangement between thresholds.

    For every n with C(r-1, d) < n <= C(r, d) the rearrangement satisfies

        (1+r^2)^(-(s-1)/2) <= sigma_n <= (1+(r-1)^2)^(-(s-1)/2).

    Both endpoints are attained (threshold points exist on the axes), so the
    float comparison carries a 1e-9 relative guard.
    """
    frac = _validate_sr(s, r)
    if r < 2:
        raise ValueError("requires r >= 2 (the lower threshold uses r-1)")
    if not (isinstance(d, int) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")
    c_lo = count_C(frac, r - 1, d)
    c_hi = count_C(frac, r, d)
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

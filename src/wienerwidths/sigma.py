"""Nonincreasing rearrangement of {1/omega(k) : k in Z^d}.

The singular values of the natural embeddings handled by this package are
exactly the values 1/omega(k) arranged in nonincreasing order; call that
sequence sigma_1 >= sigma_2 >= ...  Every width formula downstream consumes a
finite prefix of it, so the job here is to produce the N largest values of
1/omega without touching more than O(N) lattice points.

Enumeration runs over *orbits*: the canonical representative of an orbit is
the vector of |k_i| sorted nonincreasing, and the orbit size (number of
signed permutations) is

    multiplicity(rep) = 2^(#nonzero)  *  d! / prod (count of each value)!

Since omega is coordinatewise nondecreasing, incrementing a coordinate never
decreases the weight, so the set of canonical representatives forms a tree
under the unique-parent rule "decrement the rightmost nonzero coordinate".
Each node has at most two children:

    * increment the last nonzero position p (allowed when rep[p-1] > rep[p]
      or p = 0), or
    * turn the first zero position into a 1.

A best-first walk over that tree with a min-heap keyed by
(log weight, representative) therefore emits orbits in nondecreasing weight
order, with ties broken by lexicographic order of the representative; no
visited set is needed.  Emitted sigma values are 1/evaluate(rep), which is
exact for integer-valued weights; the heap key stays in the log domain so
the ordering never overflows.

``sigma_bruteforce`` is the deliberately dumb cross-check: evaluate the whole
box |k|_inf <= R with vectorized numpy arithmetic, partial-sort, and certify
sufficiency of the box through the boundary shell (every point outside the
box dominates its clamp onto the shell coordinatewise, so if sigma_N beats
the best shell value strictly, no outside point can intrude into the top N).
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .weights import WeightSpec, log_weight_box

__all__ = [
    "SigmaPrefix",
    "CumSumOverflowError",
    "BoxTooSmallError",
    "iter_orbits",
    "orbit_multiplicity",
    "sigma_prefix",
    "count_leq",
    "sigma_bruteforce",
]

# log-domain tolerance when counting points below a threshold; see count_leq
_COUNT_LOG_TOL = 1e-12


class CumSumOverflowError(OverflowError):
    """sigma^-2 partial sums left the double range."""


class BoxTooSmallError(ValueError):
    """Brute-force box cannot certify the requested prefix."""


def orbit_multiplicity(rep: Sequence[int]) -> int:
    """Number of distinct signed permutations of a canonical representative."""
    nonzero = sum(1 for v in rep if v)
    perms = math.factorial(len(rep))
    for c in Counter(rep).values():
        perms //= math.factorial(c)
    return (1 << nonzero) * perms


def iter_orbits(spec: WeightSpec) -> Iterator[tuple[float, tuple[int, ...]]]:
    """Yield orbits in nondecreasing weight order (lex tie-break), forever,
    as ``(log_weight, rep)``: the heap key, with exp(log_weight) equal to
    omega at rep to ~1e-12, and the representative, |k_i| sorted
    nonincreasing."""
    d = spec.d
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (0,) * d)]
    while heap:
        lw, rep = heapq.heappop(heap)
        yield lw, rep
        # locate the last nonzero position
        p = d - 1
        while p >= 0 and rep[p] == 0:
            p -= 1
        if p >= 0 and (p == 0 or rep[p - 1] > rep[p]):
            child = rep[:p] + (rep[p] + 1,) + rep[p + 1 :]
            heapq.heappush(heap, (spec.log_evaluate(child), child))
        q = p + 1
        if q < d:
            child = rep[:q] + (1,) + rep[q + 1 :]
            heapq.heappush(heap, (spec.log_evaluate(child), child))


@dataclass(frozen=True)
class SigmaPrefix:
    """First n_max values of the rearrangement, plus cumulative sigma^-2.

    ``values`` is nonincreasing; ``cum_inv_sq[i] = sum_{k<=i+1} values[k-1]^-2``
    is strictly increasing and accumulated with compensated summation.  Both
    arrays are frozen (non-writeable views).
    """

    spec: WeightSpec
    values: np.ndarray = field(repr=False)
    cum_inv_sq: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.cum_inv_sq.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.values)

    def sigma(self, n: int) -> float:
        """sigma_n (1-based)."""
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n={n} outside prefix of length {self.n_max}")
        return float(self.values[n - 1])


def sigma_prefix(spec: WeightSpec, n_max: int) -> SigmaPrefix:
    """Compute the first n_max rearrangement values by best-first orbit walk.

    Deterministic: heap order is (log weight, representative), and orbits
    expand as blocks of equal values.  Raises CumSumOverflowError when
    sigma^-2 or its running sum leaves the double range.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = np.empty(n_max)
    cum = np.empty(n_max)
    filled = 0
    total = 0.0  # Neumaier-compensated running sum of sigma^-2
    comp = 0.0
    for _, rep in iter_orbits(spec):
        w = spec.evaluate(rep)
        inv_sq = w * w
        if not math.isfinite(inv_sq):
            raise CumSumOverflowError("cumsum overflow; reduce N or s")
        take = min(orbit_multiplicity(rep), n_max - filled)
        v = 1.0 / w
        if filled and v > values[filled - 1]:
            # equal-weight orbits can cross by one ulp between the log heap
            # key and the direct evaluation; clamp to keep the sequence
            # exactly nonincreasing
            v = values[filled - 1]
        values[filled : filled + take] = v
        base = total + comp
        cum[filled : filled + take] = base + inv_sq * np.arange(1, take + 1)
        block = inv_sq * take
        t = total + block
        if abs(total) >= abs(block):
            comp += (total - t) + block
        else:
            comp += (block - t) + total
        total = t
        if not math.isfinite(total):
            raise CumSumOverflowError("cumsum overflow; reduce N or s")
        filled += take
        if filled == n_max:
            break
    return SigmaPrefix(spec, values, cum)


def count_leq(spec: WeightSpec, t: float) -> int:
    """|{k in Z^d : omega(k) <= t}|, by pruned recursion over coordinates.

    Comparisons happen in the log domain with a +1e-12 band so that points
    sitting exactly on the threshold are counted despite rounding.  The
    recursion fixes |k_1|, |k_2|, ... in turn and abandons a branch as soon
    as the partial point (remaining coordinates zero) already exceeds the
    threshold; coordinatewise monotonicity makes that sound and keeps the
    work proportional to the count itself.  Never scans a full grid.
    """
    if not (t > 0):
        raise ValueError("threshold must be positive")
    if t < 1.0:
        return 0
    log_t = math.log(t) + _COUNT_LOG_TOL
    d = spec.d
    buf = [0] * d

    def rec(j: int, mult: int) -> int:
        total = 0
        m = 0
        while True:
            buf[j] = m
            if spec._log_evaluate_abs(buf) > log_t:
                break
            mm = mult * (2 if m else 1)
            if j == d - 1:
                total += mm
            else:
                total += rec(j + 1, mm)
            m += 1
        buf[j] = 0
        return total

    return rec(0, 1)


def sigma_bruteforce(
    spec: WeightSpec, n_max: int, box_radius: int
) -> SigmaPrefix:
    """Rearrangement prefix by full-box evaluation (test oracle).

    Evaluates log omega over |k|_inf <= box_radius with vectorized
    arithmetic, partial-sorts, and certifies that the N-th value could not
    live outside the box: every outside point clamps onto the boundary shell
    without increasing 1/omega, so sigma_N must strictly beat the best shell
    value.  Raises BoxTooSmallError otherwise.  Cumulative sums use plain
    np.cumsum; this path is an oracle, not a production kernel.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    R = int(box_radius)
    if R < 1:
        raise ValueError("box_radius must be >= 1")
    lw = log_weight_box(spec, R)
    flat = lw.ravel()
    if flat.size < n_max:
        raise BoxTooSmallError(
            f"box too small: only {flat.size} points for n_max={n_max}"
        )
    sel = np.sort(np.partition(flat, n_max - 1)[:n_max])
    shell_min = math.inf
    for ax in range(spec.d):
        sl: list = [slice(None)] * spec.d
        sl[ax] = 0
        shell_min = min(shell_min, float(np.min(lw[tuple(sl)])))
        sl[ax] = -1
        shell_min = min(shell_min, float(np.min(lw[tuple(sl)])))
    if not sel[-1] < shell_min:
        raise BoxTooSmallError(
            "box too small: boundary shell reaches the requested prefix "
            f"(sigma_N log-weight {sel[-1]:.6g} vs shell minimum "
            f"{shell_min:.6g}); increase box_radius"
        )
    inv_sq = np.exp(2.0 * sel)
    cum = np.cumsum(inv_sq)
    if not math.isfinite(float(cum[-1])):
        raise CumSumOverflowError("cumsum overflow; reduce N or s")
    return SigmaPrefix(spec, np.exp(-sel), cum)

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

Orbits come in the order (log weight, representative): nondecreasing
weight, ties broken by lexicographic order of the representative.  The log
key keeps the ordering from overflowing; emitted sigma values are
1/evaluate(rep), exact for integer-valued weights, clamped where the two
cross by an ulp so the sequence stays exactly nonincreasing.

``sigma_prefix`` enumerates that order in threshold bands.  A band is the
set of representatives whose log weight lies in (lo, hi]; the bands follow
one another, so their concatenation, each sorted stably by key from
lexicographic order, is the order above.  Within a band the
representatives are built a coordinate at a time: omega is coordinatewise
nondecreasing, so the first coordinate and, given the ones before it, each
next one run over an interval whose ends are bisections (vectorized over
the partial representatives).  Trial thresholds are picked by counting
those intervals, without building the band, so each band holds a bounded
number of orbits: about 4,096, or as many as the rows of its widest layer,
which the bisections run over anyway.  Its transient arrays stay small next
to the prefix arrays (within about 1.5 MB of the heap walk's peak at the
benchmark's sizes).  In d = 1 a band is the next run of coordinates, in
order, and no key is computed.  The walk keeps its state between bands, so
a prefix takes its next terms (``SigmaPrefix.resume``) without enumerating
its head again.
The bracketing only proposes candidates: every bisection allows a slack
that bounds the rounding of the key it reads, so it holds where a rounded
key dips as a coordinate grows, and every representative with exact key in
(lo, hi] is a candidate.  Every order key and every printed value comes
from ``weights.RepArrays``, bit for bit the scalar ``WeightSpec`` formulas,
and a candidate near a band edge joins the band its exact key falls in.
Multiplicities, the clamp, the sigma^-2 blocks and their
Neumaier-compensated running sum are arrays; the sum is two in-order
accumulations, bit for bit the orbit-by-orbit loop.

``iter_orbits`` is the reference for that order: a best-first walk over the
tree of canonical representatives under the unique-parent rule "decrement
the rightmost nonzero coordinate", with a min-heap keyed by
(log weight, representative).  Each node has at most two children:

    * increment the last nonzero position p (allowed when rep[p-1] > rep[p]
      or p = 0), or
    * turn the first zero position into a 1.

Incrementing a coordinate never decreases the weight, so the heap pops in
the same order, and no visited set is needed.  That holds for the rounded
keys too wherever they do not dip along a tree edge, and no family has
shown such a dip, near-flat weights included; where a key did dip, the heap
would pop the child right after its parent, while the bands would still
put it at its own key.  In d = 1 the tree is a chain, and both give
0, 1, 2, ... whatever the keys.  The tests compare the two bit for bit,
near-flat weights included.

``sigma_bruteforce`` is the deliberately dumb cross-check: evaluate every
point of the box |k|_inf <= R with vectorized numpy arithmetic, partial-sort,
and certify sufficiency of the box through the boundary shell (every point
outside the box dominates its clamp onto the shell coordinatewise, so if
sigma_N beats the best shell value strictly, no outside point can intrude
into the top N).  It walks no orbit.  The box streams in slabs of first
coordinates, each bit for bit its rows of ``log_weight_box``, and a
selection keeps the N smallest log weights so far: the multiset the whole
box gives, in O(N + slab) memory.
"""
from __future__ import annotations

import copy
import heapq
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .common import ResourceLimitError
from .weights import RepArrays, WeightSpec, box_size, log_weight_box

__all__ = [
    "SigmaPrefix",
    "ResourceLimitError",
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

# Longest prefix a command may enumerate: 16 bytes per term, 480 MB.
_PREFIX_CAP = 30_000_000

# Orbits a band aims at (or more, as many as the rows of the widest layer
# of the band before), and points written per fill step: they bound a
# band's transient arrays.
_BAND = 1 << 12
_FILL = 1 << 13
# Points the box oracle evaluates at a time, or n_max where larger.
_SLAB = 1 << 18
# Multiplicities saturate here, above any prefix length that fits in memory.
_MULT_CAP = 1 << 40
_FLOAT_MAX = sys.float_info.max


def _refuse_above_cap(n: int) -> None:
    """Refuse a prefix of n terms above the prefix cap, before enumerating."""
    if n > _PREFIX_CAP:
        raise ResourceLimitError(
            f"prefix cap {_PREFIX_CAP} exceeded: N={n} requested"
        )


class CumSumOverflowError(ResourceLimitError):
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
    arrays are frozen (non-writeable views).  A prefix from ``sigma_prefix``
    keeps the band walk where it stopped; one built from arrays has none.
    """

    spec: WeightSpec
    values: np.ndarray = field(repr=False)
    cum_inv_sq: np.ndarray = field(repr=False)
    _walk: _Walk | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.cum_inv_sq.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.values)

    def resume(self) -> _Walk | None:
        """A copy of the walk, to ``take`` the terms after this prefix; None
        for a prefix built from arrays."""
        return copy.copy(self._walk)


def _multiplicities(reps: np.ndarray) -> np.ndarray:
    """orbit_multiplicity of every row, capped at _MULT_CAP.

    Along a sorted row, run[i] counts the equal entries up to i, so the
    product of the runs is prod (count of each value)!; the multinomial
    grows one position at a time, m * (i + 1) // run, exactly."""
    n, d = reps.shape
    mult = np.ones(n, np.int64)
    run = np.ones(n, np.int64)
    for i in range(1, d):
        run = np.where(reps[:, i] == reps[:, i - 1], run + 1, 1)
        mult = np.minimum(mult * (i + 1) // run, _MULT_CAP)
    signs = np.minimum(np.count_nonzero(reps, axis=1), 62)
    return np.where(mult > _MULT_CAP >> signs, _MULT_CAP, mult << signs)


def _last_at_most(key, ok, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the largest a in [lo, hi] with ok(*key(a)), or lo - 1 where
    there is none; ok must hold on an initial segment of each row."""
    lo = lo - 1
    while True:
        active = hi > lo
        if not active.any():
            return lo
        mid = (lo + hi + 1) >> 1
        good = ok(*key(np.maximum(mid, 0)))
        lo = np.where(active & good, mid, lo)
        hi = np.where(active & ~good, mid - 1, hi)


def _bisect(pred, lo: int, hi: int) -> int:
    """The largest a in [lo, hi] with pred(a), or lo - 1 where there is
    none; pred must hold on an initial segment.  ``_last_at_most`` for the
    one row of the first coordinate, where a scalar key costs a tenth of a
    numpy step."""
    lo -= 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _expand(cols: list, L: np.ndarray, U: np.ndarray) -> list:
    """The columns of the rows (partial row i, a) for every a in
    L[i]..U[i], in order."""
    counts = np.maximum(U - L + 1, 0)
    starts = np.cumsum(counts) - counts
    new = np.arange(int(counts.sum())) - np.repeat(starts - L, counts)
    return [np.repeat(c, counts) for c in cols] + [new]


def _frame(arrays: RepArrays, lo: float, hi: float, axis: int, limit: float,
           a_max: int):
    """The candidates for the band (lo, hi] in d >= 2, layer by layer,
    short of the last layer: (columns, L, U, rows of the widest layer),
    where the last coordinate of the partial representative in row i runs
    over L[i]..U[i].  None when the first coordinate passes axis + limit (the
    axis points past ``axis`` are all candidates) or a layer holds more
    than ``limit`` rows.

    A partial representative (a_0, ..., a_j) is kept while its smallest
    completion, the rest zero, may weigh at most hi and its largest, every
    remaining coordinate a_j, may weigh more than lo; omega is
    coordinatewise nondecreasing, so both bounds are bisections.  The first
    coordinate's bounds use the scalar key and the others the tables'
    bracketing keys, each with its slack: a bound holds on a whole initial
    segment even where the rounded key dips as a coordinate grows, so every
    representative with exact key in (lo, hi] is a candidate.  The search
    for the first coordinate starts at ``axis``, the first coordinate of an
    earlier band's orbit, which weighs at most lo, and stops at ``a_max``,
    past which no orbit of the prefix lies.
    """
    spec = arrays.spec
    d = spec.d
    rest = [0] * (d - 1)

    def at_most_hi(a: int) -> bool:
        k, slack = arrays.scalar_key([a] + rest)
        return k - slack <= hi

    def at_most_lo(a: int) -> bool:
        k, slack = arrays.scalar_key([a] * d)
        return k + slack <= lo

    top = axis + 1
    while top <= a_max and at_most_hi(top):
        if top - axis > limit:
            return None
        top = axis + 2 * (top - axis)
    U = _bisect(at_most_hi, axis, min(top - 1, a_max))
    L = 0 if lo == -math.inf else 1 + _bisect(at_most_lo, 0, U)
    if U - L + 1 > limit:  # the first layer: no table grows for a refused trial
        return None
    arrays.reserve(U)
    L, U = np.array([L]), np.array([U])
    cols: list[np.ndarray] = []
    widest = 1
    for j in range(1, d):
        widest = max(widest, int(np.maximum(U - L + 1, 0).sum()))
        if widest > limit:
            return None
        cols = _expand(cols, L, U)
        state = arrays.bracket(len(cols[0]))
        for c in cols:
            state = arrays.push(state, c)
        zero = np.zeros(len(cols[0]), np.int64)
        U = _last_at_most(lambda a: arrays.key(arrays.push(state, a)),
                          lambda k, slack: k - slack <= hi, zero, cols[-1])
        if lo == -math.inf:
            L = zero
        else:
            L = 1 + _last_at_most(
                lambda a: arrays.key(arrays.push(state, a, d - j)),
                lambda k, slack: k + slack <= lo, zero, U)
    return cols, L, U, widest


def _pick_band(arrays: RepArrays, lo: float, step: float, target: int,
               axis: int, rows: int, a_max: int):
    """A threshold hi > lo whose band (lo, hi] holds about target to
    2 target orbits, by counting the candidates of trial thresholds; returns
    (hi, frame, step taken).  ``axis`` is the largest first coordinate of
    the earlier bands, and ``rows`` the widest layer of the band before.  A
    trial stops where the axis passes axis + limit, or a layer holds more
    than limit rows, limit 2 max(target, rows): no table or layer grows far
    beyond the band and its partial representatives.

    The candidates of a thin band are its orbits plus a fringe within the
    slack of lo and hi.  Where two trials put more than half of the count,
    and at most limit candidates, in a part that does not shrink with the
    step, the fringe or a tie class above lo dominates it; the search then
    counts that many candidates more, so the band still gains about target
    orbits instead of shrinking towards an ulp."""
    base = max(lo, 0.0)
    limit = 2 * max(target, rows) + 64

    def threshold(step: float) -> float:
        return min(max(base + step, math.nextafter(base, math.inf)), _FLOAT_MAX)

    below = above = None  # (step, hi, frame, count) with too few / too many
    spare = 0  # candidates that do not shrink with the step
    halvings = 0
    first = step
    for _ in range(64):
        hi = threshold(step)
        frame = _frame(arrays, lo, hi, axis, limit + spare, a_max)
        if frame is None:
            count = None
        else:
            _, L, U, _ = frame
            count = int(np.maximum(U - L + 1, 0).sum())
        if count is not None and not spare and above is not None \
                and above[3] is not None and step < above[0]:
            # count = orbits + fringe, the orbits proportional to the step
            fringe = count - (above[3] - count) * step / (above[0] - step)
            if 2 * fringe >= count and fringe <= limit:
                spare = int(fringe)
                if above[3] < target + spare:
                    below, above = above, None
        trial = (step, hi, frame, count)
        if count is None or count > 2 * target + spare:
            above = trial
        elif count < target + spare:
            if below is None or step > below[0]:
                below = trial
            if hi == _FLOAT_MAX:
                break
        else:
            return hi, frame, step
        # count is about proportional to step in a thin band
        if above is None:
            grow = 1.5 * target / max(below[3] - spare, 1)
            step = below[0] * min(4.0, max(2.0, grow))
        elif below is None:
            shrink = 0.5 if count is None else 1.5 * target / (count - spare)
            step *= max(0.25, shrink)
        else:
            # a dozen halvings that still straddle the range meet a tie
            # class, or a cluster the bracketing slack cannot split
            mid = 0.5 * (below[0] + above[0])
            if halvings == 12 or not below[0] < mid < above[0]:
                break
            halvings += 1
            step = mid
    # a tie class, a cluster or the float range ends the search: take the
    # band whose count misses the range by the smaller factor, the smaller
    # one where the larger was not counted
    if below is not None and (
            above is None or above[2] is None
            or below[3] * above[3] >= (target + spare) * (2 * target + spare)):
        return below[1], below[2], below[0]
    if above is not None and above[2] is not None:
        return above[1], above[2], above[0]
    # every trial passed the limit; the first one goes ahead without it
    hi = threshold(first)
    return hi, _frame(arrays, lo, hi, axis, math.inf, a_max), first


def _band(arrays: RepArrays, lo: float, hi: float, frame) -> np.ndarray:
    """The canonical representatives with exact log weight in (lo, hi], in
    heap order: by (log weight, representative).  The layers expand in
    lexicographic order, so a stable sort by key is that order."""
    cols = _expand(*frame[:3])
    reps = np.stack(cols, axis=1)
    keys = arrays.log_weights(reps)
    inside = (keys > lo) & (keys <= hi)
    reps, keys = reps[inside], keys[inside]
    return reps[np.argsort(keys, kind="stable")]


def _neumaier(total: float, comp: float, blocks: np.ndarray):
    """Neumaier-compensated running sum of the nonnegative blocks from the
    state (total, comp): arrays of the totals and the compensations before
    each block, and after the last one.

    It equals the orbit-by-orbit loop bit for bit: np.add.accumulate adds in
    order, and each error term is the loop's own branch on which of total
    and block is larger, both nonnegative."""
    totals = np.add.accumulate(np.concatenate(([total], blocks)))
    before, after = totals[:-1], totals[1:]
    errors = np.where(before >= blocks, (before - after) + blocks,
                      (blocks - after) + before)
    return totals, np.add.accumulate(np.concatenate(([comp], errors)))


def _fill(values, cum, at, v, base, inv_sq, takes, ends, p0, p1) -> None:
    """Write the band's points p0 .. p1 - 1 to positions at + p0 ..: orbit
    i has points ends[i] - takes[i] .. ends[i] - 1, with sigma v[i] and
    sums base[i] + inv_sq[i] * j, j = 1..takes[i]; a block at a time."""
    for q in range(p0, p1, _FILL):
        p = np.arange(q, min(q + _FILL, p1))
        i = np.searchsorted(ends, p, side="right")
        j = p - (ends[i] - takes[i]) + 1
        values[at + q : at + q + len(p)] = v[i]
        cum[at + q : at + q + len(p)] = base[i] + inv_sq[i] * j


class _Walk:
    """The band walk of ``sigma_prefix`` where it stopped: the state before
    the band it stopped in, and the points of that band it wrote (``used``).
    ``take`` goes on from there: whatever its bound, the next band from that
    state begins with those points, so it writes after them."""

    def __init__(self, spec: WeightSpec) -> None:
        self.arrays = RepArrays(spec)
        # the first trial threshold: the axis point 2
        self.step = max(spec._log_evaluate_abs([2] + [0] * (spec.d - 1)), 5e-324)
        self.filled = self.orbits = self.axis = self.used = 0
        self.total = self.comp = 0.0  # Neumaier-compensated sum of sigma^-2
        self.last = math.inf  # the last value written
        self.lo = -math.inf
        self.rows = 0  # partial representatives in the widest layer of the last band

    @np.errstate(over="ignore", invalid="ignore")
    def take(self, values: np.ndarray, cum: np.ndarray, at: int, k: int) -> None:
        """Write the next k values and cumulative sums from position ``at``.
        Raises CumSumOverflowError when sigma^-2 or its running sum leaves
        the double range by the last of them."""
        arrays, d = self.arrays, self.arrays.spec.d
        goal = self.filled + k
        # an orbit with first coordinate a follows its ancestors, the axis
        # orbits 1..a-1 of two points or more each: a <= goal / 2 + 1
        a_max = goal // 2 + 1
        while self.filled < goal:
            # orbits still wanted, at the mean multiplicity so far
            want = (goal - self.filled) * self.orbits / max(self.filled, 1) or goal
            # the first band, of unknown multiplicity, stays small; a band
            # spans at least the rows its bisections run over
            target = min(max(_BAND, self.rows) if self.filled else 1024,
                         int(1.1 * want) + 8)
            hi = self.lo
            if d == 1:
                # the tree is a chain: the heap pops 0, 1, 2, ... whatever
                # the rounded keys do
                reps = np.arange(self.orbits, self.orbits + target)[:, None]
            else:
                hi, frame, self.step = _pick_band(arrays, self.lo, self.step, target,
                                                  self.axis, self.rows, a_max)
                self.rows = frame[3]
                reps = _band(arrays, self.lo, hi, frame)
                if not len(reps):
                    if hi == _FLOAT_MAX:
                        # every further orbit has an infinite log weight
                        raise CumSumOverflowError("cumsum overflow; reduce N or s")
                    self.lo = hi
                    self.step *= 2.0
                    continue
                # aim the next band at 1.5 target from the density of this one
                self.step *= min(4.0, max(0.25, 1.5 * target / len(reps)))
            takes = _multiplicities(reps)
            ends = np.cumsum(takes)
            w = arrays.weights(reps)
            inv_sq = w * w
            # equal-weight orbits can cross by one ulp between the log key
            # and the direct evaluation; clamp to keep the sequence exactly
            # nonincreasing
            v = np.minimum.accumulate(np.concatenate(([self.last], 1.0 / w)))[1:]
            totals, comps = _neumaier(self.total, self.comp, inv_sq * takes)
            p0 = min(self.used, int(ends[-1]))
            p1 = min(int(ends[-1]), p0 + goal - self.filled)
            # refuse on the terms written only: the orbits up to the one of
            # point p1 - 1, and the sum up to that point
            i = int(np.searchsorted(ends, p1 - 1, side="right"))
            if not (np.isfinite(inv_sq[: i + 1]).all() and math.isfinite(
                    totals[i] + inv_sq[i] * (p1 - ends[i] + takes[i]))):
                raise CumSumOverflowError("cumsum overflow; reduce N or s")
            _fill(values, cum, at - p0, v, totals[:-1] + comps[:-1], inv_sq,
                  takes, ends, p0, p1)
            at += p1 - p0
            self.filled += p1 - p0
            if p1 < ends[-1]:  # stopped inside the band: keep the state before it
                self.used = p1
                return
            self.used -= p0
            self.lo, self.last = hi, float(v[-1])
            self.total, self.comp = float(totals[-1]), float(comps[-1])
            self.axis = max(self.axis, int(reps[:, 0].max()))
            self.orbits += len(reps)


def sigma_prefix(spec: WeightSpec, n_max: int) -> SigmaPrefix:
    """Compute the first n_max rearrangement values by banded threshold
    enumeration.

    Orbits come in heap order, (log weight, representative), a band of
    orbits at a time, and expand as blocks of equal values.  Raises
    CumSumOverflowError when sigma^-2 or its running sum leaves the double
    range.  The prefix keeps the walk where it stopped (``resume``).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = np.empty(n_max)
    cum = np.empty(n_max)
    walk = _Walk(spec)
    walk.take(values, cum, 0, n_max)
    prefix = SigmaPrefix(spec, values, cum)
    object.__setattr__(prefix, "_walk", walk)
    return prefix


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


def _check_box(spec: WeightSpec, n_max: int, box_radius: int) -> int:
    """The oracle's refusals that need no evaluation: n_max and the radius
    below 1, a box above the cap and a box of fewer than n_max points.
    Returns the radius."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    R = int(box_radius)
    if R < 1:
        raise ValueError("box_radius must be >= 1")
    size = box_size(spec, R)
    if size < n_max:
        raise BoxTooSmallError(
            f"box too small: only {size} points for n_max={n_max}"
        )
    return R


def sigma_bruteforce(
    spec: WeightSpec, n_max: int, box_radius: int
) -> SigmaPrefix:
    """Rearrangement prefix by full-box evaluation (test oracle).

    Evaluates log omega at every point of |k|_inf <= box_radius with
    vectorized arithmetic, keeps the n_max smallest, sorts them, and
    certifies that the N-th value could not live outside the box: every
    outside point clamps onto the boundary shell without increasing
    1/omega, so sigma_N must strictly beat the best shell value.  Raises
    BoxTooSmallError otherwise, and refuses a box above the cap or of
    fewer than n_max points before evaluating any.  The box is evaluated a
    slab of first coordinates at a time, about max(n_max, ``_SLAB``) points
    and at least one face, so memory is O(n_max + slab), not O(box); the
    result is the one the whole box at once gives, bit for bit.  Cumulative
    sums use plain np.cumsum; this path is an oracle, not a production
    kernel.
    """
    R = _check_box(spec, n_max, box_radius)
    face = (2 * R + 1) ** (spec.d - 1)
    width = max(1, max(n_max, _SLAB) // face)
    kept = np.empty(0)
    shell_min = math.inf
    for lo in range(-R, R + 1, width):
        slab = log_weight_box(spec, R, range(lo, min(lo + width, R + 1)))
        # the faces k_1 = -R and k_1 = R, and the faces of the other axes
        faces = [slab[0]] if lo == -R else []
        if lo + width > R:
            faces.append(slab[-1])
        for ax in range(1, spec.d):
            faces += [slab.take(0, axis=ax), slab.take(-1, axis=ax)]
        shell_min = min([shell_min, *(float(np.min(f)) for f in faces)])
        # the n_max smallest of the points so far: a multiset, whichever
        # order the slabs come in.  A point above the n_max-th smallest so
        # far cannot join it, and one equal to it would add an equal value
        points = slab.ravel()
        if len(kept) == n_max:
            points = points[points < kept[-1]]
        kept = np.concatenate((kept, points))
        if len(kept) >= n_max:
            kept.partition(n_max - 1)
            kept = kept[:n_max].copy()
    sel = np.sort(kept)
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

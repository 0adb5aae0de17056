"""Weight families on the integer lattice Z^d.

Everything in this package is driven by a positive weight omega(k), k in Z^d,
attached to Fourier coefficients.  Five built-in families:

    mixed-sr        omega(k) = prod_i (1 + |k_i|^r)^(s/r),   0 < r < inf
    mixed-inf       omega(k) = prod_i max(1, |k_i|)^s        (the r = inf form)
    isotropic-sr    omega(k) = (1 + sum_i |k_i|^r)^(s/r)
    isotropic-inf   omega(k) = max(1, |k_1|, ..., |k_d|)^s
    h1-ratio        omega(k) = prod_i (1 + k_i^2)^(s/2) / (1 + sum_i k_i^2)^(1/2)

Shared structural properties, relied on by the enumeration kernels in
:mod:`wienerwidths.sigma`:

    * omega(0) = 1,
    * omega is invariant under sign flips and coordinate permutations,
    * omega is nondecreasing in each |k_i| (h1-ratio needs s > 1 for this,
      enforced by the constructor),
    * omega(k) -> inf along every ray.

``r = inf`` is a distinct family variant, never a float infinity: pass
``mixed-inf`` / ``isotropic-inf`` instead of ``r=math.inf``.

Comparisons between lattice points go through ``log_evaluate``, an
overflow-safe logarithm accurate to ~1e-13 absolute at desk scales.  No tie
band is applied: the enumeration orders orbits by (log weight, canonical
representative), with both computed over whole bands of representatives by
``RepArrays`` bit for bit as the scalar formulas compute them, and
``sigma_prefix`` clamps a one-ulp crossing between that log key and the
direct evaluation so the values stay exactly nonincreasing.

The isotropic families are evaluatable and enumerable like the others, but
their width *asymptotics* are not covered by the supported constants.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .common import Family

# Largest box the brute-force oracle evaluates.  It streams the box in
# slabs, so this bounds its time (every point is evaluated), not its memory.
_MAX_BOX_ELEMENTS = 200_000_000

_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # ~709.78


def _log1p_pow(v: int, r: float) -> float:
    """log(1 + v^r) for integer v >= 0, without overflow in v^r."""
    if v == 0:
        return 0.0
    t = r * math.log(v)
    # 1 + v^r = v^r (1 + v^-r); the correction term never overflows.
    return t + math.log1p(math.exp(-t))


@dataclass(frozen=True)
class WeightSpec:
    """A weight family with its parameters.

    Parameters
    ----------
    family : Family
        One of the five families.
    s : float
        Smoothness parameter, s > 0.  h1-ratio requires s > 1 (otherwise the
        weight is not coordinatewise monotone).
    d : int
        Lattice dimension, d >= 1.
    r : float, optional
        Inner exponent for mixed-sr / isotropic-sr, 0 < r < inf.  Ignored by
        the other families (normalized to None).
    """

    family: Family
    s: float
    d: int
    r: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise ValueError(f"unknown family: {self.family!r}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        s = float(self.s)
        if not (math.isfinite(s) and s > 0):
            raise ValueError(f"s must be positive and finite, got {self.s!r}")
        object.__setattr__(self, "s", s)
        if self.family is Family.H1_RATIO and s <= 1:
            raise ValueError("h1-ratio requires s>1")
        if self.family in (Family.MIXED_SR, Family.ISOTROPIC_SR):
            if self.r is None:
                raise ValueError(f"{self.family.value} requires r")
            r = float(self.r)
            if not (math.isfinite(r) and r > 0):
                raise ValueError(
                    "r must be a positive finite number; "
                    "use the -inf family variant for r = infinity"
                )
            object.__setattr__(self, "r", r)
        else:
            # r is meaningless here; normalize so specs compare equal.
            object.__setattr__(self, "r", None)

    # -- evaluation ---------------------------------------------------------

    def _abs_coords(self, k: Sequence[int]) -> list[int]:
        if len(k) != self.d:
            raise ValueError(
                f"wrong arity: expected {self.d} coordinates, got {len(k)}"
            )
        return [abs(int(v)) for v in k]

    def evaluate(self, k: Sequence[int]) -> float:
        """omega(k) as a float, relative error <~ 1e-13.

        Computed directly in the linear domain (exact for integer-valued
        weights such as mixed-inf with integer s); falls back to the log
        domain on overflow and returns inf beyond the float range.
        """
        # canonical order makes the float product itself symmetric, not
        # just the log key
        a = sorted(self._abs_coords(k), reverse=True)
        try:
            return self._evaluate_direct(a)
        except OverflowError:
            lw = self._log_evaluate_abs(a)
            return math.exp(lw) if lw < _LOG_MAX_FLOAT else math.inf

    def _evaluate_direct(self, a: list[int]) -> float:
        fam = self.family
        if fam is Family.MIXED_SR:
            e = self.s / self.r
            out = 1.0
            for v in a:
                out *= (1.0 + float(v) ** self.r) ** e
            return out
        if fam is Family.MIXED_INF:
            m = 1
            for v in a:
                if v > 1:
                    m *= v
            return float(m) ** self.s
        if fam is Family.ISOTROPIC_SR:
            t = math.fsum(float(v) ** self.r for v in a)
            return (1.0 + t) ** (self.s / self.r)
        if fam is Family.ISOTROPIC_INF:
            return float(max(1, max(a))) ** self.s
        # h1-ratio
        half = 0.5 * self.s
        num = 1.0
        ssq = 0
        for v in a:
            num *= (1.0 + v * v) ** half
            ssq += v * v
        return num / math.sqrt(1.0 + ssq)

    def log_evaluate(self, k: Sequence[int]) -> float:
        """log omega(k), overflow-safe, ~1e-13 absolute accuracy.

        fsum makes the result exactly invariant under coordinate
        permutations, so tied orbits get bit-identical log keys.
        """
        return self._log_evaluate_abs(self._abs_coords(k))

    def _log_evaluate_abs(self, a: list[int]) -> float:
        fam = self.family
        if fam is Family.MIXED_SR:
            return (self.s / self.r) * math.fsum(_log1p_pow(v, self.r) for v in a)
        if fam is Family.MIXED_INF:
            return self.s * math.fsum(math.log(v) for v in a if v > 1)
        if fam is Family.ISOTROPIC_SR:
            m = max(a)
            if m == 0:
                return 0.0
            # 1 + sum v^r = m^r (m^-r + sum (v/m)^r), each ratio term <= 1.
            lm = self.r * math.log(m)
            t = math.fsum((v / m) ** self.r for v in a)
            rest = math.exp(-lm) if lm < _LOG_MAX_FLOAT else 0.0
            return (self.s / self.r) * (lm + math.log(t + rest))
        if fam is Family.ISOTROPIC_INF:
            m = max(a)
            return self.s * math.log(m) if m > 1 else 0.0
        # h1-ratio
        half = 0.5 * self.s
        ssq = 0
        acc = 0.0
        terms = []
        for v in a:
            vv = v * v
            ssq += vv
            terms.append(math.log1p(vv))
        acc = half * math.fsum(terms)
        return acc - 0.5 * math.log1p(ssq)

    def axis_extent(self, log_t: float) -> int:
        """Largest m >= 0 with log omega(m e_1) <= log_t.

        Any point with omega(k) <= t satisfies |k_j| <= axis_extent(log t)
        for every j: dropping all other coordinates to 0 cannot increase the
        weight.  Used to size brute-force boxes.
        """
        if log_t < 0:
            return 0

        def axis_lw(m: int) -> float:
            return self._log_evaluate_abs([m] + [0] * (self.d - 1))

        hi = 1
        while axis_lw(hi) <= log_t:
            hi *= 2
            if hi > 1 << 62:
                raise OverflowError("axis extent out of range")
        lo = hi // 2  # axis_lw(lo) <= log_t < axis_lw(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if axis_lw(mid) <= log_t:
                lo = mid
            else:
                hi = mid
        return lo


def _or_nan(fn):
    """fn(v), or nan where the scalar formula raises OverflowError; a nan
    row is evaluated again by the scalar formula, overflow fallback and all."""

    def safe(v: int) -> float:
        try:
            return fn(v)
        except OverflowError:
            return math.nan

    return safe


def _map(fn, values, count: int) -> np.ndarray:
    """fn over the integers ``values`` as a float array, nan where fn
    overflows."""
    try:
        return np.fromiter(map(fn, values), float, count)
    except OverflowError:
        return np.fromiter(map(_or_nan(fn), values), float, count)


def _per_row(out: np.ndarray, rows: np.ndarray, pick, fn) -> None:
    """out[i] = fn(list(rows[i])) where pick[i], a block of rows at a time,
    so the row lists stay small."""
    idx = np.flatnonzero(pick)
    for lo in range(0, len(idx), 4096):
        part = idx[lo:lo + 4096]
        out[part] = np.fromiter(map(fn, rows[part].tolist()), float, len(part))


class RepArrays:
    """One weight over arrays of canonical representatives.

    A representative is a row of d int64 columns, |k_i| sorted
    nonincreasing.  ``log_weights`` and ``weights`` equal
    ``WeightSpec.log_evaluate`` and ``WeightSpec.evaluate`` bit for bit.  The
    per-coordinate terms come from tables filled by the scalar code's own
    ``math`` calls and are combined with IEEE + * / sqrt in the scalar
    order; a two-term ``fsum`` is one correctly rounded addition.  Rows the
    scalar code combines otherwise go through the scalar formula: three or
    more fsum terms (isotropic-sr: three or more nonzero coordinates, or a
    coordinate from 2^53 on), and a table entry or a sum that overflowed.
    mixed-inf's float(prod) ** s, h1-ratio's log1p(ssq) and isotropic-sr's
    outer pow and log (and its (a1/a0)^r) run once per row, through
    ``map``: numpy's transcendentals may differ from libm's in the last
    bit.

    ``bracket``, ``push`` and ``key`` only bracket: they may use numpy
    transcendentals, which can differ from libm in the last bit, and
    ``key`` returns a slack with each key that bounds how far it may sit
    from the exact one.
    """

    def __init__(self, spec: WeightSpec) -> None:
        self.spec = spec
        s, r, d, fam = spec.s, spec.r, spec.d, spec.family
        zeros = [0] * (d - 1)
        # name -> scalar term of one coordinate
        if fam is Family.MIXED_SR:
            e = s / r
            terms = {"key": lambda v: _log1p_pow(v, r),
                     "val": lambda v: (1.0 + float(v) ** r) ** e}
        elif fam is Family.MIXED_INF:
            terms = {"key": lambda v: math.log(v) if v > 1 else 0.0}
        elif fam is Family.ISOTROPIC_INF:
            terms = {"key": lambda v: s * math.log(v) if v > 1 else 0.0,
                     "val": lambda v: float(max(1, v)) ** s}
        elif fam is Family.H1_RATIO:
            half = 0.5 * s
            terms = {"key": lambda v: math.log1p(v * v),
                     "val": lambda v: (1.0 + v * v) ** half}
        else:
            # isotropic-sr: "key" and "val" on the axes; for rows with two
            # nonzero coordinates "pw" is v^r, "lp" is log v^r and "rest"
            # exp(-lp), the scalar log formula's terms at its largest
            # coordinate v
            def rest(v: int) -> float:
                # v = 0 is no row's largest coordinate; its entry is 0.0
                lm = r * math.log(v) if v else math.inf
                return math.exp(-lm) if lm < _LOG_MAX_FLOAT else 0.0

            terms = {"key": lambda v: spec._log_evaluate_abs([v] + zeros),
                     "val": lambda v: spec.evaluate([v] + zeros),
                     "lp": lambda v: r * math.log(v) if v else -math.inf,
                     "pw": lambda v: float(v) ** r,
                     "rest": rest}
        self._terms = terms
        self._tables = {name: np.empty(0) for name in terms}

    def reserve(self, top: int) -> None:
        """Fill every table up to coordinate ``top``."""
        for name, table in self._tables.items():
            n = len(table)
            if n > top:
                continue
            size = max(top + 1, n + n // 4)
            grown = np.empty(size)
            grown[:n] = table
            grown[n:] = _map(self._terms[name], range(n, size), size - n)
            self._tables[name] = grown

    def _at(self, name: str, idx: np.ndarray) -> np.ndarray:
        """The terms at the coordinates idx: from the table where it reaches
        them, else computed (d = 1 keeps no table: its bands are disjoint
        ranges of the one coordinate)."""
        table = self._tables[name]
        if not idx.size or idx.max() < len(table):
            return table[idx]
        return _map(self._terms[name], idx.ravel().tolist(), idx.size).reshape(idx.shape)

    # -- exact ---------------------------------------------------------------

    def _pairs(self, reps: np.ndarray) -> np.ndarray:
        """isotropic-sr rows with exactly two nonzero coordinates, both below
        2^53, where numpy's float division a1/a0 is Python's int/int."""
        pick = (reps[:, 1] > 0) & (reps[:, 0] < 2**53)
        if self.spec.d > 2:
            pick &= reps[:, 2] == 0
        return pick

    def log_weights(self, reps: np.ndarray) -> np.ndarray:
        """``WeightSpec.log_evaluate`` of every row, bit for bit."""
        spec, fam = self.spec, self.spec.family
        if fam in (Family.ISOTROPIC_INF, Family.ISOTROPIC_SR):
            out = self._at("key", reps[:, 0])
            if fam is Family.ISOTROPIC_SR and spec.d > 1:
                # (s/r) (lm + log(t + rest)) with t = fsum(1, (a1/a0)^r),
                # one IEEE addition; the pow and the log through map
                pairs = self._pairs(reps)
                a0, a1 = reps[pairs, 0], reps[pairs, 1]
                r = spec.r
                t = 1.0 + _map(lambda q: q ** r, (a1 / a0).tolist(), a0.size)
                inner = _map(math.log, (t + self._at("rest", a0)).tolist(),
                             a0.size)
                out[pairs] = (spec.s / r) * (self._at("lp", a0) + inner)
                _per_row(out, reps, (reps[:, 1] > 0) & ~pairs,
                         spec._log_evaluate_abs)
            return out
        # the fsum terms; mixed-inf's term is 0.0 where the scalar code
        # leaves v <= 1 out of the sum, which does not change an fsum
        terms = self._at("key", reps)
        out = terms[:, 0] + terms[:, 1] if spec.d > 1 else terms[:, 0]
        if spec.d > 2:
            _per_row(out, terms, terms[:, 2] > 0, math.fsum)
        if fam is Family.MIXED_SR:
            return (spec.s / spec.r) * out
        if fam is Family.MIXED_INF:
            return spec.s * out
        ssq = np.einsum("ij,ij->i", reps, reps)
        log1p = np.fromiter(map(math.log1p, ssq.tolist()), float, len(ssq))
        return 0.5 * spec.s * out - 0.5 * log1p

    def weights(self, reps: np.ndarray) -> np.ndarray:
        """``WeightSpec.evaluate`` of every row, bit for bit."""
        spec, fam = self.spec, self.spec.family
        scalar = None
        if fam is Family.MIXED_INF:
            s = spec.s
            prod = np.maximum(reps, 1).prod(axis=1).tolist()
            out = _map(lambda p: float(p) ** s, prod, len(prod))
        elif fam in (Family.ISOTROPIC_INF, Family.ISOTROPIC_SR):
            out = self._at("val", reps[:, 0])
            if spec.d > 1 and fam is Family.ISOTROPIC_SR:
                # (1 + t)^(s/r) with t = fsum(a0^r, a1^r), one IEEE addition,
                # and nan where fsum raises on its overflow; the pow through
                # map
                pairs = self._pairs(reps)
                pw = self._at("pw", reps[pairs, :2])
                with np.errstate(over="ignore"):
                    t = pw[:, 0] + pw[:, 1]
                t[np.isinf(t)] = math.nan
                e = spec.s / spec.r
                out[pairs] = _map(lambda x: (1.0 + x) ** e, t.tolist(), t.size)
                scalar = (reps[:, 1] > 0) & ~pairs
        else:
            val = self._at("val", reps)
            out = val[:, 0]
            for j in range(1, spec.d):
                out = out * val[:, j]
            if fam is Family.H1_RATIO:
                out = out / np.sqrt(1.0 + np.einsum("ij,ij->i", reps, reps))
        nan = np.isnan(out)
        scalar = nan if scalar is None else scalar | nan
        _per_row(out, reps, scalar, spec.evaluate)
        return out

    # -- bracketing ----------------------------------------------------------

    def scalar_key(self, a: list[int]) -> tuple[float, float]:
        """(log omega by the scalar formula, a slack of at least twice its
        rounding error) at one representative.

        The formula rounds a handful of libm calls and IEEE operations on
        nonnegative terms, each within an ulp, so 2^-48 (32 ulps) of the
        terms' magnitude bounds that error with room; for h1-ratio the
        magnitude is both terms of its difference, k + log1p(|a|^2).  A
        bound that allows the slack holds on a whole initial segment of a
        coordinate even where the rounded key dips as the coordinate grows.
        """
        k = self.spec._log_evaluate_abs(a)
        size = abs(k)
        if self.spec.family is Family.H1_RATIO:
            size += math.log1p(sum(v * v for v in a))
        return k, 2.0**-48 * size + 1e-323

    def bracket(self, n: int) -> tuple:
        """The bracketing state of n empty partial representatives."""
        fam = self.spec.family
        if fam in (Family.ISOTROPIC_INF, Family.ISOTROPIC_SR):
            # the largest coordinate, -1 while there is none, and for
            # isotropic-sr sum (v / max)^r
            acc = np.zeros(n) if fam is Family.ISOTROPIC_SR else None
            return (np.full(n, -1, np.int64), acc)
        # sum of the coordinate key terms, and h1-ratio's sum of squares
        acc = np.zeros(n, np.int64) if fam is Family.H1_RATIO else None
        return (np.zeros(n), acc)

    def push(self, state: tuple, a, k: int = 1) -> tuple:
        """The state after appending k copies of the coordinates a; a state
        is a tuple of per-row arrays and Nones."""
        first, acc = state
        fam = self.spec.family
        if fam in (Family.ISOTROPIC_INF, Family.ISOTROPIC_SR):
            top = np.where(first < 0, a, first)
            if fam is Family.ISOTROPIC_SR:
                lp = self._tables["lp"]
                acc = acc + k * np.exp(lp[a] - lp[np.maximum(top, 1)])
            return (top, acc)
        first = first + k * self._tables["key"][a]
        if fam is Family.H1_RATIO:
            acc = acc + k * a * a
        return (first, acc)

    def key(self, state: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(log omega up to rounding, its slack) of each state's
        representative, its remaining coordinates zero."""
        spec, fam = self.spec, self.spec.family
        first, acc = state
        if fam is Family.ISOTROPIC_INF:
            out = self._tables["key"][np.maximum(first, 0)]
            return out, 1e-9 * out + 1e-323
        if fam is Family.ISOTROPIC_SR:
            lm = self._tables["lp"][np.maximum(first, 1)]
            out = (spec.s / spec.r) * (lm + np.log(acc + np.exp(-lm)))
            return out, 1e-9 * out + 1e-323
        if fam is Family.H1_RATIO:
            # the difference cancels: its rounding scales with the terms
            minus = 0.5 * np.log1p(acc)
            out = 0.5 * spec.s * first - minus
            return out, 1e-9 * out + 1e-13 * (out + 2.0 * minus) + 1e-323
        c = spec.s / spec.r if fam is Family.MIXED_SR else spec.s
        out = c * first
        return out, 1e-9 * out + 1e-323


def _over_box(f: np.ndarray, rows: slice, d: int, op=np.add) -> np.ndarray:
    """op(op(f[i], f[j]), f[k]) ..., left to right, for i in the slab
    ``rows`` of first coordinates and every other coordinate j, k, ...: f
    holds one term per coordinate value."""
    out = f[rows]
    for _ in range(d - 1):
        out = op(out[..., None], f)
    return out


def box_size(spec: WeightSpec, radius: int) -> int:
    """(2R+1)^d, the points of the box |k_i| <= radius; a box above the cap
    is refused."""
    R = int(radius)
    if R < 0:
        raise ValueError("radius must be >= 0")
    size = (2 * R + 1) ** spec.d
    if size > _MAX_BOX_ELEMENTS:
        raise ValueError(
            f"box too large: (2*{R}+1)^{spec.d} elements exceed the cap"
        )
    return size


def log_weight_box(spec: WeightSpec, radius: int,
                   first: range | None = None) -> np.ndarray:
    """log omega over the box |k_i| <= radius, shape (2R+1,)^d, or over its
    slab of the first coordinates ``first`` (a step-1 subrange of
    range(-R, R+1)), shape (len(first),) + (2R+1,)^(d-1).

    Vectorized companion of ``WeightSpec.log_evaluate`` (same formulas,
    numpy arithmetic); used by the brute-force rearrangement oracle.  Every
    element goes through the same operations in the same order whichever
    slab it is evaluated in, so a slab equals those rows of the box bit for
    bit.
    """
    R = int(radius)
    box_size(spec, R)
    a = np.abs(np.arange(-R, R + 1, dtype=np.int64)).astype(np.float64)
    rows = slice(None) if first is None else slice(first.start + R, first.stop + R)
    fam, d = spec.family, spec.d
    if fam is Family.MIXED_SR:
        return _over_box((spec.s / spec.r) * np.log1p(a**spec.r), rows, d)
    if fam is Family.MIXED_INF:
        return _over_box(spec.s * np.log(np.maximum(a, 1.0)), rows, d)
    if fam is Family.ISOTROPIC_SR:
        return (spec.s / spec.r) * np.log1p(_over_box(a**spec.r, rows, d))
    if fam is Family.ISOTROPIC_INF:
        m = _over_box(a, rows, d, np.maximum)
        return spec.s * np.log(np.maximum(m, 1.0))
    # h1-ratio
    g = _over_box(0.5 * spec.s * np.log1p(a * a), rows, d)
    q = _over_box(a * a, rows, d)
    return g - 0.5 * np.log1p(q)

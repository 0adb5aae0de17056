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
band is applied: the enumeration heap orders orbits by (log weight, canonical
representative), and ``sigma_prefix`` clamps a one-ulp crossing between that
log key and the direct evaluation so the values stay exactly nonincreasing.

The isotropic families are evaluatable and enumerable like the others, but
their width *asymptotics* are not covered by the supported constants.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Largest tensor the vectorized box evaluation will materialize.
_MAX_BOX_ELEMENTS = 200_000_000

_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # ~709.78


class Family(enum.Enum):
    """The five weight families, keyed by their CLI names."""

    MIXED_SR = "mixed-sr"
    MIXED_INF = "mixed-inf"
    ISOTROPIC_SR = "isotropic-sr"
    ISOTROPIC_INF = "isotropic-inf"
    H1_RATIO = "h1-ratio"


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


def _broadcast_sum(f: np.ndarray, d: int) -> np.ndarray:
    out = f
    for _ in range(d - 1):
        out = out[..., None] + f
    return out


def _broadcast_max(f: np.ndarray, d: int) -> np.ndarray:
    out = f
    for _ in range(d - 1):
        out = np.maximum(out[..., None], f)
    return out


def log_weight_box(spec: WeightSpec, radius: int) -> np.ndarray:
    """log omega over the full box |k_i| <= radius, shape (2R+1,)^d.

    Vectorized companion of ``WeightSpec.log_evaluate`` (same formulas,
    numpy arithmetic); used by the brute-force rearrangement oracle.
    """
    R = int(radius)
    if R < 0:
        raise ValueError("radius must be >= 0")
    if (2 * R + 1) ** spec.d > _MAX_BOX_ELEMENTS:
        raise ValueError(
            f"box too large: (2*{R}+1)^{spec.d} elements exceed the cap"
        )
    a = np.abs(np.arange(-R, R + 1, dtype=np.int64)).astype(np.float64)
    fam = spec.family
    if fam is Family.MIXED_SR:
        f = (spec.s / spec.r) * np.log1p(a**spec.r)
        return _broadcast_sum(f, spec.d)
    if fam is Family.MIXED_INF:
        f = spec.s * np.log(np.maximum(a, 1.0))
        return _broadcast_sum(f, spec.d)
    if fam is Family.ISOTROPIC_SR:
        t = _broadcast_sum(a**spec.r, spec.d)
        return (spec.s / spec.r) * np.log1p(t)
    if fam is Family.ISOTROPIC_INF:
        m = _broadcast_max(a, spec.d)
        return spec.s * np.log(np.maximum(m, 1.0))
    # h1-ratio
    g = _broadcast_sum(0.5 * spec.s * np.log1p(a * a), spec.d)
    q = _broadcast_sum(a * a, spec.d)
    return g - 0.5 * np.log1p(q)

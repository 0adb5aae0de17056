"""Asymptotic constants and convergence diagnostics.

For the mixed weight families sigma_n behaves like C n^-s (ln n)^(s(d-1))
with an explicit leading constant, and the exact width formulas transfer
that behaviour:

    if sigma_n / (n^-s (ln n)^beta) -> C then

        v_n / (n^-s-1/2 (ln n)^beta) -> sqrt(2s+1) C        (transfer-vw)
        u_n / (n^-s    (ln n)^beta) -> (2s/(2s+1))^s C      (transfer-uv)

Named constants, evaluated by ``constant(name, s, d, tol)``:

    mix-l2-sigma    (2^d / (d-1)!)^s, the sigma constant of the mixed
                    families (beta = s(d-1))
    transfer-uv     (2s/(2s+1))^s
    transfer-vw     sqrt(2s+1)
    preasymptotic   C(d) = (1 + (1 + 2/log2(d-1))/(d-1))^(d-1), d >= 3,
                    giving sigma_n <= (C(d)/n)^(s/(r(1+log2(d-1)))) for
                    n >= 2 in the mixed-sr regime
    h1-constant     (2d)^(s-1) (2S+1)^((s-1)(d-1)) with
                    S = sum_{k>=1} (k^2+1)^(-s/(2(s-1)))  (s-series)
    s-series        S itself

The series S is summed directly to K terms and completed with a two-sided
integral sandwich of the tail: for p = s/(2(s-1)),

    L(K) = (K+2)^(1-2p)/(2p-1) <= sum_{k>K} (k^2+1)^-p <= K^(1-2p)/(2p-1) = U(K)

(the upper bound compares the terms with x^-2p, the lower with (x+1)^-2p).
Returning partial + (U+L)/2 certifies absolute error (U-L)/2 < tol with K in
the 1e5 range at desk tolerances, instead of the ~1/tol terms a one-sided
bound would force.  The certificate also bounds the drift of S under the
rounding of p itself, which grows like 1/(2p-1)^2: for large s no tolerance
below that drift is promised, and the series is refused.

``aux_integral`` evaluates int_{a/n}^1 y^s (ln n / ln(yn))^beta dy, the
quantity whose limit 1/(s+1) drives the sup-formula asymptotics; it is a
smooth integrand for a > 1, handled by adaptive quadrature (QUADPACK).
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .sigma import ResourceLimitError, SigmaPrefix
from .widths import Embedding, WidthKind, is_exact, width

__all__ = [
    "CONSTANT_NAMES",
    "ResourceLimitError",
    "constant",
    "series_S",
    "check_convergence",
    "convergence_table",
    "aux_integral",
]

CONSTANT_NAMES = (
    "mix-l2-sigma",
    "transfer-uv",
    "transfer-vw",
    "preasymptotic",
    "h1-constant",
    "s-series",
)

# Hard cap on series length; beyond this the requested tolerance is treated
# as unreachable (exponent 2p too close to 1).
_SERIES_K_CAP = 50_000_000


def _need(value, what: str, cond: bool, constraint: str) -> None:
    if value is None:
        raise ValueError(f"{what} is required ({constraint})")
    if not cond:
        raise ValueError(f"{constraint}, got {what}={value!r}")


def constant(
    name: str, s: float | None = None, d: int | None = None, tol: float = 1e-10
) -> float:
    """Evaluate a named constant; s and d are consumed as each formula needs,
    tol is the series tolerance.  Domain errors name the violated constraint,
    and a formula that leaves the finite floats is refused."""
    try:
        value = _formula(name, s, d, tol)
    except OverflowError:  # a float power or an int-to-float conversion
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} leaves the float range at s={s!r}, d={d!r}")
    return value


def _formula(name: str, s: float | None, d: int | None, tol: float) -> float:
    if name not in CONSTANT_NAMES:
        raise ValueError(
            f"unknown constant {name!r}; valid: {', '.join(CONSTANT_NAMES)}"
        )
    if name == "mix-l2-sigma":
        _need(d, "d", d is not None and d >= 1, "mix-l2-sigma requires d >= 1")
        _need(s, "s", s is not None and s > 0, "mix-l2-sigma requires s > 0")
        base = 2.0**d / math.factorial(d - 1)
        return base**s
    if name == "transfer-uv":
        _need(s, "s", s is not None and s > 0, "transfer-uv requires s > 0")
        return (2.0 * s / (2.0 * s + 1.0)) ** s
    if name == "transfer-vw":
        _need(s, "s", s is not None and s > 0, "transfer-vw requires s > 0")
        return math.sqrt(2.0 * s + 1.0)
    if name == "preasymptotic":
        _need(d, "d", d is not None and d >= 3, "preasymptotic requires d >= 3")
        x = (1.0 + 2.0 / math.log2(d - 1)) / (d - 1)
        # (1 + x)^(d-1) with the rounding error of 1 + x carried along: a
        # plain power loses x entirely once it drops below half an ulp of 1
        # (d from about 1e16 on); err is exact (Fast2Sum), as x < 2
        base = 1.0 + x
        err = x - (base - 1.0)
        return base ** (d - 1) * math.exp((d - 1) * math.log1p(err / base))
    if name == "h1-constant":
        _need(d, "d", d is not None and d >= 1, "h1-constant requires d >= 1")
        _need(s, "s", s is not None and s > 1, "h1-constant requires s > 1")
        out = (2.0 * d) ** (s - 1.0)
        if d > 1:
            S = series_S(s, tol)
            out *= (2.0 * S + 1.0) ** ((s - 1.0) * (d - 1.0))
        return out
    if name == "s-series":
        _need(s, "s", s is not None and s > 1, "s-series requires s > 1")
        return series_S(s, tol)
    raise AssertionError(name)  # pragma: no cover


def series_S(s: float, tol: float = 1e-10) -> float:
    """S = sum_{k>=1} (k^2+1)^(-p), p = s/(2(s-1)), to absolute error < tol.

    Plain summation to K terms plus the midpoint of the two-sided integral
    tail sandwich; K is the smallest power of two whose certified half-width,
    (U-L)/2 plus a bound on how far the rounding of p moves S, drops below
    tol.  Raises ResourceLimitError when that rounding alone exceeds tol
    (it grows like 4e-16 s^2, so from s ~ 5e4 at tol 1e-6) or no admissible
    K exists under the cap.
    """
    if not s > 1:
        raise ValueError("s-series requires s > 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol == math.inf:
        # drift = inf would pass the check below, and the tail bounds then
        # divide by 2p - 1 = 0
        raise ValueError("tol must be finite")
    p = s / (2.0 * (s - 1.0))
    a = 2.0 * p - 1.0
    # p carries at most two roundings, so the exact p is at least p_lo.  S
    # falls as p grows, with |dS/dp| at most `slope` at p_lo: the terms
    # k <= 3 as they are, and for k >= 4, (k^2+1)^-p ln(k^2+1) <= 2 k^-2p ln k,
    # which falls in k from 3 on and so sums to at most the integral of
    # 2 x^-2p ln x over [3, inf).  Partial sum and tail alike, S at the
    # rounded p is within drift of S at the exact p.
    p_lo = p * (1.0 - 2.0**-51)
    a_lo = 2.0 * p_lo - 1.0
    drift = math.inf  # 2p-1 is within rounding of 0 from s ~ 2e15 on
    if a_lo > 0:
        slope = sum(math.log(y) * y ** -p_lo for y in (2.0, 5.0, 10.0))
        slope += 2.0 * 3.0 ** -a_lo * (math.log(3.0) / a_lo + 1.0 / a_lo**2)
        drift = (p - p_lo) * slope
    if not drift <= 0.95 * tol:
        raise ResourceLimitError(
            f"series tolerance {tol} unreachable for s={s}: rounding "
            f"p = s/(2(s-1)) to a double moves S by up to {drift:.3g}; "
            "give a smaller s or a larger tolerance"
        )

    def tail_bounds(K: int) -> tuple[float, float]:
        upper = K ** (-a) / a
        lower = (K + 2.0) ** (-a) / a
        return lower, upper

    K = 64
    while True:
        lower, upper = tail_bounds(K)
        # midpoint error is the half-width; 5% slack covers summation
        # rounding, which pairwise/fsum keeps near machine epsilon
        if (upper - lower) / 2.0 + drift <= 0.95 * tol:
            break
        K *= 2
        if K > _SERIES_K_CAP:
            raise ResourceLimitError(
                f"series tolerance {tol} unreachable for s={s}: "
                f"would need more than {_SERIES_K_CAP} terms"
            )
    chunk = 1 << 20
    parts = []
    for lo in range(1, K + 1, chunk):
        k = np.arange(lo, min(lo + chunk - 1, K) + 1, dtype=np.float64)
        parts.append(float(np.sum((k * k + 1.0) ** (-p))))
    partial = math.fsum(parts)
    return partial + (upper + lower) / 2.0


def check_convergence(
    embedding: Embedding,
    kind: WidthKind,
    n_grid: Sequence[int],
    alpha: float,
    beta: float,
) -> None:
    """Refuse a convergence table for this grid, width and normalizer: the
    grid must be strictly increasing with entries >= 3, the width exact (a
    bracket has no single ratio), and alpha and beta finite.  Needs no
    prefix, so a caller can refuse before enumerating one; copies nothing,
    so a lazy ``range`` stays lazy."""
    if isinstance(n_grid, range):
        increasing = len(n_grid) == 1 or (len(n_grid) > 1 and n_grid.step > 0)
    else:
        pairs = zip(n_grid, itertools.islice(n_grid, 1, None))
        increasing = len(n_grid) > 0 and all(a < b for a, b in pairs)
    if not increasing:
        raise ValueError("n_grid must be strictly increasing")
    if n_grid[0] < 3:
        raise ValueError("n_grid entries must be >= 3 (ln n normalizer)")
    if not is_exact(embedding, kind):
        raise ValueError(
            f"convergence tables need an exact width; "
            f"{embedding.value} yields a bracket"
        )
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(
            f"alpha and beta must be finite, got alpha={alpha!r}, beta={beta!r}"
        )


def convergence_table(
    prefix: SigmaPrefix,
    embedding: Embedding,
    kind: WidthKind,
    n_grid: Sequence[int],
    alpha: float,
    beta: float,
) -> list[tuple[int, float, float, float]]:
    """Width values on an increasing n grid, normalized by n^-alpha (ln n)^beta:
    one ``(n, raw, normalizer, ratio)`` row per n, where raw is the width and
    ratio is raw / normalizer.

    Only exact-width embeddings and finite exponents are accepted
    (``check_convergence``), and a normalizer or ratio that leaves the
    positive finite floats is refused.
    """
    check_convergence(embedding, kind, n_grid, alpha, beta)
    grid = [int(n) for n in n_grid]
    keep = "give alpha and beta that keep it a positive finite float"
    norms = []
    for n in grid:
        try:
            norm = n ** (-alpha) * math.log(n) ** beta
        except OverflowError:  # a float power raises where it would be inf
            raise ValueError(
                f"normalizer n^-alpha (ln n)^beta overflows at n={n}; {keep}"
            ) from None
        if not 0.0 < norm < math.inf:
            raise ValueError(
                f"normalizer n^-alpha (ln n)^beta is {norm!r} at n={n}; {keep}"
            )
        norms.append(norm)
    values = width(prefix, embedding, kind, grid)
    rows = []
    for n, norm, wv in zip(grid, norms, values):
        ratio = wv.value / norm
        if ratio == math.inf:
            raise ValueError(
                f"ratio raw/normalizer overflows at n={n} (normalizer {norm!r})"
            )
        rows.append((n, wv.value, norm, ratio))
    return rows


def aux_integral(s: float, beta: float, a: float, n: float) -> float:
    """int_{a/n}^1 y^s (ln n / ln(yn))^beta dy, absolute error <= 1e-10.

    Converges to 1/(s+1) as n grows (for fixed a > 1, which keeps ln(yn)
    bounded away from 0 on the domain).  Adaptive quadrature; raises if the
    quadrature error estimate misses the target.
    """
    if not s > 0:
        raise ValueError("requires s > 0")
    if not beta >= 0:
        raise ValueError("requires beta >= 0")
    if not a > 1:
        raise ValueError("requires a > 1 (the lower endpoint must keep ln(yn) > 0)")
    if not n > a:
        raise ValueError("requires n > a")
    from scipy.integrate import quad  # the only scipy use; keeps imports light
    ln_n = math.log(n)

    def f(y: float) -> float:
        return y**s * (ln_n / math.log(y * n)) ** beta

    try:
        val, err = quad(f, a / n, 1.0, epsabs=1e-12, epsrel=1e-12, limit=500)
    except OverflowError:  # a float power raises where it would be inf
        raise ValueError(
            f"the integrand leaves the float range at n={n:.6g}, beta={beta!r}"
        ) from None
    if not err <= 1e-10:
        raise ResourceLimitError(
            f"quadrature error estimate {err:.3g} exceeds 1e-10"
        )
    return float(val)

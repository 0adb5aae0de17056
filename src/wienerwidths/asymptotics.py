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
import sys
import warnings
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .common import (
    Embedding,
    ResourceLimitError,
    WidthKind,
    width,  # no function here calls it; perfbench's tracer wraps it here
)

if TYPE_CHECKING:
    import numpy as np

    from .sigma import SigmaPrefix

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

_LOG_FLOAT_MIN = math.log(sys.float_info.min)  # ~ -708.40, least normal float

# Largest d whose (d-1)! mix-l2-sigma forms, about 0.2 s of int products; a
# value at a larger d is a normal float only for s below about 7e-4.
_MIX_D_CAP = 100_000


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
        raise _out_of_range(name, s, d)
    return value


def _out_of_range(name: str, s: float | None, d: int | None) -> ValueError:
    return ValueError(f"{name} leaves the float range at s={s!r}, d={d!r}")


def _formula(name: str, s: float | None, d: int | None, tol: float) -> float:
    if name not in CONSTANT_NAMES:
        raise ValueError(
            f"unknown constant {name!r}; valid: {', '.join(CONSTANT_NAMES)}"
        )
    if name == "mix-l2-sigma":
        _need(d, "d", d is not None and d >= 1, "mix-l2-sigma requires d >= 1")
        _need(s, "s", s is not None and s > 0, "mix-l2-sigma requires s > 0")
        # 2^d / (d-1)! is one int/int division, so the base is correctly
        # rounded, and a normal float up to d = 197; a power that underflows
        # to 0 is refused as one that overflows.  From d = 198 on the base
        # is below the normal floats, and the power comes from the exact
        # ratio, 2^e m with m = 2^L / (d-1)! in (1, 2] (L the bit length of
        # (d-1)!) and e = d - L: m^s 2^(e s), with e s split exactly into
        # its integer and fractional parts, is within a few ulp (see the
        # test against mpmath), and refused below the normal floats.  A
        # value whose log, from lgamma, lies well below them is refused at
        # once, and no factorial above _MIX_D_CAP is formed.
        log_base = d * math.log(2.0) - math.lgamma(d)
        if log_base < _LOG_FLOAT_MIN - 1.0:
            if s * log_base < _LOG_FLOAT_MIN - 1.0:
                raise _out_of_range(name, s, d)
            if d > _MIX_D_CAP:
                raise ResourceLimitError(
                    f"mix-l2-sigma forms (d-1)! exactly, up to d = "
                    f"{_MIX_D_CAP}; got d={d!r} at s={s!r}"
                )
        fact = math.factorial(d - 1)
        base = 2**d / fact
        if base >= sys.float_info.min:
            value = base**s
            if value == 0.0:
                raise _out_of_range(name, s, d)
            return value
        L = fact.bit_length()
        es = Fraction(s) * (d - L)
        e = math.floor(es)
        value = math.ldexp((2**L / fact) ** s * 2.0 ** float(es - e), e)
        if value < sys.float_info.min:
            raise _out_of_range(name, s, d)
        return value
    if name == "transfer-uv":
        _need(s, "s", s is not None and s > 0, "transfer-uv requires s > 0")
        # the base q = 2s/(2s+1) with its rounding error carried along, as
        # for preasymptotic: a plain power multiplies that error by s, and
        # from s ~ 1e16 on q rounds to 1
        two_s = 2 * Fraction(s)
        q = two_s / (two_s + 1)
        base = float(q)
        err = float(q - Fraction(base))
        return base**s * math.exp(s * math.log1p(err / base))
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
    import numpy as np

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
    from .widths import is_exact

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Width values on an increasing n grid, normalized by n^-alpha (ln n)^beta:
    the float64 arrays ``(raw, normalizer, ratio)`` in grid order, where raw
    is the width and ratio is raw / normalizer.

    Only exact-width embeddings and finite exponents are accepted
    (``check_convergence``), and a normalizer or ratio that leaves the
    positive finite floats is refused.  The normalizer is Python's float
    power per n, and ratio one numpy division, the IEEE quotient of each
    pair.
    """
    import numpy as np

    from .widths import _width_arrays, check_width

    check_convergence(embedding, kind, n_grid, alpha, beta)
    check_width(prefix.spec, embedding, kind, n_grid)
    keep = "give alpha and beta that keep it a positive finite float"

    def normalizer(n: int) -> float:
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
        return norm

    # the width first: its index arrays are gone before norms takes room
    raw = _width_arrays(prefix, embedding, kind, n_grid)[0]
    norms = np.fromiter(map(normalizer, n_grid), np.float64, len(n_grid))
    with np.errstate(over="ignore"):
        ratio = raw / norms
    inf = np.flatnonzero(ratio == math.inf)
    if inf.size:
        at = int(inf[0])
        raise ValueError(
            f"ratio raw/normalizer overflows at n={n_grid[at]} "
            f"(normalizer {float(norms[at])!r})"
        )
    return raw, norms, ratio


def aux_integral(s: float, beta: float, a: float, n: float) -> float:
    """int_{a/n}^1 y^s (ln n / ln(yn))^beta dy, absolute error <= 1e-10.

    Converges to 1/(s+1) as n grows (for fixed a > 1, which keeps ln(yn)
    bounded away from 0 on the domain).  Adaptive quadrature by ``_qagse``,
    QUADPACK's QAGS with epsabs = epsrel = 1e-12 and 500 subintervals, the
    call ``scipy.integrate.quad`` makes for these arguments, to the bit.
    Where QUADPACK flags its result (ier != 0) an ``IntegrationWarning``
    says why; the value is returned iff the error estimate meets 1e-10, and
    ResourceLimitError is raised otherwise.
    """
    if not s > 0:
        raise ValueError("requires s > 0")
    if not beta >= 0:
        raise ValueError("requires beta >= 0")
    if not a > 1:
        raise ValueError("requires a > 1 (the lower endpoint must keep ln(yn) > 0)")
    if not n > a:
        raise ValueError("requires n > a")
    ln_n = math.log(n)

    def f(y: float) -> float:
        return y**s * (ln_n / math.log(y * n)) ** beta

    try:
        val, err, ier = _qagse(f, a / n, 1.0, 1e-12, 1e-12, 500)
    except OverflowError:  # a float power raises where it would be inf
        raise ValueError(
            f"the integrand leaves the float range at n={n:.6g}, beta={beta!r}"
        ) from None
    if ier:
        warnings.warn(_IER_MESSAGES[ier], IntegrationWarning)
    if not err <= 1e-10:
        raise ResourceLimitError(
            f"quadrature error estimate {err:.3g} exceeds 1e-10"
        )
    return val


class IntegrationWarning(UserWarning):
    """QUADPACK returned a flagged result (ier 1 to 5)."""


_IER_MESSAGES = {
    1: "The maximum number of subdivisions (500) has been achieved.",
    2: "The occurrence of roundoff error is detected, which prevents the "
       "requested tolerance from being achieved.  The error may be "
       "underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected in the "
       "extrapolation table.  It is assumed that the requested tolerance "
       "cannot be achieved, and that the returned result is the best which "
       "can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}

# QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983):
# dqagse and the routines it calls, from netlib's quadpack.  Arrays keep
# the Fortran's 1-based indices (slot 0 unused), and every floating-point
# operation is done in the Fortran's order, so results match the Fortran,
# and scipy's translation of it, bit for bit.  Where Python raises and C
# returns inf or nan, a guard takes C's branch: the power x**1.5 in _qk21
# and the divergence test's result/area.  Each Fortran "if (c) go to" is
# written with c itself, so a nan compares as it does there.

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# 21-point Kronrod abscissae (xgk), their weights (wgk) and the weights of
# the 10-point Gauss rule on the even-indexed abscissae (wg)
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK dqagse: int_a^b f by globally adaptive bisection with the
    21-point Gauss-Kronrod rule and Wynn's epsilon algorithm; returns
    ``(result, abserr, ier)``.

    A transcription of netlib's quadpack/dqagse.f, whose operation order is
    the contract: ``scipy.integrate.quad(f, a, b, epsabs=epsabs,
    epsrel=epsrel, limit=limit)`` calls the same routine for finite a < b,
    and the tests hold this one to it bit for bit, value, abserr and ier.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 6
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b

    # first approximation to the integral
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2 = [0.0] * 53  # the epsilon table
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1
    small = erlarg = ertest = correc = 0.0
    summed = False  # the Fortran's jump to label 115

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (
            abs(a2) + 1000.0 * _UFLOW
        ):
            ier = 4

        # append the new intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # bisecting, decrease the error sum over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate (labels 100 to 130)
    if summed or abserr == _OFLOW:
        label = 115
    elif ier + ierro == 0:
        label = 110
    else:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            label = 115 if abserr / abs(result) > errsum / abs(area) else 110
        elif abserr > errsum:
            label = 115
        elif area == 0.0:
            label = 130
        else:
            label = 110
    if label == 115:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif label == 110 and not (
        ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01
    ):
        # test on divergence; area is 0 only on the way straight from the
        # extrapolation, where C's result/area is +-inf, or nan for 0/0
        if area != 0.0:
            ratio = result / area
        elif result == 0.0 or math.isnan(result):
            ratio = math.nan
        else:
            ratio = math.copysign(math.inf, result) * math.copysign(1.0, area)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def _qk21(f, a: float, b: float):
    """QUADPACK dqk21: the 21-point Kronrod rule on [a, b] with its error
    estimate; returns ``(result, abserr, resabs, resasc)``, where resabs
    approximates int |f| and resasc int |f - mean f|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(5):
        jtw = 2 * j + 1  # the Gauss abscissae
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, x**1.5) is 1 from x = 1 on, where the power may overflow
        x = 200.0 * abserr / resasc
        abserr = resasc * (1.0 if x >= 1.0 else x**1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """QUADPACK dqpsrt: keep iord, the indices of the error estimates in
    elist, in descending order as far as later bisections can reach;
    returns ``(maxerr, ermax, nrmax)`` of the interval to bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # a difficult integrand can raise the error estimate on bisection:
        # then insert above the nrmax-th largest
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax top-down, then errmin bottom-up
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """QUADPACK dqelg: Wynn's epsilon algorithm on the n entries of epstab,
    the limit of the partial sums held there; res3la keeps the last three
    results.  Returns ``(n, result, abserr, nres)``, n as the table was cut."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            abserr = err2 + err3
            return n, res, max(abserr, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two close elements, or irregular behaviour: cut the table to n
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res

    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres

"""Float columns as text: ``'%.17g' % x`` or ``repr(x)`` for every element
of a float64 array, byte for byte, without a Python call per element.

Both kernels scale |x| by a power of ten so that y = |x| 10^q lies in
[1e16, 1e17), the 17 significant digits.  y is a double-double: x's 53-bit
significand times a 106-bit significand of 10^q (the product of the high
halves exact by Dekker's two-product), held as an integer Y plus a
fraction r in [0, 1), with a bound on its absolute error that is 0 where
10^q is a double (q in 0..22).  A digit is decided only where the bound
certifies it:

* both kernels: the decimal exponent, 1e16 <= y < 1e17;
* ``%.17g``: the round-half-even integer of y, its fraction not within the
  bound of 1/2 (an exact tie, where the bound is 0, rounds to even);
* ``repr``: the shortest decimal strictly inside x's rounding interval
  (half an ulp either side, a quarter below a power of two): of the
  integers certainly inside, the largest power of ten j that divides one,
  and of the multiples of 10^j the one nearer to y, beyond the bound, or
  in an exact tie the one with the even last digit, as dtoa does.  An
  integer within the bound of an end of the interval is that end where
  the end is an integer (checked exactly on x's significand), and is then
  inside when the significand is even, as dtoa reads it; otherwise it
  falls back where it might change the choice: 10^(j+1) divides it, or
  10^j does and it is not farther from y.

Every other element (0, -0, inf, nan, a subnormal, or a decision within
the bound) goes to Python's own ``%`` or ``repr``, as Grisu3 (Loitsch
2010) falls back to an exact method.  The text is assembled in fixed byte
slots per element, NUL where a slot is empty, and the NULs are deleted by
one ``bytes.translate``.  A run of bit-identical elements is formatted
once.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["format_floats"]

# 10^q for q in _QMIN.._QMAX, which covers 16 - floor(log10 |x|) for every
# normal double and a step either side, as (hi + lo) 2^exp: hi an integer
# in [2^52, 2^53) and lo in [0, 1), from the 106-bit integer nearest
# 10^q 2^k, built exactly with Python integers (2 ms).  err bounds the
# errors in units of 2^(scale - 2) (see _scaled): 0 where 10^q is hi
# alone, else 17, above y's 8 (the table 1/2, ma lo 1/2 and the low sum 1,
# in units of 2^scale), the half width's 1 (t within 1/2 of hi + lo, in
# units of 2^(scale - 1)) and R's truncation to the unit, 1.
_QMIN, _QMAX = -300, 330


def _powers_of_ten() -> tuple[np.ndarray, ...]:
    his, los, exps, errs = [], [], [], []
    for q in range(_QMIN, _QMAX + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        k = 106 - num.bit_length() + den.bit_length()
        while True:
            n2, d2 = (num << k, den) if k >= 0 else (num, den << -k)
            m = (2 * n2 + d2) // (2 * d2)
            if m >= 1 << 106:
                k -= 1
            elif m < 1 << 105:
                k += 1
            else:
                break
        low = m & ((1 << 53) - 1)
        his.append(float(m >> 53))
        los.append(low / 2.0**53)
        exps.append(53 - k)
        errs.append(0 if low == 0 and n2 % d2 == 0 else 17)
    # int32 exponents, as np.frexp gives them, are np.ldexp's fast path
    return (np.array(his), np.array(los), np.array(exps, dtype=np.int32),
            np.array(errs, dtype=np.int64))


_T_HI, _T_LO, _T_EXP, _T_ERR = _powers_of_ten()
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
_TINY = 2.2250738585072014e-308  # the least normal double
_HUGE = 1.7976931348623157e308  # the largest double
_P10 = 10 ** np.arange(18, dtype=np.int64)
_E16, _E17 = int(_P10[16]), int(_P10[17])
_P5 = 5 ** np.arange(28, dtype=np.int64)


def _four_digits() -> np.ndarray:
    """The four decimal digits of 0..9999 as ASCII, one uint32 each."""
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        quad[..., k] = (np.arange(10) + ord("0")).reshape((10,) + (1,) * (3 - k))
    return quad.view(np.uint32).reshape(-1)


_QUAD = _four_digits()
_SLOTS = np.arange(18, dtype=np.int8)
# slots 1..5 by 1 - decpt where decpt <= 0: "0." and -decpt zeros (column 0
# blank)
_LEAD = np.array([[0] * 5, *(list(b"0.000"[:2 + k]) + [0] * (3 - k)
                             for k in range(4))], dtype=np.uint8).T
_EMAX = 400


def _exponents() -> np.ndarray:
    """Slots 24..28 by exponent + _EMAX: "e", the sign and two or three
    digits; the last column blank."""
    e = np.arange(-_EMAX, _EMAX + 1)
    mag = np.abs(e)
    table = np.zeros((5, e.size + 1), dtype=np.uint8)
    table[:, :-1] = [np.full(e.size, ord("e")),
                     np.where(e < 0, ord("-"), ord("+")),
                     np.where(mag >= 100, mag // 100 + ord("0"), 0),
                     mag // 10 % 10 + ord("0"),
                     mag % 10 + ord("0")]
    return table


_EXPONENT = _exponents()


def _scaled(m: np.ndarray, e: np.ndarray, q: np.ndarray):
    """y = |x| 10^q for |x| = m 2^e (``np.frexp``), as (Y, R, err, sh, i):
    y = Y + R / 2^sh within err / 2^sh, Y an int64, 0 <= R < 2^sh, and i
    the table row of 10^q."""
    i = q - _QMIN
    th, tl = _T_HI[i], _T_LO[i]
    ma = m * 2.0**53  # the significand, an integer in [2^52, 2^53)
    p = ma * th
    c = _SPLIT * ma
    ah = c - (c - ma)
    al = ma - ah
    c = _SPLIT * th
    bh = c - (c - th)
    bl = th - bh
    low = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # p + low = ma th
    low += ma * tl
    scale = _T_EXP[i] + e - 53  # y = (p + low) 2^scale
    hi, lo = np.ldexp(p, scale), np.ldexp(low, scale)
    floor = np.floor(lo)
    Y = hi.astype(np.int64) + floor.astype(np.int64)
    sh = 2 - scale
    R = np.ldexp(lo - floor, sh).astype(np.int64)
    return Y, R, _T_ERR[i], sh, i


def _integral(num: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether num 2^b 10^q is an integer, for odd num < 2^55."""
    five = _P5[np.clip(-q, 0, len(_P5) - 1)]
    return np.where(q >= 0, b + q >= 0, (b >= -q) & (num % five == 0)
                    & (-q < len(_P5)))


def _decide(x: np.ndarray, shortest: bool):
    """(negative, D, decpt, ok): the digits of x as the 17-digit int64 D
    (x = 0.D 10^decpt, trailing zeros included) and the mask of the
    elements the bound decided."""
    a = np.abs(x)
    ok = (a >= _TINY) & (a <= _HUGE)
    a = np.where(ok, a, 1.0)
    m, e = np.frexp(a)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    Y, R, err, sh, i = _scaled(m, e, 16 - e10)
    # log10 may land one off next to a power of ten
    off = (Y >= _E17).astype(np.int64) - (Y < _E16)
    moved = np.flatnonzero(off)
    if moved.size:
        e10[moved] += off[moved]
        Y[moved], R[moved], err[moved], sh[moved], i[moved] = _scaled(
            m[moved], e[moved], 16 - e10[moved])
    ok &= (Y >= _E16) & (Y < _E17) & ((Y > _E16) | (R >= err))
    decpt = e10 + 1
    if not shortest:
        half = R - (np.int64(1) << (sh - 1))
        ok &= (np.abs(half) > err) | (err == 0)
        D = Y + ((half > 0) | ((half == 0) & (Y % 2 == 1)))
    else:
        # the interval's half widths in units of 2^-sh: above, half an ulp;
        # below, a quarter where x is a power of two with a normal below
        t = (_T_HI[i] + _T_LO[i]).astype(np.int64)
        w_hi = 2 * t
        w_lo = np.where((m == 0.5) & (a > _TINY), t, w_hi)
        # the integers Y + lo .. Y + hi are certainly inside; Y + lo - 1
        # and Y + hi + 1 are unsure where within the bound of an end
        cut = R - w_lo + err
        lo = (cut >> sh) + 1
        lo_unsure = ((lo - 1) << sh) >= cut - 2 * err
        cut = R + w_hi - err
        hi = -((-cut) >> sh) - 1
        hi_unsure = ((hi + 1) << sh) <= cut + 2 * err
        # an unsure integer that is the end itself is inside when x's
        # significand is even (ties to even read it back as x)
        first, last = Y + lo, Y + hi
        unsure = np.flatnonzero(lo_unsure | hi_unsure)
        if unsure.size:
            ma = (m[unsure] * 2.0**53).astype(np.int64)
            q, b = 16 - e10[unsure], e[unsure] - 54
            low = np.where(w_lo[unsure] < w_hi[unsure], 4 * ma - 1, 2 * ma - 1)
            at_lo = lo_unsure[unsure] & _integral(low, b - (low > 2 * ma), q)
            at_hi = hi_unsure[unsure] & _integral(2 * ma + 1, b, q)
            even = ma % 2 == 0
            first[unsure] -= at_lo & even
            last[unsure] += at_hi & even
            lo_unsure[unsure] &= ~at_lo
            hi_unsure[unsure] &= ~at_hi
        ok &= first <= last
        # the largest j with a multiple of 10^j in first..last (their
        # span is at most 23), mostly 0 or 1
        span = last - first
        j = (last % 10 <= span).astype(np.int64)
        A = Y - j * (Y % 10)
        far = np.flatnonzero(last % 100 <= span)
        if far.size:
            fits = last[far, None] % _P10 <= span[far, None]
            j[far] = 17 - np.argmax(fits[:, ::-1], axis=1)
            A[far] = Y[far] - Y[far] % _P10[j[far]]
        P = _P10[j]
        B = A + P
        a_in, b_in = A >= first, B <= last
        # both inside only for P <= 23: the nearer to y, an exact tie to
        # the even digit
        both = a_in & b_in
        near = np.where(both, (2 * (Y - A) - P << sh) + 2 * R, 0)
        ok &= ~both | (np.abs(near) > 2 * err) | (err == 0)
        up = near > 0
        tie = np.flatnonzero(both & (near == 0))
        up[tie] = A[tie] // P[tie] % 2 == 1
        D = np.where(b_in & (~a_in | up), B, A)
        # an unsure end could change the digits if 10^(j+1) divides it, or
        # if 10^j does and it is not farther from y than D, within the bound
        for unsure, end, sign in ((lo_unsure, first - 1, -1), (hi_unsure, last + 1, 1)):
            k = np.flatnonzero(unsure)
            if k.size:
                dist = sign * ((end[k] - Y[k] << sh[k]) - R[k])
                gap = np.abs((D[k] - Y[k] << sh[k]) - R[k]) + 2 * err[k]
                ok[k] &= ~((end[k] % P[k] == 0)
                           & ((end[k] % (10 * P[k]) == 0) | (dist <= gap)))
    # rounding up from 10^17 - 1 carries into the exponent
    carry = D >= _E17
    decpt += carry
    return np.signbit(x), np.where(ok & ~carry, D, _E16), decpt, ok


def _text(negative, D, decpt, ok, shortest: bool) -> list[str]:
    """The cells: %g's layout (fixed for -4 <= decpt - 1 < 17, trailing
    zeros dropped) or repr's (fixed for -4 < decpt <= 16, with ".0" on an
    integer).  Each element has 30 byte slots: the sign, "0." and up to
    three zeros, 18 slots of digits and a point, the exponent and a
    newline.  They are filled a slot at a time across the elements, so
    every operation runs along the whole column, and transposed once."""
    n = len(D)
    # D as five groups of four digits, the first "000d"
    groups = np.empty((5, n), dtype=np.int64)
    high = D // 10**8
    low = D - high * 10**8
    top = high // 10**4
    groups[2] = high - top * 10**4
    groups[0] = top // 10**4
    groups[1] = top - groups[0] * 10**4
    groups[3] = low // 10**4
    groups[4] = low - groups[3] * 10**4
    quad = _QUAD.take(groups).view(np.uint8).reshape(5, n, 4)
    digits = quad.transpose(0, 2, 1).reshape(20, n)[3:]
    # digits up to the last nonzero one
    nd = ((digits != ord("0")) * (_SLOTS[:17, None] + 1)).max(axis=0)
    decpt = np.where(ok, decpt, 1)
    fixed = (decpt > -4) & (decpt <= (16 if shortest else 17))
    lead = fixed & (decpt <= 0)
    whole = fixed & (decpt > 0)
    # repr ends an integer in ".0": a point and the zero digit after it
    dot = np.where(whole & ((decpt < nd) | shortest), decpt,
                   np.where(~fixed & (nd > 1), 1, 99)).astype(np.int8)
    size = (np.where(whole, np.maximum(nd, decpt + shortest), nd)
            + (dot < 99)).astype(np.int8)
    out = np.zeros((30, n), dtype=np.uint8)
    out[0] = negative * np.uint8(ord("-"))
    out[1:6] = _LEAD.take(np.where(lead, 1 - decpt, 0), axis=1)
    body = out[6:24]
    body[:17] = digits * (_SLOTS[:17, None] < dot)
    body[1:] += digits * (_SLOTS[1:, None] > dot)
    body += (_SLOTS[:, None] == dot) * np.uint8(ord("."))
    body *= _SLOTS[:, None] < size
    out[24:29] = _EXPONENT.take(np.where(fixed, -1, decpt - 1 + _EMAX), axis=1)
    out[29] = ord("\n")
    cells = out.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    return cells


def format_floats(col: Sequence[float], spec: str) -> list[str]:
    """``[spec % x for x in col]`` for spec "%.17g" or "%r", computed on
    the float64 array of ``col``.  A run of bit-identical values, such as
    sigma across an orbit, is formatted once and its text repeated along
    the run; runs are found from the bits, so 0.0 and -0.0, which print
    apart, never merge."""
    x = np.ascontiguousarray(col, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    new = np.ones(len(x), dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    if len(starts) == len(x):
        return _format(x, spec)
    texts = np.array(_format(x[starts], spec), dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(x))).tolist()


def _format(x: np.ndarray, spec: str) -> list[str]:
    """``[spec % v for v in x]``, every element formatted."""
    shortest = spec == "%r"
    with np.errstate(all="ignore"):
        negative, D, decpt, ok = _decide(x, shortest)
        cells = _text(negative, D, decpt, ok, shortest)
    for k in np.flatnonzero(~ok).tolist():
        cells[k] = spec % float(x[k])
    return cells

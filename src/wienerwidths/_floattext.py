"""Array columns as bytes: the cells of a block of a float64 column,
``'%.17g' % x`` or ``repr(x)`` for every element, byte for byte, without a
Python call per element; and of the int and bool columns beside it.

Both float kernels scale |x| by a power of ten so that y = |x| 10^q lies
in [1e16, 1e17), the 17 significant digits.  y is a double-double: x's
53-bit significand times a 106-bit significand of 10^q (the product of
the high halves exact by Dekker's two-product), held as an integer Y plus
a fraction r in [0, 1), with a bound on its absolute error that is 0
where 10^q is a double (q in 0..22).  A digit is decided only where the
bound certifies it:

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
2010) falls back to an exact method, and its text is written into its
own cell.  The cells are assembled as a slot matrix, one row of bytes per
slot and one column per element: the sign, "0." and leading zeros, the
digits with the point, and the exponent, each written in place across the
block, NUL where an element leaves a slot empty; a slot that no element of
the block fills is left out.  A run of bit-identical elements is
formatted once and its cell repeated.  An int's digits come from the
same table of four digits, as many as the block's widest value has.  The
kernels return a matrix of one row per cell, whose NULs the writer
deletes, and keep their block-long temporaries in a ``Work`` that lasts
the table.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["WIDEST", "Work", "bool_cells", "buffer", "float_cells", "int_cells"]

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
_P10U = 10 ** np.arange(20, dtype=np.uint64)
_E16, _E17 = int(_P10[16]), int(_P10[17])
_P5 = 5 ** np.arange(28, dtype=np.int64)


def _four_digits() -> np.ndarray:
    """The four decimal digits of 0..9999 as ASCII, one uint32 each."""
    quad = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        quad[..., k] = (np.arange(10) + ord("0")).reshape((10,) + (1,) * (3 - k))
    return quad.view(np.uint32).reshape(-1)


_QUAD = _four_digits()
# the trailing zeros of 0..9999 as four digits
_TRAILING = sum((np.arange(10_000) % p == 0).astype(np.int8) for p in (10, 100, 1000, 10_000))
# slots 1..5 by 1 - decpt where decpt <= 0: "0." and -decpt zeros (column 0
# blank)
_LEAD = np.array([[0] * 5, *(list(b"0.000"[:2 + k]) + [0] * (3 - k)
                             for k in range(4))], dtype=np.uint8).T
_EMAX = 400
# no slot matrix has more rows: a float's sign, "0.000", 18 slots of
# digits and a point, and its exponent
WIDEST = 29


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
_EXPONENT4 = _EXPONENT[[0, 1, 3, 4]]  # no exponent of three digits


class Work:
    """The scratch arrays of the kernels, as long as a block and kept from
    one block and one column to the next: the temporaries of eight bytes
    an element, the slot matrix and the run starts' cells.  Allocated anew
    for each block, they would grow the heap and hand it back to the
    system block after block, and each block's fresh pages would fault in
    again."""

    def __init__(self, size: int):
        self.size = size
        self._buffers: dict = {}
        self._typed: dict = {}  # (name, dtype) -> the whole buffer as dtype
        self._arange = np.arange(0)

    def _buffer(self, name: str, nbytes: int) -> np.ndarray:
        a = self._buffers.get(name)
        if a is None or len(a) < nbytes:
            a = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return a

    def __call__(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        """n elements of dtype (of at most eight bytes) in the buffer
        ``name``; a temporary takes the name of one that is dead."""
        typed = self._typed.get((name, dtype))
        if typed is None or len(typed) < n:
            typed = self._typed[name, dtype] = self._buffer(
                name, 8 * max(n, self.size)).view(dtype)
        return typed[:n]

    def slots(self, n: int) -> np.ndarray:
        """A slot matrix of n columns, ``WIDEST`` rows of bytes."""
        return self._buffer("slots", WIDEST * max(n, self.size)).reshape(
            WIDEST, -1)[:, :n]

    def arange(self, n: int) -> np.ndarray:
        """0, 1, .., n - 1."""
        if len(self._arange) < n:
            self._arange = np.arange(max(n, self.size))
        return self._arange[:n]

    def matrix(self, name: str, n: int, width: int) -> np.ndarray:
        """An n by width byte matrix, rows contiguous, in the buffer
        ``name``."""
        return self._buffer(name, max(n, self.size) * WIDEST)[
            :n * width].reshape(n, width)


def _split(a: np.ndarray, high: np.ndarray, low: np.ndarray):
    """Dekker's split of a into high + low, halves of 26 bits."""
    np.multiply(a, _SPLIT, out=low)  # c
    np.subtract(low, a, out=high)
    np.subtract(low, high, out=high)  # c - (c - a)
    return high, np.subtract(a, high, out=low)


# the high halves of 10^q split as Dekker splits them
_T_BH, _T_BL = _split(_T_HI, np.empty_like(_T_HI), np.empty_like(_T_HI))


def _scaled(m: np.ndarray, e: np.ndarray, q: np.ndarray, w: Work):
    """y = |x| 10^q for |x| = m 2^e (``np.frexp``), as (Y, R, err, sh, i):
    y = Y + R / 2^sh within err / 2^sh, Y an int64, 0 <= R < 2^sh, and i
    the table row of 10^q, in q's array.  The results take w's buffers
    "Y", "R", "err" and "sh", which hold temporaries until then, and it
    uses "p", "low", "t" and "bl"."""
    n = len(m)
    i = q
    i -= _QMIN
    # the significand, an integer in [2^52, 2^53), and its halves
    ma = np.multiply(m, 2.0**53, out=w("err", n))
    ah, al = _split(ma, w("Y", n), w("R", n))
    th = _T_HI.take(i, out=w("sh", n), mode="clip")
    p = np.multiply(ma, th, out=w("p", n))
    # p + low = ma th
    bh = _T_BH.take(i, out=th, mode="clip")
    bl = _T_BL.take(i, out=w("bl", n), mode="clip")
    t = w("t", n)
    low = np.multiply(ah, bh, out=w("low", n))
    low -= p
    low += np.multiply(ah, bl, out=t)
    low += np.multiply(al, bh, out=t)
    low += np.multiply(al, bl, out=t)
    low += np.multiply(ma, _T_LO.take(i, out=t, mode="clip"), out=t)
    # y = (p + low) 2^scale
    scale = _T_EXP.take(i, out=w("bl", n, np.int32), mode="clip")
    scale += e
    scale -= 53
    hi, lo = np.ldexp(p, scale, out=p), np.ldexp(low, scale, out=low)
    floor = np.floor(lo, out=t)
    Y = w("Y", n, np.int64)
    np.copyto(Y, hi, casting="unsafe")
    Y_lo = w("R", n, np.int64)
    np.copyto(Y_lo, floor, casting="unsafe")
    Y += Y_lo
    sh = np.subtract(2, scale, out=w("sh", n, np.int32))
    lo -= floor
    R = w("R", n, np.int64)
    np.copyto(R, np.ldexp(lo, sh, out=lo), casting="unsafe")
    return Y, R, _T_ERR.take(i, out=w("err", n, np.int64), mode="clip"), sh, i


def _integral(num: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Whether num 2^b 10^q is an integer, for odd num < 2^55."""
    five = _P5[np.clip(-q, 0, len(_P5) - 1)]
    return np.where(q >= 0, b + q >= 0, (b >= -q) & (num % five == 0)
                    & (-q < len(_P5)))


def _decide(x: np.ndarray, shortest: bool, w: Work):
    """(negative, D, decpt, ok): the digits of x as the 17-digit int64 D
    (x = 0.D 10^decpt, trailing zeros included) and the mask of the
    elements the bound decided.  D and decpt are in w's buffers "D" and
    "decpt"; a temporary takes a buffer that no live array holds."""
    n = len(x)
    a = np.abs(x, out=w("a", n))
    ok = (a >= _TINY) & (a <= _HUGE)
    np.copyto(a, 1.0, where=~ok)
    m, e = np.frexp(a, out=(w("m", n), w("e", n, np.int32)))
    log = np.floor(np.log10(a, out=w("q", n)), out=w("q", n))
    e10 = w("decpt", n, np.int64)
    np.copyto(e10, log, casting="unsafe")
    Y, R, err, sh, i = _scaled(m, e, np.subtract(16, e10, out=w("q", n, np.int64)), w)
    # log10 may land one off next to a power of ten
    outside = (Y >= _E17) | (Y < _E16)
    moved = np.flatnonzero(outside)
    if moved.size:
        e10[moved] += np.where(Y[moved] >= _E17, 1, -1)
        Y[moved], R[moved], err[moved], sh[moved], i[moved] = _scaled(
            m[moved], e[moved], 16 - e10[moved], Work(moved.size))
        outside = (Y >= _E17) | (Y < _E16)
    ok &= ~outside & ((Y > _E16) | (R >= err))
    decpt = e10
    decpt += 1
    t = w("t", n, np.int64)
    if not shortest:
        half = np.left_shift(np.int64(1), np.subtract(sh, 1, out=w("bl", n, np.int32)),
                             out=w("p", n, np.int64))
        np.subtract(R, half, out=half)
        ok &= (np.abs(half, out=t) > err) | (err == 0)
        # up where the fraction passes 1/2, or is 1/2 and Y is odd
        D = np.add(Y, np.add(half, np.bitwise_and(Y, 1, out=t), out=t) > 0,
                   out=w("D", n, np.int64))
    else:
        # the interval's half widths in units of 2^-sh: above, half an ulp;
        # below, a quarter where x is a power of two with a normal below
        tf = np.add(_T_HI.take(i, out=w("low", n), mode="clip"),
                    _T_LO.take(i, out=w("bl", n), mode="clip"), out=w("low", n))
        half = w("p", n, np.int64)
        np.copyto(half, tf, casting="unsafe")
        w_hi = np.multiply(half, 2, out=w("bl", n, np.int64))
        w_lo = w("low", n, np.int64)
        np.copyto(w_lo, w_hi)
        np.copyto(w_lo, half, where=(m == 0.5) & (a > _TINY))
        # the integers Y + lo .. Y + hi are certainly inside; Y + lo - 1
        # and Y + hi + 1 are unsure where within the bound of an end
        err2 = np.multiply(err, 2, out=w("a", n, np.int64))
        cut = np.subtract(R, w_lo, out=w("p", n, np.int64))
        cut += err
        lo = np.right_shift(cut, sh, out=w("lo", n, np.int64))
        lo += 1
        np.left_shift(np.subtract(lo, 1, out=t), sh, out=t)
        lo_unsure = t >= np.subtract(cut, err2, out=cut)
        np.add(R, w_hi, out=cut)
        cut -= err
        np.right_shift(np.negative(cut, out=t), sh, out=t)
        hi = np.negative(t, out=w("hi", n, np.int64))
        hi -= 1
        np.left_shift(np.add(hi, 1, out=t), sh, out=t)
        hi_unsure = t <= np.add(cut, err2, out=cut)
        # an unsure integer that is the end itself is inside when x's
        # significand is even (ties to even read it back as x)
        first, last = np.add(Y, lo, out=lo), np.add(Y, hi, out=hi)
        unsure = np.flatnonzero(lo_unsure | hi_unsure)
        if unsure.size:
            ma = (m[unsure] * 2.0**53).astype(np.int64)
            q, b = 17 - decpt[unsure], e[unsure] - 54
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
        span = np.subtract(last, first, out=w("p", n, np.int64))
        j = w("m", n, np.intp)
        np.copyto(j, np.remainder(last, 10, out=t) <= span)
        A = np.subtract(Y, np.multiply(j, np.remainder(Y, 10, out=t), out=t),
                        out=w("D", n, np.int64))
        far = np.flatnonzero(np.remainder(last, 100, out=t) <= span)
        if far.size:
            # a remainder by 10^k is at most the one by 10^(k+1), so j
            # counts the powers from 10^2 on that fit
            tail, room = last[far], span[far]
            j[far] = 2 + sum(tail % p <= room for p in _P10[3:].tolist())
            A[far] = Y[far] - Y[far] % _P10[j[far]]
        P = _P10.take(j, out=w("bl", n, np.int64), mode="clip")
        B = np.add(A, P, out=w("p", n, np.int64))
        a_in, b_in = A >= first, B <= last
        # both inside only for P <= 23: the nearer to y, an exact tie to
        # the even digit
        both = a_in & b_in
        near = np.multiply(np.subtract(Y, A, out=w("low", n, np.int64)), 2,
                           out=w("low", n, np.int64))
        near -= P
        np.left_shift(near, sh, out=near)
        near += np.multiply(R, 2, out=t)
        near *= both
        ok &= ~both | (np.abs(near, out=t) > err2) | (err == 0)
        up = near > 0
        tie = np.flatnonzero(both & (near == 0))
        up[tie] = A[tie] // P[tie] % 2 == 1
        D = A
        np.copyto(D, B, where=b_in & (~a_in | up))
        # an unsure end could change the digits if 10^(j+1) divides it, or
        # if 10^j does and it is not farther from y than D, within the bound
        for unsure, end, sign in ((lo_unsure, first, -1), (hi_unsure, last, 1)):
            k = np.flatnonzero(unsure)
            if k.size:
                out = end[k] + sign
                dist = sign * ((out - Y[k] << sh[k]) - R[k])
                gap = np.abs((D[k] - Y[k] << sh[k]) - R[k]) + 2 * err[k]
                ok[k] &= ~((out % P[k] == 0)
                           & ((out % (10 * P[k]) == 0) | (dist <= gap)))
    # rounding up from 10^17 - 1 carries into the exponent
    carry = D >= _E17
    decpt += carry
    np.copyto(D, _E16, where=~ok | carry)
    return np.signbit(x), D, decpt, ok


def _groups(v: np.ndarray, groups: int, w: Work) -> list[np.ndarray]:
    """The last 4 * groups decimal digits of the non-negative integers v
    as base-10^4 digits, one array per group, most significant first, in
    buffers that ``_decide`` has done with."""
    n, parts = len(v), []
    for g in range(groups - 1, 0, -1):
        high = np.floor_divide(v, 10**4, out=w(_HIGH[g % 2], n, v.dtype.type))
        part = np.multiply(high, 10**4, out=w(_PARTS[g], n, v.dtype.type))
        parts.append(np.subtract(v, part, out=part))
        v = high
    return [v, *parts[::-1]]


_PARTS = (None, "Y", "R", "err", "p")
_HIGH = ("bl", "sh")


def _put_digits(parts: list[np.ndarray], skip: int, out: np.ndarray,
                w: Work) -> None:
    """Write the groups' decimal digits as ASCII into consecutive rows of
    out, less the first ``skip`` digits of the first group."""
    row = 0
    for part in parts:
        quad = _QUAD.take(part.view(np.intp), out=w("t", len(part), np.uint32),
                          mode="clip")
        out[row:row + 4 - skip] = quad.view(np.uint8).reshape(-1, 4)[:, skip:].T
        row += 4 - skip
        skip = 0


def _layout(x: np.ndarray, shortest: bool, w: Work,
            out: np.ndarray) -> np.ndarray:
    """Write the slot matrix of every element of x into the first columns
    of ``out`` (``WIDEST`` rows of bytes) and return it: %g's layout (fixed
    for -4 <= decpt - 1 < 17, trailing zeros dropped) or repr's (fixed for
    -4 < decpt <= 16, with ".0" on an integer), in the slots some element
    fills of the sign, "0." and up to three zeros, 18 slots of digits and a
    point, and the exponent.  Each slot is one operation along the whole
    column."""
    n = len(x)
    spec = "%r" if shortest else "%.17g"
    with np.errstate(all="ignore"):
        negative, D, decpt, ok = _decide(x, shortest, w)
    # D as five groups of four digits, the first "000d"
    parts = _groups(D.view(np.uint64), 5, w)
    # digits up to the last nonzero one: 17 less the trailing zeros, four
    # for each group of zeros, which the few D that end in one look past
    trailing = _TRAILING.take(parts[4])
    zero = np.flatnonzero(trailing == 4)
    if zero.size:
        more = _TRAILING.take(parts[1][zero])
        for part in parts[2:4]:
            tail = _TRAILING.take(part[zero])
            more = np.where(tail == 4, more + 4, tail)
        trailing[zero] += more
    nd = 17 - trailing
    np.copyto(decpt, 1, where=~ok)
    d = decpt.astype(np.int16)
    fixed = (d > -4) & (d <= (16 if shortest else 17))
    lead = fixed & (d <= 0)
    whole = fixed & (d > 0)
    # repr ends an integer in ".0": a point and the zero digit after it
    dot = np.where(~fixed & (nd > 1), np.int8(1), np.int8(99))
    np.copyto(dot, d, where=whole & ((d < nd) | shortest), casting="unsafe")
    size = (np.where(whole, np.maximum(nd, d + shortest), nd)
            + (dot < 99)).astype(np.int8)
    back = np.flatnonzero(~ok)
    texts = [(spec % v).encode() for v in x[back].tolist()]
    # the slots some element fills: the sign, "0." and -decpt zeros, the
    # body, and "e", the exponent's sign and its two or three digits
    signs = int(negative.any())
    zeros = 2 - int(d[lead].min()) if lead.any() else 0
    body = int(size.max())
    # a fixed cell's exponent is small
    exps = 0 if fixed.all() else 5 if d.max() > 100 or d.min() < -98 else 4
    width = signs + zeros + body + exps
    out = out[:, :n]
    index = w("low", n, np.intp)
    if signs:
        np.multiply(negative, np.uint8(ord("-")), out=out[0])
    if zeros:
        np.multiply(np.subtract(1, d, out=index), lead, out=index)
        out[signs:signs + zeros] = _LEAD[:zeros].take(index, axis=1)
    # the digits, one row below the body where some element has a point;
    # then each digit before its element's point one row up, and the point.
    # An element without a point takes it past its last digit, where the
    # size clears it
    b = out[signs + zeros:]
    if dot.min() == 99:
        _put_digits(parts, 3, b, w)
    else:
        _put_digits(parts, 3, b[1:], w)
        point = np.minimum(dot, size)
        first, last = int(point.min()), int(point.max())
        for k in range(last):
            if k < first:
                b[k] = b[k + 1]
            else:
                np.copyto(b[k], b[k + 1], where=k < point)
        if first == last:
            b[first] = ord(".")
        else:
            for k in range(first, last + 1):
                np.copyto(b[k], np.uint8(ord(".")), where=point == k)
    for k in range(int(size.min()), body):
        b[k] *= size > k
    if exps:
        table = _EXPONENT if exps == 5 else _EXPONENT4
        np.add(d, _EMAX - 1, out=index)
        if fixed.any():
            np.copyto(index, table.shape[1] - 1, where=fixed)
        out[width - exps:width] = table.take(index, axis=1)
    # the elements the bound left undecided, in Python's text
    out = out[:max([width, *map(len, texts)])]
    out[width:] = 0
    for k, text in zip(back.tolist(), texts):
        out[:, k] = 0
        out[:len(text), k] = np.frombuffer(text, dtype=np.uint8)
    return out


def buffer(n: int) -> np.ndarray:
    """An output buffer for a kernel's cells of up to n values."""
    return np.empty(WIDEST * (n + 64), dtype=np.uint8)


def _slots(out: np.ndarray, n: int) -> np.ndarray:
    """The byte buffer ``out`` as a slot matrix of n columns, its rows a
    cache line longer than n so that the slots of one cell, which are read
    together, do not all fall in one cache set."""
    return out[:WIDEST * (n + 64)].reshape(WIDEST, n + 64)[:, :n]


def _rows(out: np.ndarray, n: int, width: int) -> np.ndarray:
    """The byte buffer ``out`` as n contiguous rows of width bytes."""
    return out[:n * width].reshape(n, width)


def float_cells(col: Sequence[float], shortest: bool, w: Work,
                out: np.ndarray) -> np.ndarray:
    """The cells ``'%.17g' % x`` (``repr(x)`` where ``shortest``) of every x
    of ``col``, computed on its float64 array: a matrix of one row of
    bytes per cell, NUL where the cell leaves a slot of its column empty,
    in ``out`` (a ``buffer``) with temporaries in w.  A run of
    bit-identical values, such as sigma across an orbit, is formatted once
    and its row repeated along the run; runs are found from the bits, so
    0.0 and -0.0, which print apart, never merge."""
    x = np.ascontiguousarray(col, dtype=np.float64).reshape(-1)
    n = len(x)
    if not n:
        return _rows(out, 0, 0)
    bits = x.view(np.uint64)
    new = np.ones(n, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    runs = int(np.count_nonzero(new))
    if runs == n:
        return _layout(x, shortest, w, _slots(out, n)).T
    slots = _layout(np.compress(new, x, out=w("starts", runs)), shortest, w,
                    w.slots(runs))
    first = w.matrix("first", runs, len(slots))
    first[:] = slots.T
    run = np.cumsum(new, out=w("t", n, np.intp))
    run -= 1
    return np.take(first, run, axis=0, out=_rows(out, n, len(slots)),
                   mode="clip")


def int_cells(col: Sequence[int], shortest: bool, w: Work,
              out: np.ndarray) -> np.ndarray:
    """The cells ``'%d' % n`` of every n of ``col`` (a range or int64
    values), as ``float_cells`` writes them: as many digit slots as the
    widest n has, with a sign slot where some n is negative.  Ints print
    alike in CSV and JSON, whatever ``shortest`` says."""
    if isinstance(col, range):
        v = np.multiply(w.arange(len(col)), col.step, out=w("a", len(col), np.int64))
        v += col.start
    else:
        v = np.asarray(col, dtype=np.int64)
    n = len(v)
    # |n| as uint64, which holds |-2^63| (np.abs wraps it to itself)
    magnitude = np.abs(v, out=w("m", n, np.int64)).view(np.uint64)
    width = len(str(int(magnitude.max())))
    sign = int(v.min() < 0)
    slots = _slots(out, n)[:sign + width]
    if sign:
        np.multiply(v < 0, np.uint8(ord("-")), out=slots[0])
    groups = -(-width // 4)
    _put_digits(_groups(magnitude, groups, w), 4 * groups - width, slots[sign:], w)
    # the zeros before a shorter n's own digits are padding; 0 has one digit
    for k in range(width - len(str(int(magnitude.min())))):
        slots[sign + k] *= magnitude >= _P10U[width - 1 - k]
    return slots.T


_TRUE_FALSE = np.array([list(b"false"), list(b"true\0")], dtype=np.uint8)


def bool_cells(col: Sequence[bool], shortest: bool, w: Work,
               out: np.ndarray) -> np.ndarray:
    """The cells "true" or "false" of every bool of ``col``, as
    ``float_cells`` writes them."""
    index = w("low", len(col), np.intp)
    np.copyto(index, col)
    return _TRUE_FALSE.take(index, axis=0, mode="clip", out=_rows(out, len(col), 5))

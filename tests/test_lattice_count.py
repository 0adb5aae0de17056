import decimal
import itertools
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import (
    Family,
    ResourceLimitError,
    WeightSpec,
    count_A,
    count_A_split,
    count_C,
    count_leq,
    lambda_split_exponent,
    sandwich_check,
    series_S,
    verify_appendix_limits,
)
from wienerwidths.lattice_count import split_cut


def test_count_examples():
    assert count_C(2, 1, 2) == 5
    assert count_C(2, 1, 1) == 3
    assert count_A(2, 1, 1) == 1
    assert count_A(2, 1, 2) == 0


def test_count_d1_closed_forms():
    # d=1 the membership reduces to k <= r, so C = 1 + 2r and A = r
    for s in (Fraction(3, 2), 2, 3):
        for r in (1, 2, 7, 30):
            assert count_C(s, r, 1) == 1 + 2 * r
            assert count_A(s, r, 1) == r


def _scan_C(s: Fraction, r: int, d: int) -> int:
    """Independent oracle: scan the full signed box and test the membership
    inequality in exact integer arithmetic."""
    s_num, s_den = s.numerator, s.denominator
    rhs_c = (1 + r * r) ** (s_num - s_den)
    brute = 0
    for k in itertools.product(range(-r, r + 1), repeat=d):
        prod = 1
        for v in k:
            prod *= (1 + v * v) ** s_num
        if prod <= rhs_c * (1 + sum(v * v for v in k)) ** s_den:
            brute += 1
    return brute


def test_count_matches_direct_grid():
    for s_num, s_den in [(2, 1), (3, 2), (3, 1)]:
        s = Fraction(s_num, s_den)
        for r, d in [(3, 2), (5, 2), (4, 3)]:
            assert count_C(s, r, d) == _scan_C(s, r, d)


def _scan_C_log(s: Fraction, r: int, d: int) -> int:
    """Oracle for numerators too large for _scan_C: the membership test as
    p ln(X/Y) <= q ln(Z/Y), X = prod(1+k_i^2), Y = 1+r^2, Z = 1+|k|^2, in
    60-digit decimals.  For r <= 8 and p/q >= 10^4 the two sides are both
    exactly 0 or differ by far more than that rounding."""
    ctx = decimal.Context(prec=60)
    y = 1 + r * r
    brute = 0
    for k in itertools.product(range(-r, r + 1), repeat=d):
        x = math.prod(1 + v * v for v in k)
        z = 1 + sum(v * v for v in k)
        lhs = ctx.multiply(s.numerator, ctx.ln(ctx.divide(x, y)))
        rhs = ctx.multiply(s.denominator, ctx.ln(ctx.divide(z, y)))
        brute += lhs <= rhs
    return brute


def test_count_matches_direct_grid_large_numerator():
    for d in (1, 2):
        for r in range(1, 9):
            assert count_C(10 ** 4, r, d) == _scan_C(Fraction(10 ** 4), r, d)
    # at s = 10^12 the guard band holds points off the axes, such as (2, 1)
    # at r = 3 with X = 10 = Y, whose integer test must not raise to the
    # power 10^12; the subprocess timeout turns a regression into a failure
    # instead of a hang
    out = subprocess.run(
        [sys.executable, "-m", "wienerwidths.cli", "count", "--s", "1e12",
         "--d", "2", "--r-grid", "1..8"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0
    header, *lines = out.stdout.splitlines()
    assert header == "kind,s,r,dim,j,r_ell,count"
    assert lines[2] == "C,1e12,3,2,,,17"
    assert [int(line.rsplit(",", 1)[1]) for line in lines] == [
        _scan_C_log(Fraction(10 ** 12), r, 2) for r in range(1, 9)
    ]


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(
    s=st.integers(1, 100).flatmap(
        lambda q: st.integers(q + 1, 4 * q).map(lambda p: Fraction(p, q))
    ),
    d=st.integers(1, 3),
    r=st.integers(1, 8),
)
def test_count_matches_direct_grid_any_denominator(s, d, r):
    # s = p/q on both sides of the exact-denominator cap (64): a count is
    # exact, or, when a guard-band tie off the axes needs the integer test
    # and q is above the cap, refused
    try:
        got = count_C(s, r, d)
    except ResourceLimitError:
        assert s.denominator > 64
    else:
        assert got == _scan_C(s, r, d)


def test_guard_band_ties_settled_or_refused():
    # the axis points (r, 0) and (0, r) sit on the threshold for every s;
    # they are members by m <= r, not guard-band guesses.  At s = 2 the
    # point (1, r/2) lies 1/r^2 inside it in the log domain, within the band
    # at r = 40000; the integer test settles it, again without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = [count_C("1.2345678", r, 2) for r in range(3, 7)]
        count_C(2, 40000, 2)
    assert counts == [13, 21, 25, 29]
    # each s rounds a root of 4^s = 3 * 5^(s-1) (the point (1, 1) at r = 2)
    # or of 10^s = 6 * 17^(s-1) ((1, 2) at r = 4) to 16 digits, too fine a
    # denominator to settle in integers: the count is refused, naming the
    # point
    for s, r, d, point in [("2.289224226994103", 2, 2, (1, 1)),
                           ("1.962680789693084", 4, 3, (0, 1, 2))]:
        with pytest.raises(ResourceLimitError,
                           match=f"^k={re.escape(str(point))} lies within "):
            count_C(s, r, d)


def test_c_decomposition_identity():
    # C(r,d) = 1 + sum_l 2^l binom(d,l) A(r,l), exact
    for s in (Fraction(3, 2), 2, 3):
        for d in (1, 2, 3, 4):
            for r in (1, 2, 5, 13, 29, 50):
                lhs = count_C(s, r, d)
                rhs = 1 + sum(
                    (1 << ell) * comb(d, ell) * count_A(s, r, ell)
                    for ell in range(1, d + 1)
                )
                assert lhs == rhs


def test_a_split_partition_identity():
    # A(r,l) = sum_j binom(l,j) A(r,l,j) for any cut, exact
    for s in (Fraction(3, 2), 2, 3):
        for ell in (2, 3, 4):
            for r in (5, 17, 50):
                total = count_A(s, r, ell)
                for r_ell in (1, max(1, int(math.isqrt(r))), r):
                    parts = sum(
                        comb(ell, j) * count_A_split(s, r, ell, j, r_ell)
                        for j in range(ell + 1)
                    )
                    assert parts == total


def test_count_consistent_with_threshold_count():
    # same quantity through the weight-threshold counter, which scans no
    # box, so agreement also confirms the proven bound |k_j| <= r that
    # limits count_C's search
    for s, d in [(2, 2), (2, 3), (3, 2), (Fraction(3, 2), 2), (Fraction(3, 2), 3)]:
        spec = WeightSpec(Family.H1_RATIO, s=float(s), d=d)
        for r in (1, 2, 4, 5, 9, 11):
            t = (1.0 + r * r) ** ((float(s) - 1) / 2.0)
            assert count_C(s, r, d) == count_leq(spec, t)


def test_lambda_split_exponent():
    assert lambda_split_exponent(2, 2) == 0.125
    np.testing.assert_allclose(lambda_split_exponent(Fraction(3, 2), 3),
                               1.0 / 18.0, rtol=1e-15)
    with pytest.raises(ValueError):
        lambda_split_exponent(1, 2)
    # cut floor(r^(1/8)): 255^(1/8) < 2 <= 256^(1/8), and never below 1
    assert split_cut(2, 255, 2) == 1
    assert split_cut(2, 256, 2) == 2


def test_argument_validation():
    with pytest.raises(ValueError):
        count_A_split(2, 10, 2, 3, 5)  # j > ell
    with pytest.raises(ValueError):
        count_A_split(2, 10, 2, 1, 0)  # cut below 1
    with pytest.raises(ValueError):
        count_C(2, 3, 0)
    with pytest.raises(ValueError):
        count_C(1, 3, 2)  # requires s > 1


def test_sandwich_check():
    for s in (2, 3):
        for d in (1, 2):
            for r in (2, 5, 8):
                assert sandwich_check(s, d, r)
    with pytest.raises(ValueError):
        sandwich_check(2, 1, 1)


def test_appendix_report_shapes_and_trend():
    rows = verify_appendix_limits(2, 2, [25, 50, 100, 200])
    # print order: per r the c row, the a row and its splits j = 0..2
    assert [(row[0], row[3]) for row in rows] == [
        ("c", None), ("a", None), ("a-split", 0), ("a-split", 1), ("a-split", 2)
    ] * 4
    c_rows = [row for row in rows if row[0] == "c"]
    assert [r for _, r, *_ in c_rows] == [25, 50, 100, 200]
    S = series_S(2.0)
    for *_, target in c_rows:
        np.testing.assert_allclose(target, 4.0 * (2.0 * S + 1.0), rtol=1e-12)
    ratios = [ratio for *_, ratio, _ in c_rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(ratio < target for *_, ratio, target in c_rows)
    for r in (25, 50, 100, 200):
        cells = [row for row in rows if row[0] != "c" and row[1] == r]
        split_cells = [row for row in cells if row[0] == "a-split"]
        assert {ell for _, _, ell, *_ in cells} == {2}
        # the dominant split row carries the S^{l-1} target
        dom = [row for row in split_cells if row[3] == row[2] - 1]
        assert len(dom) == 1
        np.testing.assert_allclose(dom[0][7], S, rtol=1e-12)
        # decomposition recomposes inside the report too
        [total] = [row for row in cells if row[0] == "a"]
        assert sum(comb(ell, j) * count
                   for _, _, ell, j, _, count, *_ in split_cells) == total[5]


def test_fractional_s_stays_exact():
    # denominator within the exact cap: bigint path, no float ambiguity
    a = count_C(Fraction(3, 2), 30, 2)
    b = count_C(1.5, 30, 2)
    assert a == b
    c = count_C("3/2", 30, 2)
    assert a == c

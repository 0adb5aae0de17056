import itertools
import math
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import (
    Family,
    WeightSpec,
    count_A,
    count_A_split,
    count_C,
    count_leq,
    lambda_split_exponent,
    sandwich_check,
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


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(
    s=st.integers(1, 100).flatmap(
        lambda q: st.integers(q + 1, 4 * q).map(lambda p: Fraction(p, q))
    ),
    d=st.integers(1, 3),
    r=st.integers(1, 8),
)
def test_count_matches_direct_grid_any_denominator(s, d, r):
    # s = p/q on both sides of the exact-denominator cap (64): below it no
    # guard-band warning is raised and the count is exact; above it a
    # warning bounds how far the count may be off
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = count_C(s, r, d)
    reported = sum(int(str(w.message).split()[0]) for w in caught
                   if "guard band" in str(w.message))
    assert s.denominator > 64 or not caught
    assert abs(got - _scan_C(s, r, d)) <= reported


def test_guard_band_warnings():
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
    # denominator to settle in integers: the orbit is counted, and its
    # 4 (d = 2) or 24 (d = 3) points reported
    for s, r, d, count, reported in [("2.289224226994103", 2, 2, 13, 4),
                                     ("1.962680789693084", 4, 3, 69, 24)]:
        with pytest.warns(UserWarning, match=f"^{reported} threshold "):
            assert count_C(s, r, d) == count


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
    report = verify_appendix_limits(2, 2, [25, 50, 100, 200])
    assert [row.r for row in report.rows] == [25, 50, 100, 200]
    S = report.series_value
    np.testing.assert_allclose(report.c_over_r_target, 4.0 * (2.0 * S + 1.0),
                               rtol=1e-12)
    ratios = [row.c_over_r for row in report.rows]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(rt < report.c_over_r_target for rt in ratios)
    for row in report.rows:
        split_cells = [c for c in row.cells if c.j is not None]
        assert {c.ell for c in row.cells} == {2}
        # the dominant split cell carries the S^{l-1} target
        dom = [c for c in split_cells if c.j == c.ell - 1]
        assert len(dom) == 1
        np.testing.assert_allclose(dom[0].target, S, rtol=1e-12)
        # decomposition recomposes inside the report too
        total = [c for c in row.cells if c.j is None][0]
        assert sum(comb(c.ell, c.j) * c.count for c in split_cells) == total.count


def test_fractional_s_stays_exact():
    # denominator within the exact cap: bigint path, no float ambiguity
    a = count_C(Fraction(3, 2), 30, 2)
    b = count_C(1.5, 30, 2)
    assert a == b
    c = count_C("3/2", 30, 2)
    assert a == c

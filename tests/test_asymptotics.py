import math
import sys

import numpy as np
import pytest

from wienerwidths import (
    Embedding,
    Family,
    ResourceLimitError,
    WeightSpec,
    WidthKind,
    aux_integral,
    constant,
    convergence_table,
    series_S,
    sigma_prefix,
)
from wienerwidths.cli import main


def test_constant_examples():
    assert constant("mix-l2-sigma", s=1.0, d=2) == 4.0
    assert constant("mix-l2-sigma", s=2.0, d=3) == 16.0
    np.testing.assert_allclose(constant("transfer-vw", s=2.0),
                               math.sqrt(5.0), rtol=0)
    np.testing.assert_allclose(constant("transfer-uv", s=1.0),
                               2.0 / 3.0, rtol=1e-15)
    assert constant("preasymptotic", d=3) == 6.25
    assert constant("h1-constant", s=2.0, d=1) == 2.0


def test_constant_power_identity():
    for d in (1, 2, 3, 5):
        base = constant("mix-l2-sigma", s=1.0, d=d)
        for s in (0.5, 1.5, 2.0, 3.0):
            assert constant("mix-l2-sigma", s=s, d=d) == base ** s


def test_mix_l2_sigma_base_is_correctly_rounded():
    # 2^d / (d-1)! in one int/int division, up to d = 197, the last d whose
    # base is a normal float.  The float division 2.0**d / (d-1)! rounds
    # (d-1)! first: an ulp off at d = 24 and at 42 other d up to 171, and an
    # OverflowError from d = 172 on, where the value is a normal float
    for d in range(1, 198):
        assert constant("mix-l2-sigma", s=1.0, d=d) == (
            2**d / math.factorial(d - 1)), d
    assert constant("mix-l2-sigma", s=1.0, d=24) == 6.4897126477427844e-16
    assert constant("mix-l2-sigma", s=1.0, d=172) == 4.8237095415197397e-258


def test_mix_l2_sigma_refuses_outside_the_normal_floats():
    # (d-1)! is never formed for a d whose value is far below the normal
    # floats, so d = 1e9 is refused at once
    for s, d in ((2.0, 171), (1.0, 198), (0.999, 198), (1.0, 2000),
                 (1.0, 10**9), (1.0, 10**400)):
        with pytest.raises(ValueError, match="leaves the float range"):
            constant("mix-l2-sigma", s=s, d=d)
    # above the largest factorial formed, where only s below about 7e-4
    # gives a normal float
    for s, d in ((1e-12, 10**9), (1e-4, 100_001)):
        with pytest.raises(ResourceLimitError, match="up to d = 100000"):
            constant("mix-l2-sigma", s=s, d=d)


def test_mix_l2_sigma_below_the_normal_floats_against_mpmath():
    # from d = 198 on the base 2^d/(d-1)! is below the normal floats, yet
    # for s < 1 the value can be a normal float: (2^230/229!)^0.01 is about
    # 1.85e-4.  The power of the exact ratio is within 3 ulp of the value
    # at 300 bits (1.9 ulp at most on this grid), over s from the edge of
    # the normal floats down to 1e-9 of it
    import mpmath

    assert constant("mix-l2-sigma", s=0.01, d=230) == 0.00018496452515192151
    with mpmath.workprec(300):
        for d in [*range(198, 300), 500, 1000, 5000, 20000, 100_000]:
            log_q = d * mpmath.log(2) - mpmath.loggamma(d)
            for frac in (0.999, 0.9, 0.5, 0.1, 0.01, 1e-3, 1e-6, 1e-9):
                s = float(frac * math.log(sys.float_info.min) / log_q)
                got = constant("mix-l2-sigma", s=s, d=d)
                exact = mpmath.exp(s * log_q)
                assert abs(mpmath.mpf(got) - exact) <= 3 * math.ulp(got), (d, s)


def test_transfer_uv_against_mpmath():
    # (2s/(2s+1))^s = exp(-s log1p(1/(2s))), to within 2 ulp; the plain
    # float power multiplied the base's rounding by s (2.4e11 ulp off at
    # s = 1e12) and printed 1 from s ~ 1e16 on, where the limit is e^-1/2
    import mpmath

    grid = [10.0 ** (k / 100) for k in range(-300, 1600)]
    with mpmath.workprec(400):
        for s in [*grid, 1e20, 1e100, 1e300, 1.7e308]:
            got = constant("transfer-uv", s=s)
            exact = mpmath.exp(-s * mpmath.log1p(1 / (2 * mpmath.mpf(s))))
            assert abs(mpmath.mpf(got) - exact) <= 2 * math.ulp(got), s
    assert constant("transfer-uv", s=1.0) == 0.66666666666666663


def test_preasymptotic_d4():
    expect = (1.0 + (1.0 + 2.0 / math.log2(3.0)) / 3.0) ** 3
    np.testing.assert_allclose(constant("preasymptotic", d=4),
                               expect, rtol=1e-15)


def test_preasymptotic_against_mpmath():
    # C(d) at 200 bits, its power as exp((d-1) log1p(x)), so that 1 + x
    # does not round to 1 there either; the plain float power returned 1
    # from d = 1e16 on (the grid holds 10^16 exactly), where C(d) is 2.82
    import mpmath

    def exact(d):
        d = mpmath.mpf(d)
        x = (1 + 2 / mpmath.log(d - 1, 2)) / (d - 1)
        return mpmath.exp((d - 1) * mpmath.log1p(x))

    ds = [*range(3, 2001), *{int(10.0 ** (k / 8)) for k in range(28, 2401)}]
    with mpmath.workprec(200):
        for d in ds:
            got = constant("preasymptotic", d=d)
            assert abs(mpmath.mpf(got) / exact(d) - 1) < 5e-16, d


def test_h1_constant_uses_series():
    S = series_S(2.0, 1e-10)
    np.testing.assert_allclose(constant("h1-constant", s=2.0, d=2),
                               4.0 * (2.0 * S + 1.0), rtol=1e-12)
    # d=1 skips the series entirely, so it works even where the series
    # would be expensive
    assert constant("h1-constant", s=4.0, d=1) == 8.0


def test_s_series_constant_name():
    assert constant("s-series", s=2.0) == series_S(2.0, 1e-10)


def test_constant_domain_errors():
    with pytest.raises(ValueError, match="d >= 3"):
        constant("preasymptotic", d=2)
    with pytest.raises(ValueError, match="s > 1"):
        constant("h1-constant", s=1.0, d=2)
    with pytest.raises(ValueError, match="required"):
        constant("transfer-uv")
    with pytest.raises(ValueError, match="unknown constant"):
        constant("no-such-thing")


def test_series_s2_closed_form():
    closed = (math.pi / math.tanh(math.pi) - 1.0) / 2.0
    assert abs(series_S(2.0, 1e-10) - closed) < 1e-10
    assert abs(series_S(2.0, 1e-6) - closed) < 1e-6


def test_series_s3_brute_force():
    p = 0.75  # 3/(2*(3-1))
    k = np.arange(1, 10 ** 7 + 1, dtype=np.float64)
    partial = float(np.sum((k * k + 1.0) ** (-p)))
    a = 2 * p - 1
    hi = (10 ** 7) ** (-a) / a
    lo = (10 ** 7 + 2.0) ** (-a) / a
    oracle = partial + (hi + lo) / 2.0
    assert abs(series_S(3.0, 1e-8) - oracle) < 1e-8


def test_series_monotone_in_exponent():
    # p = s/(2(s-1)) falls as s rises, so the sum rises
    vals = [series_S(s, 1e-10) for s in (1.2, 1.5, 2.0, 3.0)]
    assert vals == sorted(vals)


def test_series_stability_small_s():
    v1 = series_S(1.1, 1e-10)
    v2 = series_S(1.1, 1e-13)
    assert abs(v1 - v2) < 2e-10


def test_series_domain_and_resource():
    with pytest.raises(ValueError):
        series_S(1.0)
    with pytest.raises(ValueError):
        series_S(2.0, 0.0)
    # tol = inf would let an infinite drift through, and the tail bounds
    # then divide by 2p - 1 = 0
    for s in (2.0, 1e300):
        with pytest.raises(ValueError, match="tol must be finite"):
            series_S(s, math.inf)
    with pytest.raises(ResourceLimitError):
        series_S(4.0, 1e-14)
    # the rounding of p = s/(2(s-1)) alone moves S by more than tol, so no
    # K certifies it: a sum at the rounded p is 8.9e7 below S at s = 1e12
    for s in (1e9, 1e12, 1e15):
        for tol in (1e-10, 1e-6, 1e-3):
            with pytest.raises(ResourceLimitError, match="rounding p"):
                series_S(s, tol)


def test_convergence_table_mixed_inf_d1():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 10 ** 5 + 1)
    grid = [10 ** 3, 10 ** 4, 10 ** 5]
    columns = convergence_table(p, Embedding.A_TO_A, WidthKind.APPROXIMATION,
                                grid, alpha=1.0, beta=0.0)
    assert [col.shape for col in columns] == [(3,)] * 3
    raws, normalizers, ratios = (col.tolist() for col in columns)
    assert raws == [p.values[n - 1] for n in grid]
    for n, raw, normalizer, ratio in zip(grid, raws, normalizers, ratios):
        assert 2.0 - 1e-12 <= ratio <= 2.0 + 3.0 / n
        # Python's float power, and the IEEE quotient
        assert normalizer == n ** -1.0 * math.log(n) ** 0.0
        assert ratio == raw / normalizer


def test_convergence_table_h1_d1():
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=1)
    p = sigma_prefix(spec, 10 ** 5)
    _, _, ratios = convergence_table(p, Embedding.HMIX_TO_H1,
                                     WidthKind.APPROXIMATION, [10 ** 5],
                                     alpha=1.0, beta=0.0)
    [ratio] = ratios.tolist()
    assert abs(ratio - 2.0) < 0.001 * 2.0


def test_converge_target_column(capsys):
    # convergence_table has no target; converge appends --target to each row
    argv = ["converge", "--family", "mixed-inf", "--s", "1", "--d", "1",
            "--embedding", "a-to-a", "--kind", "approximation",
            "--n-grid", "10,100,1000", "--alpha", "1", "--beta", "0",
            "--target", "1.3333333333333333"]
    assert main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "n,raw,normalizer,ratio,target"
    assert [line.split(",")[0] for line in lines] == ["10", "100", "1000"]
    assert all(float(line.split(",")[-1]) == 4.0 / 3.0 for line in lines)


def test_convergence_table_validation():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 100)
    with pytest.raises(ValueError, match="increasing"):
        convergence_table(p, Embedding.A_TO_A, WidthKind.APPROXIMATION,
                          [10, 10], alpha=1.0, beta=0.0)
    with pytest.raises(ValueError, match=">= 3"):
        convergence_table(p, Embedding.A_TO_A, WidthKind.APPROXIMATION,
                          [2, 10], alpha=1.0, beta=0.0)
    with pytest.raises(ValueError, match="exact"):
        convergence_table(p, Embedding.A_TO_LINF, WidthKind.APPROXIMATION,
                          [10, 20], alpha=1.0, beta=0.0)
    for alpha, beta in ((math.nan, 0.0), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            convergence_table(p, Embedding.A_TO_A, WidthKind.APPROXIMATION,
                              [10, 20], alpha=alpha, beta=beta)
    # 10^-400 underflows to 0; 10^-320 is a subnormal whose ratio overflows
    with pytest.raises(ValueError, match="normalizer .* is 0.0 at n=10"):
        convergence_table(p, Embedding.A_TO_A, WidthKind.APPROXIMATION,
                          [10, 20], alpha=400.0, beta=0.0)
    with pytest.raises(ValueError, match="ratio raw/normalizer overflows"):
        convergence_table(p, Embedding.A_TO_A, WidthKind.APPROXIMATION,
                          [10], alpha=320.0, beta=0.0)


def test_aux_integral_beta0_closed_form():
    for s in (0.5, 1.0, 2.0):
        for n in (10, 1000):
            got = aux_integral(s, 0.0, 2.0, n)
            x = 2.0 / n
            expect = (1.0 - x ** (s + 1.0)) / (s + 1.0)
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_aux_integral_limit():
    v = aux_integral(1.0, 1.0, 2.0, 10 ** 6)
    assert abs(v - 0.5) < 0.02 + 0.002  # near the lemma limit already at 1e6
    devs = [abs(aux_integral(2.0, 2.0, 2.0, n) - 1.0 / 3.0)
            for n in (10 ** 4, 10 ** 6, 10 ** 8)]
    assert devs[0] > devs[1] > devs[2]


def test_aux_integral_domain():
    with pytest.raises(ValueError, match="a > 1"):
        aux_integral(1.0, 1.0, 1.0, 100)
    with pytest.raises(ValueError, match="n > a"):
        aux_integral(1.0, 1.0, 2.0, 2)

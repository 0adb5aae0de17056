import math

import numpy as np
import pytest

from wienerwidths import (
    Embedding,
    Family,
    PrefixTooShortError,
    WeightSpec,
    WidthKind,
    WidthQuery,
    s_lambda_error,
    sigma_prefix,
    sup_over_h,
    width,
)
from wienerwidths import widths as widths_mod
from wienerwidths.widths import needs_sup

ALL_KINDS = list(WidthKind)
U_KINDS = [WidthKind.APPROXIMATION, WidthKind.KOLMOGOROV]
V_KINDS = [WidthKind.BERNSTEIN, WidthKind.WEYL]


def test_width_examples_mixed_inf():
    spec = WeightSpec(Family.MIXED_INF, s=2.0, d=2)
    p = sigma_prefix(spec, 400)
    assert width(p, WidthQuery(Embedding.A_TO_A, WidthKind.APPROXIMATION, 5)).value == 1.0
    assert width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.BERNSTEIN, 4)).value == 0.5
    assert width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.APPROXIMATION, 1)).value == 1.0


def test_width_example_h1():
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=1)
    p = sigma_prefix(spec, 50)
    got = width(p, WidthQuery(Embedding.HMIX_TO_H1, WidthKind.APPROXIMATION, 2)).value
    np.testing.assert_allclose(got, 2 ** -0.5, rtol=1e-15)


def test_sup_over_h_constant_prefix():
    # sigma = 1 on the whole prefix: ratio h/h = 1 everywhere, smallest
    # maximizer is h = n
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=5)
    p = sigma_prefix(spec, 100)
    assert sup_over_h(p, 1) == (1.0, 1)
    # for n >= 2 on a flat run the ratio (h-n+1)/h climbs toward 1 without
    # attaining it, so no finite scan can certify; the honest answer is a
    # too-short error, not a guess
    with pytest.raises(PrefixTooShortError):
        sup_over_h(p, 7)


def test_sup_over_h_matches_exhaustive_scan():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 10 ** 4)
    S = np.asarray(p.cum_inv_sq)
    hs = np.arange(1, 10 ** 4 + 1)
    for n in (1, 2, 3, 10, 50, 137, 500):
        ratios = (hs[n - 1:] - (n - 1)) / S[n - 1:]
        i = int(np.argmax(ratios))
        val, h = sup_over_h(p, n)
        assert h == n + i
        np.testing.assert_allclose(val, math.sqrt(ratios[i]), rtol=1e-12)


def test_sup_over_h_argmax_locality():
    # the continuous maximizer sits near (1+1/s)(n-1) for this family;
    # integer effects stay inside a +-n^0.9 slack around the predicted window
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 10 ** 4)
    n = 10 ** 3
    _, h = sup_over_h(p, n)
    slack = n ** 0.9
    assert (1 + 0.5) * (n - 1) - slack <= h <= 2 * (n - 1) + slack


def test_prefix_too_short():
    spec = WeightSpec(Family.MIXED_SR, s=2.0, d=1, r=2.0)
    p = sigma_prefix(spec, 40)
    with pytest.raises(PrefixTooShortError) as exc:
        width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.APPROXIMATION, 39))
    assert exc.value.required > 40
    with pytest.raises(ValueError):
        width(p, WidthQuery(Embedding.A_TO_A, WidthKind.APPROXIMATION, 41))


def test_chain_inequalities_a_to_l2():
    for spec in [
        WeightSpec(Family.MIXED_SR, s=1.5, d=2, r=2.0),
        WeightSpec(Family.H1_RATIO, s=2.0, d=2),
    ]:
        p = sigma_prefix(spec, 4000)
        for n in (1, 2, 5, 17, 100, 800):
            v = width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.BERNSTEIN, n)).value
            x = width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.WEYL, n)).value
            u = width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.APPROXIMATION, n)).value
            dd = width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.KOLMOGOROV, n)).value
            assert v == x
            assert u == dd
            assert v <= u <= p.sigma(n) * (1 + 1e-12)


def test_a_to_a_equals_f_to_l2_all_kinds():
    spec = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=1.0)
    p = sigma_prefix(spec, 500)
    for n in (1, 3, 10, 200, 500):
        for kind in ALL_KINDS:
            a = width(p, WidthQuery(Embedding.A_TO_A, kind, n)).value
            f = width(p, WidthQuery(Embedding.F_TO_L2, kind, n)).value
            assert a == f == p.sigma(n)


def test_linf_lp_brackets():
    spec = WeightSpec(Family.MIXED_INF, s=1.5, d=2)
    p = sigma_prefix(spec, 2000)
    for n in (1, 4, 40, 300):
        for kind in ALL_KINDS:
            l2 = width(p, WidthQuery(Embedding.A_TO_L2, kind, n)).value
            binf = width(p, WidthQuery(Embedding.A_TO_LINF, kind, n))
            bp = width(p, WidthQuery(Embedding.A_TO_LP, kind, n, p=4.0))
            assert not binf.exact and not bp.exact
            assert binf.lower == bp.lower == l2
            assert binf.upper == bp.upper == p.sigma(n)
            assert binf.lower <= binf.upper
            with pytest.raises(ValueError):
                binf.value  # bracket has no single value


def test_lp_validation():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 10)
    with pytest.raises(ValueError):
        WidthQuery(Embedding.A_TO_LP, WidthKind.APPROXIMATION, 1, p=2.0)
    with pytest.raises(ValueError):
        WidthQuery(Embedding.A_TO_LP, WidthKind.APPROXIMATION, 1, p=math.inf)
    with pytest.raises(ValueError):
        WidthQuery(Embedding.A_TO_LINF, WidthKind.APPROXIMATION, 1, p=4.0)
    with pytest.raises(ValueError):
        width(p, WidthQuery(Embedding.A_TO_LP, WidthKind.APPROXIMATION, 1))


def test_cmix_requires_matching_weight():
    good = sigma_prefix(WeightSpec(Family.MIXED_SR, s=2.0, d=2, r=4.0), 50)
    v = width(good, WidthQuery(Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, 3))
    assert v.exact
    # r must equal 2s with s a positive integer
    bad_r = sigma_prefix(WeightSpec(Family.MIXED_SR, s=2.0, d=2, r=2.0), 50)
    with pytest.raises(ValueError, match="r = 2"):
        width(bad_r, WidthQuery(Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, 3))
    bad_s = sigma_prefix(WeightSpec(Family.MIXED_SR, s=1.5, d=2, r=3.0), 50)
    with pytest.raises(ValueError, match="integer"):
        width(bad_s, WidthQuery(Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, 3))
    wrong_family = sigma_prefix(WeightSpec(Family.MIXED_INF, s=2.0, d=2), 50)
    with pytest.raises(ValueError):
        width(wrong_family, WidthQuery(Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, 3))


def test_cmix_values_d1():
    # m = 1, d = 1: v_2 on the (s=1, r=2) prefix is (1 + 2)^{-1/2}
    p = sigma_prefix(WeightSpec(Family.MIXED_SR, s=1.0, d=1, r=2.0), 800)
    v = width(p, WidthQuery(Embedding.CMIX_TO_L2, WidthKind.WEYL, 2)).value
    np.testing.assert_allclose(v, 3 ** -0.5, rtol=1e-15)
    b = width(p, WidthQuery(Embedding.CMIX_TO_L2, WidthKind.APPROXIMATION, 2))
    assert not b.exact
    l2 = width(p, WidthQuery(Embedding.A_TO_L2, WidthKind.APPROXIMATION, 2)).value
    assert b.lower == l2
    np.testing.assert_allclose(b.upper, 2 ** 0.5 * p.sigma(2), rtol=1e-15)


def test_needs_sup_matches_width_dispatch(monkeypatch):
    # the predicate the CLI sizes prefixes by must agree with the dispatch
    h1 = sigma_prefix(WeightSpec(Family.H1_RATIO, s=2.0, d=1), 800)
    cmix = sigma_prefix(WeightSpec(Family.MIXED_SR, s=1.0, d=1, r=2.0), 800)
    plain = sigma_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=1), 800)
    prefixes = {Embedding.HMIX_TO_H1: h1, Embedding.AMIX_TO_H1: h1,
                Embedding.CMIX_TO_L2: cmix}
    calls = []
    real = widths_mod.sup_over_h

    def counting(prefix, n):
        calls.append(n)
        return real(prefix, n)

    monkeypatch.setattr(widths_mod, "sup_over_h", counting)
    for emb in Embedding:
        for kind in ALL_KINDS:
            calls.clear()
            p = 4.0 if emb is Embedding.A_TO_LP else None
            width(prefixes.get(emb, plain), WidthQuery(emb, kind, 3, p=p))
            assert bool(calls) == needs_sup(emb, kind), (emb, kind)


def test_h1_embeddings_require_h1_weight():
    p = sigma_prefix(WeightSpec(Family.MIXED_INF, s=2.0, d=2), 50)
    for emb in (Embedding.AMIX_TO_H1, Embedding.HMIX_TO_H1):
        with pytest.raises(ValueError, match="h1-ratio"):
            width(p, WidthQuery(emb, WidthKind.APPROXIMATION, 3))


def test_amix_h1_equals_a_to_l2_on_h1_weight():
    p = sigma_prefix(WeightSpec(Family.H1_RATIO, s=2.0, d=2), 3000)
    for kind in ALL_KINDS:
        for n in (1, 5, 60, 400):
            a = width(p, WidthQuery(Embedding.AMIX_TO_H1, kind, n)).value
            b = width(p, WidthQuery(Embedding.A_TO_L2, kind, n)).value
            assert a == b


def test_monotone_in_n_all_embeddings():
    ns = list(range(1, 40)) + [60, 100, 200]
    cases = [
        (WeightSpec(Family.MIXED_SR, s=1.5, d=2, r=2.0),
         [Embedding.A_TO_A, Embedding.F_TO_L2, Embedding.A_TO_L2,
          Embedding.A_TO_LINF, Embedding.A_TO_LP]),
        (WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0), [Embedding.CMIX_TO_L2]),
        (WeightSpec(Family.H1_RATIO, s=2.0, d=2),
         [Embedding.AMIX_TO_H1, Embedding.HMIX_TO_H1]),
    ]
    for spec, embeddings in cases:
        prefix = sigma_prefix(spec, 4000)
        for emb in embeddings:
            for kind in ALL_KINDS:
                pv = 4.0 if emb is Embedding.A_TO_LP else None
                lows, ups = [], []
                for n in ns:
                    w = width(prefix, WidthQuery(emb, kind, n, p=pv))
                    lows.append(w.lower)
                    ups.append(w.upper)
                assert all(a >= b - 1e-15 for a, b in zip(lows, lows[1:]))
                assert all(a >= b - 1e-15 for a, b in zip(ups, ups[1:]))


def test_s_lambda_error_equals_sigma():
    spec = WeightSpec(Family.MIXED_INF, s=2.0, d=2)
    assert s_lambda_error(spec, 5) == 1.0
    spec1 = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    assert s_lambda_error(spec1, 4) == 0.5
    spec2 = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0)
    assert s_lambda_error(spec2, 1) == 1.0
    p = sigma_prefix(spec2, 1000)
    for n in (1, 2, 3, 10, 99, 512, 1000):
        assert s_lambda_error(spec2, n) == p.sigma(n)

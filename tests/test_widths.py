import math

import numpy as np
import pytest

from wienerwidths import (
    Embedding,
    Family,
    PrefixTooShortError,
    WeightSpec,
    WidthKind,
    sigma_prefix,
    sup_over_h,
    width,
)
from wienerwidths import widths as widths_mod
from wienerwidths.widths import is_exact, needs_sup

ALL_KINDS = list(WidthKind)
U_KINDS = [WidthKind.APPROXIMATION, WidthKind.KOLMOGOROV]
V_KINDS = [WidthKind.BERNSTEIN, WidthKind.WEYL]


def test_width_examples_mixed_inf():
    spec = WeightSpec(Family.MIXED_INF, s=2.0, d=2)
    p = sigma_prefix(spec, 400)
    assert width(p, Embedding.A_TO_A, WidthKind.APPROXIMATION, [5])[0].value == 1.0
    assert width(p, Embedding.A_TO_L2, WidthKind.BERNSTEIN, [4])[0].value == 0.5
    assert width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [1])[0].value == 1.0


def test_width_example_h1():
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=1)
    p = sigma_prefix(spec, 50)
    got = width(p, Embedding.HMIX_TO_H1, WidthKind.APPROXIMATION, [2])[0].value
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
        width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [39])
    assert exc.value.required > 40
    # n = n_max + 1 on the sigma, v and sup paths: retry with at least n terms
    for emb, kind in [
        (Embedding.A_TO_A, WidthKind.APPROXIMATION),
        (Embedding.A_TO_L2, WidthKind.BERNSTEIN),
        (Embedding.A_TO_L2, WidthKind.APPROXIMATION),
    ]:
        with pytest.raises(PrefixTooShortError) as exc:
            width(p, emb, kind, [41])
        assert exc.value.required == 41
        assert str(exc.value) == "prefix too short: n=41 > n_max=40"


def test_chain_inequalities_a_to_l2():
    for spec in [
        WeightSpec(Family.MIXED_SR, s=1.5, d=2, r=2.0),
        WeightSpec(Family.H1_RATIO, s=2.0, d=2),
    ]:
        p = sigma_prefix(spec, 4000)
        for n in (1, 2, 5, 17, 100, 800):
            v = width(p, Embedding.A_TO_L2, WidthKind.BERNSTEIN, [n])[0].value
            x = width(p, Embedding.A_TO_L2, WidthKind.WEYL, [n])[0].value
            u = width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [n])[0].value
            dd = width(p, Embedding.A_TO_L2, WidthKind.KOLMOGOROV, [n])[0].value
            assert v == x
            assert u == dd
            assert v <= u <= p.sigma(n) * (1 + 1e-12)


def test_a_to_a_equals_f_to_l2_all_kinds():
    spec = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=1.0)
    p = sigma_prefix(spec, 500)
    for n in (1, 3, 10, 200, 500):
        for kind in ALL_KINDS:
            a = width(p, Embedding.A_TO_A, kind, [n])[0].value
            f = width(p, Embedding.F_TO_L2, kind, [n])[0].value
            assert a == f == p.sigma(n)


def test_linf_lp_brackets():
    spec = WeightSpec(Family.MIXED_INF, s=1.5, d=2)
    p = sigma_prefix(spec, 2000)
    for n in (1, 4, 40, 300):
        for kind in ALL_KINDS:
            l2 = width(p, Embedding.A_TO_L2, kind, [n])[0].value
            binf = width(p, Embedding.A_TO_LINF, kind, [n])[0]
            bp = width(p, Embedding.A_TO_LP, kind, [n], p=4.0)[0]
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
        width(p, Embedding.A_TO_LP, WidthKind.APPROXIMATION, [1], p=2.0)
    with pytest.raises(ValueError):
        width(p, Embedding.A_TO_LP, WidthKind.APPROXIMATION, [1], p=math.inf)
    with pytest.raises(ValueError):
        width(p, Embedding.A_TO_LINF, WidthKind.APPROXIMATION, [1], p=4.0)
    with pytest.raises(ValueError):
        width(p, Embedding.A_TO_LP, WidthKind.APPROXIMATION, [1])


def test_cmix_requires_matching_weight():
    good = sigma_prefix(WeightSpec(Family.MIXED_SR, s=2.0, d=2, r=4.0), 50)
    v = width(good, Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, [3])[0]
    assert v.exact
    # r must equal 2s with s a positive integer
    bad_r = sigma_prefix(WeightSpec(Family.MIXED_SR, s=2.0, d=2, r=2.0), 50)
    with pytest.raises(ValueError, match="r = 2"):
        width(bad_r, Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, [3])
    bad_s = sigma_prefix(WeightSpec(Family.MIXED_SR, s=1.5, d=2, r=3.0), 50)
    with pytest.raises(ValueError, match="integer"):
        width(bad_s, Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, [3])
    wrong_family = sigma_prefix(WeightSpec(Family.MIXED_INF, s=2.0, d=2), 50)
    with pytest.raises(ValueError):
        width(wrong_family, Embedding.CMIX_TO_L2, WidthKind.BERNSTEIN, [3])


def test_cmix_values_d1():
    # m = 1, d = 1: v_2 on the (s=1, r=2) prefix is (1 + 2)^{-1/2}
    p = sigma_prefix(WeightSpec(Family.MIXED_SR, s=1.0, d=1, r=2.0), 800)
    v = width(p, Embedding.CMIX_TO_L2, WidthKind.WEYL, [2])[0].value
    np.testing.assert_allclose(v, 3 ** -0.5, rtol=1e-15)
    b = width(p, Embedding.CMIX_TO_L2, WidthKind.APPROXIMATION, [2])[0]
    assert not b.exact
    l2 = width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [2])[0].value
    assert b.lower == l2
    np.testing.assert_allclose(b.upper, 2 ** 0.5 * p.sigma(2), rtol=1e-15)


def _dispatch_prefixes():
    """A prefix every embedding accepts: h1-ratio for the H^1 embeddings,
    the (s=1, r=2) mixed weight for cmix-to-l2, mixed-inf for the rest."""
    h1 = sigma_prefix(WeightSpec(Family.H1_RATIO, s=2.0, d=1), 800)
    cmix = sigma_prefix(WeightSpec(Family.MIXED_SR, s=1.0, d=1, r=2.0), 800)
    plain = sigma_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=1), 800)
    prefixes = {Embedding.HMIX_TO_H1: h1, Embedding.AMIX_TO_H1: h1,
                Embedding.CMIX_TO_L2: cmix}
    return [(emb, prefixes.get(emb, plain)) for emb in Embedding]


def test_needs_sup_matches_width_dispatch(monkeypatch):
    # the predicate the CLI sizes prefixes by must agree with the dispatch:
    # the grid pass runs iff needs_sup
    calls = []
    real = widths_mod._sup_values

    def counting(prefix, ns):
        calls.append(list(ns))
        return real(prefix, ns)

    monkeypatch.setattr(widths_mod, "_sup_values", counting)
    for emb, prefix in _dispatch_prefixes():
        for kind in ALL_KINDS:
            calls.clear()
            p = 4.0 if emb is Embedding.A_TO_LP else None
            width(prefix, emb, kind, [3], p=p)
            assert bool(calls) == needs_sup(emb, kind), (emb, kind)


def test_is_exact_matches_width():
    for emb, prefix in _dispatch_prefixes():
        for kind in ALL_KINDS:
            p = 4.0 if emb is Embedding.A_TO_LP else None
            got = width(prefix, emb, kind, [3], p=p)[0].exact
            assert is_exact(emb, kind) == got, (emb, kind)


def test_grid_pass_never_calls_per_n_scan(monkeypatch):
    # one n, a sparse grid, a dense grid and a flat prefix: the grid pass
    # answers each alone, bit for bit as the per-n scan, and refuses the
    # flat one with the per-n scan's error
    p = sigma_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=1), 40000)
    flat = sigma_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=5), 100)
    grids = [[5000], [100, 1000, 10000], list(range(1, 3001))]
    expected = [[sup_over_h(p, n)[0] for n in grid] for grid in grids]
    with pytest.raises(PrefixTooShortError) as per_n:
        sup_over_h(flat, 7)

    def refuse(prefix, n):
        pytest.fail("width called sup_over_h")

    monkeypatch.setattr(widths_mod, "sup_over_h", refuse)
    for grid, values in zip(grids, expected):
        got = width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, grid)
        assert [w.value for w in got] == values
    with pytest.raises(PrefixTooShortError) as exc:
        width(flat, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [1, 7])
    assert exc.value.required == per_n.value.required == 200
    assert str(exc.value) == str(per_n.value) == (
        "prefix exhausted before certificate at n=7; "
        "retry with at least 200 terms"
    )


def test_grid_pass_on_flat_prefix():
    # the prefix of test_sup_over_h_constant_prefix: n = 1 certifies, n = 7
    # never does, through the grid pass as through sup_over_h
    p = sigma_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=5), 100)
    got = width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [1])
    assert got[0].value == 1.0
    with pytest.raises(PrefixTooShortError) as exc:
        width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, [1, 7])
    assert exc.value.required == 200


def test_grid_answers_like_its_points():
    # an unsorted grid with a repeat: one value per entry, in input order,
    # equal to the single-point answers; the checks see the whole grid
    grid = [7, 3, 7, 1, 40, 2]
    for emb, prefix in _dispatch_prefixes():
        for kind in ALL_KINDS:
            p = 4.0 if emb is Embedding.A_TO_LP else None
            got = width(prefix, emb, kind, grid, p=p)
            assert got == [width(prefix, emb, kind, [n], p=p)[0] for n in grid]
            top = prefix.n_max + 5
            for past in ([top] + grid, grid[:3] + [top] + grid[3:], grid + [top]):
                with pytest.raises(PrefixTooShortError) as exc:
                    width(prefix, emb, kind, past, p=p)
                assert exc.value.required == top
                assert str(exc.value) == (
                    f"prefix too short: n={top} > n_max={prefix.n_max}"
                )
            for bad in (0, 2.5):
                for at in (0, 3, len(grid)):
                    with pytest.raises(ValueError) as exc:
                        width(prefix, emb, kind, grid[:at] + [bad] + grid[at:],
                              p=p)
                    assert str(exc.value) == (
                        f"n must be a positive integer, got {bad!r}"
                    )


def test_h1_embeddings_require_h1_weight():
    p = sigma_prefix(WeightSpec(Family.MIXED_INF, s=2.0, d=2), 50)
    for emb in (Embedding.AMIX_TO_H1, Embedding.HMIX_TO_H1):
        with pytest.raises(ValueError, match="h1-ratio"):
            width(p, emb, WidthKind.APPROXIMATION, [3])


def test_amix_h1_equals_a_to_l2_on_h1_weight():
    p = sigma_prefix(WeightSpec(Family.H1_RATIO, s=2.0, d=2), 3000)
    for kind in ALL_KINDS:
        for n in (1, 5, 60, 400):
            a = width(p, Embedding.AMIX_TO_H1, kind, [n])[0].value
            b = width(p, Embedding.A_TO_L2, kind, [n])[0].value
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
                ws = width(prefix, emb, kind, ns, p=pv)
                lows = [w.lower for w in ws]
                ups = [w.upper for w in ws]
                assert all(a >= b - 1e-15 for a, b in zip(lows, lows[1:]))
                assert all(a >= b - 1e-15 for a, b in zip(ups, ups[1:]))


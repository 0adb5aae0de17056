import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import (
    Embedding,
    Family,
    PrefixTooShortError,
    SigmaPrefix,
    WeightSpec,
    WidthKind,
    sigma_prefix,
    sup_over_h,
    width,
)
from wienerwidths import cli
from wienerwidths import widths as widths_mod
from wienerwidths.widths import is_exact, needs_sup
from conftest import array_prefix

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
    p = array_prefix(spec, 40)
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
            assert v <= u <= float(p.values[n - 1]) * (1 + 1e-12)


def test_a_to_a_equals_f_to_l2_all_kinds():
    spec = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=1.0)
    p = sigma_prefix(spec, 500)
    for n in (1, 3, 10, 200, 500):
        for kind in ALL_KINDS:
            a = width(p, Embedding.A_TO_A, kind, [n])[0].value
            f = width(p, Embedding.F_TO_L2, kind, [n])[0].value
            assert a == f == float(p.values[n - 1])


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
            assert binf.upper == bp.upper == float(p.values[n - 1])
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
    np.testing.assert_allclose(b.upper, 2 ** 0.5 * p.values[1], rtol=1e-15)


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
    # the predicate refuse_flat decides by must agree with the dispatch:
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
    flat = array_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=5), 100)
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


def test_grid_pass_windows_fit_one_cell_budget(monkeypatch):
    # every evaluation of (h - n + 1) / S_h in the grid pass, one flat
    # array over the windows [L, R] of its rows: g locates each row's
    # maximizer, so a dense grid reads a few values of h per row (about
    # 39,000 and 49,000 in all here), and no evaluation exceeds the budget
    # of _CELLS; on a prefix that ends at the grid's top n the pass takes
    # its further terms for the rows its windows miss
    sizes = []
    scan = widths_mod._scan

    def recording(S, sig, base, rows, L, R):
        sizes.append(int(np.sum(R - L + 1)))
        return scan(S, sig, base, rows, L, R)

    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    grid = list(range(1, 6001))
    reference = sigma_prefix(spec, 24000)
    expected = [sup_over_h(reference, n)[0] for n in grid]
    monkeypatch.setattr(widths_mod, "_scan", recording)
    for n_max in (24000, 6000):
        sizes.clear()
        p = sigma_prefix(spec, n_max)
        got = width(p, Embedding.A_TO_L2, WidthKind.APPROXIMATION, grid)
        assert [w.value for w in got] == expected
        assert max(sizes) <= widths_mod._CELLS
        assert sum(sizes) < 100_000, (n_max, len(sizes), sum(sizes))


@pytest.mark.parametrize("spec", [
    WeightSpec(Family.MIXED_INF, s=1.0, d=2),
    WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0),
    WeightSpec(Family.H1_RATIO, s=2.0, d=2),
    WeightSpec(Family.ISOTROPIC_SR, s=33 / 32, d=2, r=2.0),
    WeightSpec(Family.ISOTROPIC_INF, s=1.0, d=3),
    WeightSpec(Family.MIXED_INF, s=0.25, d=1),
], ids=["mixed-inf-d2", "mixed-sr", "h1-ratio", "isotropic-sr-near-flat",
        "isotropic-inf-d3", "mixed-inf-quarter"])
def test_grid_pass_dense_equals_per_n_scan(spec):
    # a dense grid to the prefix's end, which grows: integer weights with
    # long plateaus, a near-flat weight, and h* near 3n at s = 1/4; the
    # per-n scan reads a prefix long enough for every n
    n_max = 20000
    got = width(sigma_prefix(spec, n_max), Embedding.A_TO_L2,
                WidthKind.APPROXIMATION, range(1, n_max + 1))
    reference = sigma_prefix(spec, 8 * n_max)
    expected = [sup_over_h(reference, n)[0] for n in range(1, n_max + 1)]
    assert [w.value for w in got] == expected


def test_grid_pass_in_any_order_equals_per_n_scan():
    # a strictly increasing grid is answered in its own order, without the
    # sort and the map back; a descending grid, repeats and a single n go
    # through them: either way every value is sup_over_h's, bit for bit
    spec = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0)
    p = sigma_prefix(spec, 3000)
    reference = sigma_prefix(spec, 24000)
    up = np.arange(1, 3001, dtype=np.int64)
    expected = [None] + [sup_over_h(reference, n)[0] for n in up.tolist()]
    sparse = np.array([2, 30, 31, 700, 2999], dtype=np.int64)
    for grid in (up, up[::-1].copy(), np.repeat(sparse, 2),
                 np.r_[sparse, sparse], up[[1, 0]], up[[0, 0]], sparse,
                 up[[41]], up[:0]):
        got = widths_mod._sup_values(p, grid)
        assert got.tolist() == [expected[n] for n in grid.tolist()], grid


def test_grid_pass_on_flat_prefix():
    # the prefix of test_sup_over_h_constant_prefix: n = 1 certifies, n = 7
    # never does, through the grid pass as through sup_over_h
    p = array_prefix(WeightSpec(Family.MIXED_INF, s=1.0, d=5), 100)
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



# (weight options, embedding, extra options) of every pair whose v kinds
# take the sum formula: exact on a-to-l2, amix-to-h1 and cmix-to-l2, the
# lower end of a bracket on a-to-linf and a-to-lp
_SUM_FORMULA = [
    (["--family", "mixed-inf", "--s", "1", "--d", "1"], Embedding.A_TO_L2, []),
    (["--family", "h1-ratio", "--s", "2", "--d", "2"], Embedding.AMIX_TO_H1, []),
    (["--family", "mixed-sr", "--s", "1", "--r", "2", "--d", "2"],
     Embedding.CMIX_TO_L2, []),
    (["--family", "mixed-inf", "--s", "1", "--d", "2"], Embedding.A_TO_LINF, []),
    (["--family", "mixed-inf", "--s", "1", "--d", "2"], Embedding.A_TO_LP,
     ["--p", "4"]),
]


@st.composite
def _sum_prefixes(draw):
    """(cum_inv_sq, values, grid): a running sum of drawn terms with random
    last bits, a nonincreasing sigma above every bracket's lower end, and a
    grid that may repeat and be unsorted, or a range."""
    n_max = draw(st.integers(1, 300))
    first = draw(st.floats(1e-6, 1e6))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n_max - 1,
                          max_size=n_max - 1))
    cum = np.cumsum([first, *steps])
    values = 2.0 * cum ** -0.5
    grid = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=40)
                | st.builds(lambda a, b: list(range(min(a, b), max(a, b) + 1)),
                            st.integers(1, n_max), st.integers(1, n_max)))
    return cum, values, grid


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_sum_prefixes(), st.sampled_from(range(len(_SUM_FORMULA))),
       st.sampled_from(V_KINDS), st.sampled_from(["csv", "json"]))
def test_sum_formula_is_pythons_float_power(drawn, case, kind, fmt):
    # every sum-formula value is float(cum_inv_sq[n-1]) ** -0.5 (libm's
    # pow), bit for bit, from width() and in the CLI's bytes; numpy's
    # ** -0.5 differs from it in the last bit on about 5% of values
    cum, values, grid = drawn
    weight, emb, extra = _SUM_FORMULA[case]
    args = cli._build_parser().parse_args(
        ["width", *weight, "--embedding", emb.value, "--kind", kind.value,
         "--n", ",".join(map(str, grid)), *extra, "--format", fmt])
    spec = cli._make_spec(args)
    prefix = SigmaPrefix(spec, values, cum)
    expected = [float(cum[n - 1]) ** -0.5 for n in grid]
    got = width(prefix, emb, kind, grid, p=args.p)
    assert [w.lower for w in got] == expected
    exact = is_exact(emb, kind)
    uppers = expected if exact else [float(values[n - 1]) for n in grid]
    assert [w.upper for w in got] == uppers
    rows = [[n, lo, up, exact] for n, lo, up in zip(grid, expected, uppers)]
    columns = ["n", "lower", "upper", "exact"]
    if fmt == "csv":
        text = "".join(f"{n},{lo:.17g},{up:.17g},{str(ex).lower()}\n"
                       for n, lo, up, ex in rows)
        expected_out = ",".join(columns) + "\n" + text
    else:
        expected_out = json.dumps({"command": "width", "columns": columns,
                                   "rows": rows}, indent=2) + "\n"
    out = io.StringIO()
    with mock.patch.object(cli, "sigma_prefix", lambda spec, n: prefix), \
            contextlib.redirect_stdout(out):
        assert cli.main(["width", *weight, "--embedding", emb.value,
                         "--kind", kind.value, "--n", ",".join(map(str, grid)),
                         *extra, "--format", fmt]) == 0
    assert out.getvalue() == expected_out

"""Fixed-seed property checks of the rearrangement, the threshold count and
the width formulas, over all five weight families in d = 1..3.

The ranges are bounded only by the cost of the brute-force box: r < 1 in
d = 3 needs a box of 3e7 points at N = 3000, and h1-ratio in d = 3 with s
near 1 more than the 2e8 cap (criterion 02 draws its h1 specs the same way).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import (
    Embedding,
    Family,
    PrefixTooShortError,
    WeightSpec,
    WidthKind,
    count_leq,
    sigma_prefix,
    sup_over_h,
    width,
)
from conftest import oracle_prefix

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)
# every family is drawn: a derandomized run of a few dozen examples can
# otherwise miss one entirely
_FAMILIES = pytest.mark.parametrize("family", list(Family),
                                    ids=lambda f: f.value)


@st.composite
def specs(draw, family):
    d = draw(st.integers(1, 3))
    if family is Family.H1_RATIO:
        s = draw(st.floats(1.2 if d < 3 else 2.0, 4.0))
    else:
        s = draw(st.floats(0.5, 4.0))
    r = None
    if family in (Family.MIXED_SR, Family.ISOTROPIC_SR):
        r = draw(st.floats(0.5 if d < 3 else 1.0, 4.0))
    return WeightSpec(family, s=s, d=d, r=r)


# the cmix-to-l2 norm: mixed-sr with integer s = m and r = 2m
cmix_specs = st.builds(
    lambda m, d: WeightSpec(Family.MIXED_SR, s=m, d=d, r=2 * m),
    st.integers(1, 3), st.integers(1, 3),
)


@_FAMILIES
@_SETTINGS
@given(data=st.data(), n_max=st.integers(1, 3000))
def test_prefix_matches_box_oracle(family, data, n_max):
    spec = data.draw(specs(family), label="spec")
    fast = sigma_prefix(spec, n_max)
    bf = oracle_prefix(spec, n_max)
    # criterion 02's tolerance: the oracle runs through the log domain
    np.testing.assert_allclose(bf.values, fast.values, rtol=1e-12, atol=0)
    # the SigmaPrefix invariants the sup certificate relies on
    assert np.all(np.diff(fast.values) <= 0)
    assert np.all(np.diff(fast.cum_inv_sq) > 0)


@_FAMILIES
@_SETTINGS
@given(data=st.data(), n_max=st.integers(1, 3000))
def test_count_leq_matches_prefix_ties(family, data, n_max):
    spec = data.draw(specs(family), label="spec")
    v = np.asarray(sigma_prefix(spec, n_max).values)
    n = data.draw(st.integers(1, n_max), label="n")
    count = count_leq(spec, 1.0 / v[n - 1])
    # count_leq admits weights up to t (1 + 1e-12); the same band on sigma
    block_end = int(np.sum(v >= v[n - 1] * (1 - 1e-12)))
    assert count >= max(n, block_end)
    if block_end < n_max:  # the tie block of sigma_n ends inside the prefix
        assert count == block_end


def _check_widths(prefix, n):
    spec = prefix.spec
    sig = prefix.sigma(n)
    l2 = {k: width(prefix, Embedding.A_TO_L2, k, [n])[0]
          for k in WidthKind}
    assert all(w.exact for w in l2.values())
    v = l2[WidthKind.BERNSTEIN].value
    u = l2[WidthKind.APPROXIMATION].value
    assert l2[WidthKind.WEYL].value == v
    assert l2[WidthKind.KOLMOGOROV].value == u
    assert v <= u <= sig
    # the sup certificate stops early; a scan of the whole prefix agrees
    S = np.asarray(prefix.cum_inv_sq)[n - 1:]
    assert u == math.sqrt(np.max(np.arange(1, len(S) + 1) / S))
    for kind in WidthKind:
        # sup-norm and L_p: [same-kind L_2 value, sigma_n]
        for emb, p in ((Embedding.A_TO_LINF, None), (Embedding.A_TO_LP, 3.0)):
            w = width(prefix, emb, kind, [n], p=p)[0]
            assert (w.lower, w.upper, w.exact) == (l2[kind].value, sig, False)
        for emb in (Embedding.A_TO_A, Embedding.F_TO_L2):
            w = width(prefix, emb, kind, [n])[0]
            assert (w.lower, w.upper, w.exact) == (sig, sig, True)
        if spec.family is Family.H1_RATIO:
            w = width(prefix, Embedding.AMIX_TO_H1, kind, [n])[0]
            assert w == l2[kind]
            w = width(prefix, Embedding.HMIX_TO_H1, kind, [n])[0]
            assert (w.lower, w.upper, w.exact) == (sig, sig, True)
        if (spec.family is Family.MIXED_SR and spec.s.is_integer()
                and spec.r == 2 * spec.s):
            # cmix-to-l2: v exact, u in [sup formula, 2^(d/2) sigma_n]
            w = width(prefix, Embedding.CMIX_TO_L2, kind, [n])[0]
            if kind in (WidthKind.BERNSTEIN, WidthKind.WEYL):
                assert w == l2[kind]
            else:
                assert w.lower == u and not w.exact
                assert sig <= w.upper == 2.0 ** (spec.d / 2.0) * sig


@pytest.mark.parametrize("family", [*Family, "cmix"],
                         ids=lambda f: getattr(f, "value", f))
@_SETTINGS
@given(data=st.data(), n=st.integers(1, 2000))
def test_width_chain_and_brackets(family, data, n):
    strategy = cmix_specs if family == "cmix" else specs(family)
    spec = data.draw(strategy, label="spec")
    # grow the prefix the way the CLI does until the sup certificate fits
    size = max(64, 4 * n)
    while True:
        prefix = sigma_prefix(spec, size)
        try:
            _check_widths(prefix, n)
            return
        except PrefixTooShortError as exc:
            assert size < 1 << 20, f"no sup certificate for n={n} on {spec}"
            size = max(2 * size, exc.required)


@st.composite
def grids(draw, n_max):
    """Dense 1..m, sparse, unsorted with repeats, or a range that crosses
    the grid pass's 64-row blocks and the end of its 2048-wide window."""
    shape = draw(st.sampled_from(["dense", "sparse", "unsorted", "range"]))
    if shape == "dense":
        return list(range(1, draw(st.integers(1, min(n_max, 1500))) + 1))
    if shape == "range":
        lo = draw(st.integers(1, n_max))
        length = draw(st.integers(1, 300))
        return list(range(lo, min(lo + length, n_max + 1)))
    entries = st.integers(1, n_max)
    if shape == "sparse":
        return sorted(draw(st.sets(entries, min_size=1, max_size=8)))
    return draw(st.lists(entries, min_size=1, max_size=120))


def _outcome(compute):
    try:
        return "ok", compute()
    except PrefixTooShortError as exc:
        return "short", exc.required


@_FAMILIES
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data(), n_max=st.integers(1, 6000))
def test_grid_pass_equals_per_n_scan(family, data, n_max):
    spec = data.draw(specs(family), label="spec")
    prefix = sigma_prefix(spec, n_max)
    grid = data.draw(grids(n_max), label="grid")
    batch = _outcome(lambda: [
        w.lower for w in
        width(prefix, Embedding.A_TO_L2, WidthKind.APPROXIMATION, grid)
    ])
    single = _outcome(lambda: [sup_over_h(prefix, n)[0] for n in grid])
    assert batch == single

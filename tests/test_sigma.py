import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import (
    BoxTooSmallError,
    CumSumOverflowError,
    Family,
    WeightSpec,
    count_leq,
    iter_orbits,
    orbit_multiplicity,
    sigma_bruteforce,
    sigma_prefix,
)
from wienerwidths import sigma
from wienerwidths.sigma import _multiplicities, _neumaier
from conftest import full_box_bruteforce, heap_prefix, oracle_prefix


def test_prefix_mixed_inf_d1():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 7)
    expect = [1.0, 1.0, 1.0, 0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0]
    assert list(p.values) == expect


def test_prefix_mixed_inf_d2():
    spec = WeightSpec(Family.MIXED_INF, s=2.0, d=2)
    p = sigma_prefix(spec, 10)
    assert p.n_max == 10
    assert p.values[9] == 0.25  # tenth-smallest weight is 2^s


def test_prefix_h1_d1():
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=1)
    p = sigma_prefix(spec, 5)
    expect = [1.0, 2 ** -0.5, 2 ** -0.5, 5 ** -0.5, 5 ** -0.5]
    np.testing.assert_allclose(p.values, expect, rtol=1e-15)


def test_prefix_mixed_inf_d1_closed_form():
    # d=1: sigma_1..3 = 1, then sigma_{2m} = sigma_{2m+1} = m^{-s}
    spec = WeightSpec(Family.MIXED_INF, s=1.5, d=1)
    p = sigma_prefix(spec, 100001)
    v = p.values
    assert v[0] == v[1] == v[2] == 1.0
    for m in (2, 3, 17, 1000, 50000):
        expect = 1.0 / float(m) ** 1.5  # emitted as 1/omega exactly
        assert v[2 * m - 1] == expect
        assert v[2 * m] == expect


def test_prefix_nonincreasing_and_cum():
    for spec in [
        WeightSpec(Family.MIXED_SR, s=1.5, d=3, r=2.0),
        WeightSpec(Family.ISOTROPIC_INF, s=1.0, d=2),
        WeightSpec(Family.H1_RATIO, s=3.0, d=2),
    ]:
        p = sigma_prefix(spec, 2000)
        v = np.asarray(p.values)
        assert np.all(np.diff(v) <= 0)
        assert v[0] == 1.0
        c = np.asarray(p.cum_inv_sq)
        assert np.all(np.diff(c) > 0)
        # compensated cumulative sums stay within float rounding of a
        # straight recomputation at this size
        np.testing.assert_allclose(c, np.cumsum(1.0 / v ** 2), rtol=1e-12)


def test_prefix_determinism():
    spec = WeightSpec(Family.MIXED_SR, s=2.0, d=3, r=1.0)
    a = sigma_prefix(spec, 5000)
    b = sigma_prefix(spec, 5000)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.cum_inv_sq, b.cum_inv_sq)
    # a longer prefix extends, never rewrites, a shorter one
    c = sigma_prefix(spec, 7000)
    assert np.array_equal(np.asarray(c.values)[:5000], a.values)


def test_orbit_multiplicity_bruteforce():
    # multiplicity = number of signed permutations, checked exhaustively,
    # for the scalar reference and the array form the enumeration uses
    for d in (1, 2, 3, 4):
        seen = {}
        for k in itertools.product(range(-4, 5), repeat=d):
            rep = tuple(sorted(map(abs, k), reverse=True))
            seen[rep] = seen.get(rep, 0) + 1
        reps = sorted(seen)
        vectorized = _multiplicities(np.array(reps, dtype=np.int64))
        for rep, mult in zip(reps, vectorized.tolist()):
            assert orbit_multiplicity(rep) == seen[rep] == mult


_IDENTITY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=25)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@_IDENTITY
@given(data=st.data(), d=st.integers(1, 4), n_max=st.integers(1, 20_000))
def test_prefix_bit_identical_to_heap(family, data, d, n_max):
    # integer and half-integer s tie whole classes of mixed-inf and
    # isotropic-inf orbits; r = 1 and 3/2 make mixed-sr clamp often
    if family is Family.H1_RATIO:
        s = data.draw(st.sampled_from([1.25, 1.5, 15 / 8, 2.0, 2.5, 3.0]))
    else:
        s = data.draw(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 7 / 4]))
    r = None
    if family in (Family.MIXED_SR, Family.ISOTROPIC_SR):
        r = data.draw(st.sampled_from([1.0, 1.5, 2.0]))
    spec = WeightSpec(family, s=s, d=d, r=r)
    fast = sigma_prefix(spec, n_max)
    ref = heap_prefix(spec, n_max)
    assert fast.values.tobytes() == ref.values.tobytes()
    assert fast.cum_inv_sq.tobytes() == ref.cum_inv_sq.tobytes()


def _clamps(spec, n_max):
    """How often the reference clamps 1/evaluate to the value before it."""
    fired, filled, prev = 0, 0, math.inf
    for _, rep in iter_orbits(spec):
        v = 1.0 / spec.evaluate(rep)
        fired += v > prev
        prev = min(v, prev)
        filled += orbit_multiplicity(rep)
        if filled >= n_max:
            return fired


@pytest.mark.parametrize("spec, n_max", [
    # cmix-to-l2 with m = 1
    (WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0), 30_000),
    # every orbit of largest coordinate m weighs m^s: whole shells tie
    (WeightSpec(Family.ISOTROPIC_INF, s=2.0, d=3), 30_000),
    # the clamp first fires at the orbit (3, 3), n = 109
    (WeightSpec(Family.MIXED_SR, s=3.0, d=2, r=2.0), 5_000),
    # nearly flat along the axes: the layer of first coordinates is wider
    # than the last layer, and bands must still be found
    (WeightSpec(Family.H1_RATIO, s=1.0987327173636765, d=3), 68_494),
    # nearly flat: the rounded key plateaus or climbs about an ulp an orbit,
    # and the bracketing slack spans hundreds of orbits
    (WeightSpec(Family.H1_RATIO, s=1 + 1e-12, d=1), 10_000),
    (WeightSpec(Family.H1_RATIO, s=1 + 1e-12, d=2), 10_000),
    (WeightSpec(Family.H1_RATIO, s=1 + 1e-15, d=2), 10_000),
    (WeightSpec(Family.MIXED_SR, s=1e-12, d=1, r=1e-12), 10_000),
    (WeightSpec(Family.MIXED_SR, s=1e-12, d=2, r=1e-12), 10_000),
    (WeightSpec(Family.ISOTROPIC_SR, s=1e-12, d=2, r=1e-12), 10_000),
    # isotropic-sr rows with two nonzero coordinates come from tables,
    # rows with three or more from the scalar formula
    (WeightSpec(Family.ISOTROPIC_SR, s=1.5, d=2, r=2.0), 20_000),
    (WeightSpec(Family.ISOTROPIC_SR, s=0.75, d=2, r=0.5), 20_000),
    (WeightSpec(Family.ISOTROPIC_SR, s=2.5, d=3, r=0.75), 20_000),
    (WeightSpec(Family.ISOTROPIC_SR, s=1.0, d=3, r=3.0), 20_000),
    (WeightSpec(Family.ISOTROPIC_SR, s=1.5, d=4, r=0.5), 20_000),
    (WeightSpec(Family.ISOTROPIC_SR, s=3.0, d=4, r=1.5), 20_000),
])
def test_prefix_bit_identical_fixed(spec, n_max):
    if spec.r == 2.0 and spec.s == 3.0:
        assert _clamps(spec, n_max) > 0
    fast = sigma_prefix(spec, n_max)
    ref = heap_prefix(spec, n_max)
    assert fast.values.tobytes() == ref.values.tobytes()
    assert fast.cum_inv_sq.tobytes() == ref.cum_inv_sq.tobytes()


def test_refused_trials_grow_no_table():
    # a trial band whose first layer passes its limit is refused before the
    # tables are filled to its first coordinate: isotropic-sr at s = 33/32
    # needs about 500 entries for 24,000 terms, where its refused trials
    # once filled each table to 3,906 full scalar evaluations
    spec = WeightSpec(Family.ISOTROPIC_SR, s=33 / 32, d=2, r=2.0)
    fast = sigma_prefix(spec, 24_000)
    ref = heap_prefix(spec, 24_000)
    sizes = {name: len(t) for name, t in fast._walk.arrays._tables.items()}
    assert max(sizes.values()) < 1_000, sizes
    assert fast.values.tobytes() == ref.values.tobytes()
    assert fast.cum_inv_sq.tobytes() == ref.cum_inv_sq.tobytes()


def _taken(prefix, k):
    """The k terms after a prefix, from a copy of its walk."""
    values, cum = np.empty(k), np.empty(k)
    prefix.resume().take(values, cum, 0, k)
    return values, cum


@st.composite
def _resume_specs(draw, kind):
    if kind == "cmix":
        m = draw(st.integers(1, 3))
        return WeightSpec(Family.MIXED_SR, s=m, d=draw(st.integers(1, 3)), r=2 * m)
    if kind == "near-flat":
        return draw(st.sampled_from([
            WeightSpec(Family.H1_RATIO, s=1 + 1e-12, d=1),
            WeightSpec(Family.H1_RATIO, s=1 + 1e-12, d=2),
            WeightSpec(Family.H1_RATIO, s=1 + 1e-15, d=2),
            WeightSpec(Family.H1_RATIO, s=1.0987327173636765, d=3),
        ]))
    s = draw(st.sampled_from([1.25, 1.5, 2.0, 3.0] if kind is Family.H1_RATIO
                             else [0.5, 1.0, 1.5, 2.0, 7 / 4]))
    r = None
    if kind in (Family.MIXED_SR, Family.ISOTROPIC_SR):
        r = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return WeightSpec(kind, s=s, d=draw(st.integers(1, 3)), r=r)


@pytest.mark.parametrize("kind", [*Family, "cmix", "near-flat"],
                         ids=lambda f: getattr(f, "value", f))
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(data=st.data(), a=st.integers(1, 3000), b=st.integers(1, 3000),
       c=st.integers(1, 3000))
def test_resumed_prefix_bit_identical_to_heap(kind, data, a, b, c):
    # a terms, then b more and c more from one walk, and c more again from
    # the prefix of a terms, which the first walk left as it was
    spec = data.draw(_resume_specs(kind), label="spec")
    ref = heap_prefix(spec, a + b + c)
    head = sigma_prefix(spec, a)
    walk = head.resume()
    values, cum = np.empty(b + c), np.empty(b + c)
    walk.take(values, cum, 0, b)
    walk.take(values, cum, b, c)
    again = _taken(head, c)
    for got, want in [
        (head.values, ref.values[:a]), (head.cum_inv_sq, ref.cum_inv_sq[:a]),
        (values, ref.values[a:]), (cum, ref.cum_inv_sq[a:]),
        (again[0], ref.values[a:a + c]), (again[1], ref.cum_inv_sq[a:a + c]),
    ]:
        assert got.tobytes() == want.tobytes()


def test_resumed_prefix_finds_the_orbits_past_its_bound():
    # the first coordinate of the prefix of 238 terms is bounded by
    # 238 // 2 + 1 = 120, which cuts the band it stops in; the next terms
    # come from that band found again under the bound of 17,527 terms, or
    # orbits from index 1,245 on are lost
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=2)
    ref = heap_prefix(spec, 17_527)
    values, cum = _taken(sigma_prefix(spec, 238), 17_527 - 238)
    assert values.tobytes() == ref.values[238:].tobytes()
    assert cum.tobytes() == ref.cum_inv_sq[238:].tobytes()


@pytest.mark.parametrize("d, n_max", [(1, 11), (2, 61)])
def test_overflow_refused_at_the_term_that_overflows(d, n_max):
    # sigma^-2 = omega^2 leaves the double range at term n_max + 1, inside
    # a band that reaches further: a prefix that stops before it is no
    # refusal
    spec = WeightSpec(Family.MIXED_INF, s=200.0, d=d)
    assert sigma_prefix(spec, n_max).n_max == n_max
    with pytest.raises(CumSumOverflowError):
        sigma_prefix(spec, n_max + 1)


@pytest.mark.parametrize("d, n_max", [(1, 11), (2, 61)])
def test_overflow_refused_at_the_term_that_overflows_resumed(d, n_max):
    spec = WeightSpec(Family.MIXED_INF, s=200.0, d=d)
    head = sigma_prefix(spec, 5)
    walk = head.resume()
    walk.take(np.empty(n_max - 5), np.empty(n_max - 5), 0, n_max - 5)
    with pytest.raises(CumSumOverflowError):
        walk.take(np.empty(1), np.empty(1), 0, 1)
    with pytest.raises(CumSumOverflowError):
        _taken(head, n_max - 4)


def test_iter_orbits_nondecreasing_and_complete():
    spec = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0)
    reps = []
    last = -1.0
    for log_weight, rep in itertools.islice(iter_orbits(spec), 40):
        assert log_weight >= last - 1e-12
        last = log_weight
        reps.append(rep)
    assert len(set(reps)) == len(reps)
    # every canonical rep in a small ball appears before heavier ones outside
    got = set(reps)
    for k in itertools.product(range(3), repeat=2):
        rep = tuple(sorted(k, reverse=True))
        if spec.evaluate(rep) <= spec.evaluate(reps[-1]):
            assert rep in got


def test_count_leq_examples():
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=2)
    assert count_leq(spec, math.sqrt(2.0)) == 5
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    assert count_leq(spec, 1.0) == 3
    assert count_leq(spec, 0.5) == 0
    with pytest.raises(ValueError):
        count_leq(spec, 0.0)


def test_count_leq_matches_grid_scan():
    rng = random.Random(3)
    for spec in [
        WeightSpec(Family.MIXED_INF, s=1.0, d=2),
        WeightSpec(Family.MIXED_SR, s=0.5, d=3, r=1.0),
        WeightSpec(Family.ISOTROPIC_SR, s=2.0, d=2, r=2.0),
        WeightSpec(Family.H1_RATIO, s=2.0, d=2),
    ]:
        R = 12
        ws = sorted(
            spec.evaluate(k)
            for k in itertools.product(range(-R, R + 1), repeat=spec.d)
        )
        # outside the box every weight is at least the first axis weight
        # beyond it, so thresholds below that make the scan exhaustive
        cap = spec.evaluate((R + 1,) + (0,) * (spec.d - 1))
        cand = [w for w in ws if w < cap * (1 - 1e-9)]
        for _ in range(8):
            t = rng.choice(cand)
            brute = sum(1 for w in ws if w <= t * (1 + 1e-12))
            assert count_leq(spec, t) == brute


def test_count_leq_consistent_with_prefix():
    # number of prefix entries >= 1/t equals the threshold count at t
    for spec in [
        WeightSpec(Family.MIXED_INF, s=2.0, d=2),
        WeightSpec(Family.H1_RATIO, s=2.0, d=3),
    ]:
        p = sigma_prefix(spec, 600)
        v = np.asarray(p.values)
        for n in (1, 10, 99, 400):
            t = 1.0 / v[n - 1]
            assert count_leq(spec, t) == int(np.sum(v >= v[n - 1] * (1 - 1e-12)))


def test_bruteforce_example_radius():
    spec = WeightSpec(Family.MIXED_SR, s=1.5, d=3, r=2.0)
    # a radius-64 box misses genuine members out to (85,0,0); the shell
    # certificate must refuse rather than return a silently wrong prefix
    with pytest.raises(BoxTooSmallError):
        sigma_bruteforce(spec, 10000, 64)
    fast = sigma_prefix(spec, 10000)
    bf = sigma_bruteforce(spec, 10000, 86)
    np.testing.assert_allclose(bf.values, fast.values, rtol=1e-12)
    np.testing.assert_allclose(bf.cum_inv_sq, fast.cum_inv_sq, rtol=1e-12)


@st.composite
def _oracle_cases(draw):
    """A spec, a radius and an n_max around the box size: integer s ties
    whole classes, and a near-flat h1-ratio ties by rounding."""
    family = draw(st.sampled_from(list(Family)))
    d = draw(st.integers(1, 4))
    if family is Family.H1_RATIO:
        s = draw(st.sampled_from([1 + 1e-12, 1.5, 2.0, 3.0]))
    else:
        s = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    r = None
    if family in (Family.MIXED_SR, Family.ISOTROPIC_SR):
        r = draw(st.sampled_from([1.0, 1.5, 2.0]))
    spec = WeightSpec(family, s=s, d=d, r=r)
    radius = draw(st.integers(1, {1: 400, 2: 40, 3: 12, 4: 6}[d]))
    size = (2 * radius + 1) ** d
    n_max = draw(st.integers(1, size // 2) | st.integers(1, size + 2))
    return spec, radius, n_max


def _answer(oracle, spec, n_max, radius):
    """The oracle's values and sums as bytes, or its refusal."""
    try:
        p = oracle(spec, n_max, radius)
    except (BoxTooSmallError, CumSumOverflowError) as exc:
        return type(exc), str(exc)
    return p.values.tobytes(), p.cum_inv_sq.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=_oracle_cases(), slab=st.integers(1, 5000))
def test_bruteforce_slabs_equal_the_full_box(case, slab):
    # slabs of slab points or n_max, at least one face: from one first
    # coordinate at a time to the whole box
    spec, radius, n_max = case
    with mock.patch.object(sigma, "_SLAB", slab):
        got = _answer(sigma_bruteforce, spec, n_max, radius)
    assert got == _answer(full_box_bruteforce, spec, n_max, radius)


def test_bruteforce_refusals_equal_the_full_box():
    spec = WeightSpec(Family.MIXED_SR, s=1.5, d=3, r=2.0)
    # too few points, and a shell that reaches the prefix
    for n_max, radius in ((344, 3), (10000, 64)):
        got = _answer(sigma_bruteforce, spec, n_max, radius)
        assert got[0] is BoxTooSmallError
        assert got == _answer(full_box_bruteforce, spec, n_max, radius)
    for oracle in (sigma_bruteforce, full_box_bruteforce):
        with pytest.raises(ValueError, match="box too large"):
            oracle(spec, 10, 300)


def _neumaier_loop(total, comp, blocks):
    """The compensated sum a block at a time: the totals and compensations
    before each block and after the last."""
    totals, comps = [total], [comp]
    for block in blocks:
        t = total + block
        if total >= block:
            comp += (total - t) + block
        else:
            comp += (block - t) + total
        total = t
        totals.append(total)
        comps.append(comp)
    return totals, comps


_BLOCKS = (st.floats(0, 1e-300) | st.floats(0, 1) | st.floats(0, 1e20)
           | st.floats(0, 1e308) | st.just(math.inf))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(total=_BLOCKS, comp=st.floats(-1e20, 1e20),
       blocks=st.lists(_BLOCKS, max_size=60))
def test_compensated_sum_equals_the_loop(total, comp, blocks):
    # mixed magnitudes, and sums that overflow to inf and then to nan errors
    with np.errstate(over="ignore", invalid="ignore"):
        totals, comps = _neumaier(total, comp, np.array(blocks, dtype=float))
    ref_totals, ref_comps = _neumaier_loop(total, comp, blocks)
    assert totals.tobytes() == np.array(ref_totals).tobytes()
    assert comps.tobytes() == np.array(ref_comps).tobytes()


def test_bruteforce_matches_fast_path_random(rng):
    families = [
        (Family.MIXED_SR, (0.5, 4.0), (1.0, 2.0)),
        (Family.MIXED_INF, (0.5, 4.0), (None,)),
        (Family.ISOTROPIC_SR, (0.5, 4.0), (1.0, 2.0)),
        (Family.ISOTROPIC_INF, (0.5, 4.0), (None,)),
        (Family.H1_RATIO, (2.0, 4.0), (None,)),
    ]
    for family, (s_lo, s_hi), rs in families:
        for _ in range(2):
            d = rng.randint(1, 3)
            if family is Family.H1_RATIO and d == 3:
                d = 2  # keep the exhaustive box in memory
            s = rng.uniform(s_lo, s_hi)
            r = rng.choice(rs)
            spec = WeightSpec(family, s=s, d=d, r=r)
            fast = sigma_prefix(spec, 1500)
            bf = oracle_prefix(spec, 1500)
            np.testing.assert_allclose(bf.values, fast.values, rtol=1e-12)


def test_overflow_guard():
    specs = [WeightSpec(Family.MIXED_INF, s=s, d=1) for s in (400.0, 500.0)]
    # omega(e_1) = 2^(s/r) = 2^1e12: the keys climb by about log(k) / 2 on
    # a base of 7e11
    specs += [WeightSpec(Family.MIXED_SR, s=1.0, d=d, r=1e-12) for d in (1, 2)]
    for spec in specs:
        for prefix in (sigma_prefix, heap_prefix):
            with pytest.raises(CumSumOverflowError):
                prefix(spec, 20)


def test_bad_arguments():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    with pytest.raises(ValueError):
        sigma_prefix(spec, 0)
    with pytest.raises(ValueError):
        sigma_bruteforce(spec, 10, 0)

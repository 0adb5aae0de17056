import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

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
from conftest import oracle_prefix


def test_prefix_mixed_inf_d1():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 7)
    expect = [1.0, 1.0, 1.0, 0.5, 0.5, 1.0 / 3.0, 1.0 / 3.0]
    assert list(p.values) == expect


def test_prefix_mixed_inf_d2():
    spec = WeightSpec(Family.MIXED_INF, s=2.0, d=2)
    p = sigma_prefix(spec, 10)
    assert p.sigma(10) == 0.25  # tenth-smallest weight is 2^s


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


def test_sigma_accessor_bounds():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    p = sigma_prefix(spec, 10)
    assert p.n_max == 10
    assert p.sigma(1) == 1.0
    with pytest.raises(ValueError):
        p.sigma(0)
    with pytest.raises(ValueError):
        p.sigma(11)


def test_orbit_multiplicity_bruteforce():
    # multiplicity = number of signed permutations, checked exhaustively
    for d in (1, 2, 3, 4):
        seen = {}
        for k in itertools.product(range(-3, 4), repeat=d):
            rep = tuple(sorted(map(abs, k), reverse=True))
            seen[rep] = seen.get(rep, 0) + 1
        for rep, cnt in seen.items():
            assert orbit_multiplicity(rep) == cnt


def test_iter_orbits_nondecreasing_and_complete():
    spec = WeightSpec(Family.MIXED_SR, s=1.0, d=2, r=2.0)
    reps = []
    last = -1.0
    for entry in itertools.islice(iter_orbits(spec), 40):
        assert entry.log_weight >= last - 1e-12
        last = entry.log_weight
        reps.append(entry.rep)
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
    spec = WeightSpec(Family.MIXED_INF, s=500.0, d=1)
    with pytest.raises(CumSumOverflowError):
        sigma_prefix(spec, 20)


def test_bad_arguments():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=1)
    with pytest.raises(ValueError):
        sigma_prefix(spec, 0)
    with pytest.raises(ValueError):
        sigma_bruteforce(spec, 10, 0)

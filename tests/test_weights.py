import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wienerwidths import Family, WeightSpec, log_weight_box
from wienerwidths.weights import RepArrays


def test_mixed_sr_values():
    spec = WeightSpec(Family.MIXED_SR, s=2.0, d=2, r=2.0)
    assert spec.evaluate((0, 0)) == 1.0
    assert spec.evaluate((1, 0)) == 2.0
    assert spec.evaluate((1, 1)) == 4.0
    assert spec.evaluate((2, 1)) == 10.0
    np.testing.assert_allclose(spec.evaluate((-2, 1)), 10.0, rtol=0)


def test_mixed_inf_values():
    spec = WeightSpec(Family.MIXED_INF, s=1.5, d=3)
    assert spec.evaluate((0, 0, 0)) == 1.0
    assert spec.evaluate((1, -1, 1)) == 1.0
    np.testing.assert_allclose(spec.evaluate((2, 0, 3)), 6.0 ** 1.5, rtol=1e-15)


def test_isotropic_values():
    sr = WeightSpec(Family.ISOTROPIC_SR, s=2.0, d=2, r=1.0)
    assert sr.evaluate((1, 1)) == 9.0  # (1+2)^2
    inf = WeightSpec(Family.ISOTROPIC_INF, s=3.0, d=2)
    assert inf.evaluate((0, 0)) == 1.0
    assert inf.evaluate((2, -5)) == 125.0


def test_h1_ratio_values():
    spec = WeightSpec(Family.H1_RATIO, s=2.0, d=2)
    # (1+1)(1+4)/sqrt(1+5)
    np.testing.assert_allclose(spec.evaluate((1, 2)), 10.0 / math.sqrt(6.0), rtol=1e-15)
    np.testing.assert_allclose(spec.evaluate((1, 0)), 2.0 / math.sqrt(2.0), rtol=1e-15)
    assert spec.evaluate((0, 0)) == 1.0


def test_weight_at_origin_is_one():
    for spec in _sample_specs():
        assert spec.evaluate((0,) * spec.d) == 1.0
        assert spec.log_evaluate((0,) * spec.d) == 0.0


def test_sign_and_permutation_invariance():
    rng = random.Random(7)
    for spec in _sample_specs():
        for _ in range(40):
            k = [rng.randint(-9, 9) for _ in range(spec.d)]
            base = spec.log_evaluate(k)
            flipped = [-v for v in k]
            assert spec.log_evaluate(flipped) == base
            perm = list(k)
            rng.shuffle(perm)
            # log paths sum with fsum, so permutations agree bitwise
            assert spec.log_evaluate(perm) == base
            assert spec.evaluate(perm) == spec.evaluate(k)


def test_coordinatewise_monotonicity():
    rng = random.Random(11)
    for spec in _sample_specs():
        for _ in range(60):
            k = [rng.randint(0, 8) for _ in range(spec.d)]
            j = rng.randrange(spec.d)
            bigger = list(k)
            bigger[j] += 1
            assert spec.log_evaluate(bigger) >= spec.log_evaluate(k) - 1e-12


def test_log_matches_direct():
    rng = random.Random(13)
    for spec in _sample_specs():
        for _ in range(40):
            k = [rng.randint(-30, 30) for _ in range(spec.d)]
            w = spec.evaluate(k)
            np.testing.assert_allclose(math.log(w), spec.log_evaluate(k),
                                       rtol=0, atol=1e-12 * (1 + abs(math.log(w))))


def test_mixed_inf_integer_weights_exact():
    # integer-valued weights come out exactly, not through exp(log)
    spec = WeightSpec(Family.MIXED_INF, s=2.0, d=2)
    for k in [(3, 4), (7, 1), (12, 12), (100, 2)]:
        expected = (max(1, abs(k[0])) * max(1, abs(k[1]))) ** 2
        assert spec.evaluate(k) == float(expected)


def test_large_arguments_do_not_overflow():
    spec = WeightSpec(Family.MIXED_SR, s=4.0, d=3, r=2.0)
    k = (10 ** 60, 10 ** 60, 10 ** 60)
    assert spec.evaluate(k) == math.inf
    assert spec.log_evaluate(k) > 1e3


def test_axis_extent():
    spec = WeightSpec(Family.MIXED_INF, s=1.0, d=2)
    # omega(m, 0) = max(1, m), so extent at log 10.5 is 10 and both
    # k = 0 and k = 1 sit at weight 1
    assert spec.axis_extent(math.log(10.5)) == 10
    assert spec.axis_extent(math.log(1.0)) == 1
    h1 = WeightSpec(Family.H1_RATIO, s=2.0, d=1)
    # omega(m) = sqrt(1+m^2) along the axis
    t = math.log(math.sqrt(1 + 7 ** 2))
    assert h1.axis_extent(t) == 7
    assert h1.axis_extent(t - 1e-9) == 6


def test_log_weight_box_matches_pointwise():
    rng = random.Random(17)
    for spec in _sample_specs():
        if spec.d > 3:
            continue
        box = log_weight_box(spec, 4)
        for _ in range(25):
            k = [rng.randint(-4, 4) for _ in range(spec.d)]
            idx = tuple(v + 4 for v in k)
            np.testing.assert_allclose(box[idx], spec.log_evaluate(k),
                                       rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("spec", [
    *(WeightSpec(family, s=1.5, d=d, r=r)
      for family, r in ((Family.MIXED_SR, 2.0), (Family.MIXED_INF, None),
                        (Family.ISOTROPIC_SR, 1.5), (Family.ISOTROPIC_INF, None),
                        (Family.H1_RATIO, None))
      for d in (1, 2, 3, 4)),
    WeightSpec(Family.H1_RATIO, s=1 + 1e-12, d=3),
], ids=lambda spec: f"{spec.family.value}-d{spec.d}-s{spec.s}")
def test_log_weight_box_slabs_are_its_rows(spec):
    # the box oracle evaluates slabs of first coordinates: each must equal
    # its rows of the whole box bit for bit
    R = {1: 300, 2: 40, 3: 12, 4: 5}[spec.d]
    box = log_weight_box(spec, R)
    for width in (1, 3, 7, 64, 2 * R + 1):
        for lo in range(-R, R + 1, width):
            hi = min(lo + width, R + 1)
            slab = log_weight_box(spec, R, range(lo, hi))
            assert slab.shape == (hi - lo,) + box.shape[1:]
            assert slab.tobytes() == box[lo + R:hi + R].tobytes(), (width, lo)


def test_validation_errors():
    with pytest.raises(ValueError, match="d must be a positive integer"):
        WeightSpec(Family.MIXED_INF, s=1.0, d=0)
    with pytest.raises(ValueError, match="s must be positive"):
        WeightSpec(Family.MIXED_INF, s=-1.0, d=1)
    with pytest.raises(ValueError, match="requires s>1"):
        WeightSpec(Family.H1_RATIO, s=1.0, d=2)
    with pytest.raises(ValueError, match="requires r"):
        WeightSpec(Family.MIXED_SR, s=1.0, d=1)
    with pytest.raises(ValueError, match="-inf family"):
        WeightSpec(Family.MIXED_SR, s=1.0, d=1, r=math.inf)
    with pytest.raises(ValueError, match="wrong arity"):
        WeightSpec(Family.MIXED_INF, s=1.0, d=2).evaluate((1, 2, 3))


def _sample_specs():
    return [
        WeightSpec(Family.MIXED_SR, s=1.5, d=2, r=2.0),
        WeightSpec(Family.MIXED_SR, s=0.5, d=3, r=1.0),
        WeightSpec(Family.MIXED_INF, s=1.0, d=1),
        WeightSpec(Family.MIXED_INF, s=2.0, d=4),
        WeightSpec(Family.ISOTROPIC_SR, s=2.0, d=2, r=2.0),
        WeightSpec(Family.ISOTROPIC_INF, s=1.5, d=3),
        WeightSpec(Family.H1_RATIO, s=2.0, d=2),
        WeightSpec(Family.H1_RATIO, s=1.5, d=3),
    ]


# zeros, so that rows of d >= 3 have two nonzero coordinates, and
# coordinates from the desk range to past 2^53, where the tables leave the
# division a1/a0 to the scalar formula
_COORDS = (st.just(0) | st.integers(1, 40) | st.integers(1, 10**12)
           | st.integers(2**53 - 2, 2**62))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(d=st.integers(1, 4),
       r=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.05, 40),
       s=st.sampled_from([0.5, 1.0, 1.5, 2.0]) | st.floats(0.05, 2000),
       rows=st.lists(st.lists(_COORDS, min_size=4, max_size=4), min_size=1,
                     max_size=40),
       reserve=st.booleans())
# v^r overflows in the table (r = 26 at 1e12); v^r fits but the two-term sum
# overflows (1e12^25.6667 ~ 1e308); the outer pow overflows (s/r = 100);
# three nonzero coordinates; coordinates from 2^53 on (the first row's
# numpy quotient a1/a0 is an ulp off the exact one, and so is the key)
@example(d=2, r=26.0, s=1.0, rows=[[10**12, 10**12, 0, 0]], reserve=False)
@example(d=2, r=math.log(1e308) / math.log(1e12), s=1.0,
         rows=[[10**12, 10**12, 0, 0], [10**12, 1, 0, 0]], reserve=False)
@example(d=3, r=2.0, s=200.0, rows=[[10**12, 10**6, 0, 0], [5, 3, 0, 0]],
         reserve=True)
@example(d=4, r=0.5, s=1.5, rows=[[9, 4, 4, 1], [9, 4, 0, 0], [9, 0, 0, 0]],
         reserve=True)
@example(d=2, r=1.5, s=1.5,
         rows=[[11952312300023426, 11952312300023401, 0, 0],
               [2**53 - 1, 2**53 - 2, 0, 0]],
         reserve=False)
def test_isotropic_sr_rows_equal_the_scalar_formulas(d, r, s, rows, reserve):
    # rows with two nonzero coordinates come from tables, the others from
    # the scalar code; either way weights and log_weights are evaluate and
    # log_evaluate bit for bit, overflow fallbacks included
    spec = WeightSpec(Family.ISOTROPIC_SR, s=s, d=d, r=r)
    reps = np.array([sorted(row[:d], reverse=True) for row in rows],
                    dtype=np.int64)
    arrays = RepArrays(spec)
    if reserve:
        arrays.reserve(40)
    got_w = arrays.weights(reps)
    got_k = arrays.log_weights(reps)
    want_w = np.array([spec.evaluate(row) for row in reps.tolist()])
    want_k = np.array([spec.log_evaluate(row) for row in reps.tolist()])
    assert got_w.tobytes() == want_w.tobytes()
    assert got_k.tobytes() == want_k.tobytes()

import math
import random

import numpy as np
import pytest

from wienerwidths import Family, WeightSpec, log_weight_box


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

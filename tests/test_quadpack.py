"""The QUADPACK port behind ``aux_integral`` against scipy's ``quad``.

``asymptotics._qagse`` transcribes netlib's dqagse (with dqk21, dqpsrt and
dqelg) in the Fortran's operation order, and ``scipy.integrate.quad`` calls
that routine for a finite interval a < b.  So the two must agree bit for
bit: value, error estimate and the flag ier.  scipy is the oracle here and
nothing else: no command imports it.
"""
import math
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wienerwidths import asymptotics
from wienerwidths.asymptotics import IntegrationWarning, aux_integral

# quad's message for each flag, which full_output=1 returns in place of ier
_QUAD_MESSAGES = {
    1: "The maximum number of subdivisions",
    2: "The occurrence of roundoff error",
    3: "Extremely bad integrand behavior",
    4: "The algorithm does not converge",
    5: "The integral is probably divergent",
}


def _quad(f, a, b, epsabs, epsrel, limit):
    out = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
               full_output=1)
    if len(out) == 3:
        return out[0], out[1], 0
    ier = [k for k, head in _QUAD_MESSAGES.items() if out[3].startswith(head)]
    assert len(ier) == 1, out[3]
    return out[0], out[1], ier[0]


def _bits(x):
    return struct.pack("<d", x)


def _same(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=500):
    """The port's (value, abserr, ier) after asserting quad's, bit for bit."""
    got = asymptotics._qagse(f, a, b, epsabs, epsrel, limit)
    want = _quad(f, a, b, epsabs, epsrel, limit)
    assert (_bits(got[0]), _bits(got[1]), got[2]) == (
        _bits(want[0]), _bits(want[1]), want[2]), (got, want)
    return got


def _aux_integrand(s, beta, n):
    ln_n = math.log(n)
    return lambda y: y**s * (ln_n / math.log(y * n)) ** beta


@settings(max_examples=300, deadline=None)
@given(s=st.floats(1e-3, 20.0), beta=st.floats(0.0, 20.0),
       a=st.floats(1.01, 1e3), log10_n=st.floats(0.0, 300.0))
def test_matches_quad_on_aux_integrands(s, beta, a, log10_n):
    n = max(10.0 ** log10_n, a * 1.5)
    f = _aux_integrand(s, beta, n)
    try:
        _same(f, a / n, 1.0)
    except OverflowError:  # a float power leaves the range in both
        with pytest.raises(OverflowError):
            _quad(f, a / n, 1.0, 1e-12, 1e-12, 500)


# (singular at an endpoint or inside, a log singularity, a sharp peak,
# oscillation, noise, a jump, sin(1/x), an odd function that is 1 at the
# centre, spikes at dyadic points)
_FAMILIES = ["pow", "endpoint", "log", "peak", "osc", "noisy", "step",
             "sin1x", "xlog", "odd", "dyadic"]


def _generic(family, c, p, w, k):
    if family == "pow":
        return lambda x: abs(x - c) ** p if x != c else 0.0
    if family == "endpoint":
        return lambda x: abs(x) ** p if x else 0.0
    if family == "log":
        return lambda x: math.log(abs(x - c)) if x != c else 0.0
    if family == "peak":
        return lambda x: 1.0 / ((x - c) ** 2 + w * w)
    if family == "osc":
        return lambda x: math.sin(k * x) * math.exp(-x)
    if family == "noisy":
        return lambda x: x + 1e-9 * math.sin(1e7 * k * x)
    if family == "step":
        return lambda x: 1.0 if x < c else -1.0
    if family == "sin1x":
        return lambda x: math.sin(1.0 / x) if x else 0.0
    if family == "xlog":
        return lambda x: x**p * math.log(x) if x > 0 else 0.0
    if family == "odd":
        return lambda x: math.copysign(abs(x) ** p, x) if x else 1.0
    return _dyadic_spikes(int(k * 1e6))


def _dyadic_spikes(seed):
    """+-1 at the dyadic points of [0, 1] with denominator <= 64, by a hash
    of the seed, and 0 elsewhere: each interval's rule sees its centre
    alone, so areas cancel exactly."""
    def f(x):
        p, q = x.as_integer_ratio()
        if not 0 < x < 1 or q > 64:
            return 0.0
        return (-1.0, 0.0, 1.0)[(seed * 7919 + p * 1000003 + q) % 3]
    return f


_TOLERANCES = [(1e-12, 1e-12), (0.0, 1e-10), (1.49e-8, 1.49e-8), (1e-14, 0.0),
               (1e-3, 0.0)]


@settings(max_examples=400, deadline=None)
@given(family=st.sampled_from(_FAMILIES), c=st.floats(-1.0, 2.0),
       p=st.floats(-0.95, 3.0), w=st.floats(1e-6, 1.0),
       k=st.floats(1.0, 1e3), left=st.sampled_from([0.0, -1.0, 0.37]),
       length=st.sampled_from([1.0, 2.0, 0.3, 4.5]),
       tol=st.sampled_from(_TOLERANCES), limit=st.sampled_from([3, 7, 50, 500]))
def test_matches_quad_on_generic_integrands(family, c, p, w, k, left, length,
                                            tol, limit):
    f = _generic(family, c, p, w, k)
    a, b = left, left + length
    if family == "odd":
        a, b = -length, length
    elif family == "dyadic":
        a, b = 0.0, 1.0
    _same(f, a, b, *tol, limit)


@pytest.fixture
def qelg_calls(monkeypatch):
    """Counts the port's calls of dqelg, the epsilon table."""
    calls = []
    qelg = asymptotics._qelg

    def counted(*args):
        calls.append(args[0])
        return qelg(*args)

    monkeypatch.setattr(asymptotics, "_qelg", counted)
    return calls


@pytest.mark.parametrize("case", [
    # (integrand, a, b, epsabs, epsrel, limit, ier, extrapolates)
    (math.sqrt, 0.0, 1.0, 1e-12, 1e-12, 3, 1, False),
    (lambda x: x + 1e-9 * math.sin(1e7 * x), 0.0, 1.0, 1e-12, 1e-12, 500, 2,
     True),
    # odd, and 1 at the centre: both halves are exact and cancel
    (lambda x: math.copysign(1.0, x), -1.0, 1.0, 0.0, 1e-10, 500, 2, True),
    (lambda x: 1.0 / abs(x - 0.3), 0.0, 1.0, 1e-12, 1e-12, 500, 3, True),
    (lambda x: math.log(x) ** 2 / math.sqrt(x), 0.0, 1.0, 1e-14, 0.0, 500,
     4, True),
    (lambda x: x ** -1.5, 0.0, 1.0, 1e-12, 1e-12, 500, 5, True),
    (lambda x: math.log(abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-12, 1e-12, 500, 0,
     True),
], ids=["ier1-limit", "ier2-noisy", "ier2-odd", "ier3-pole", "ier4-table",
        "ier5-divergent", "ier0-log"])
def test_reaches_every_flag_and_the_epsilon_table(case, qelg_calls):
    f, a, b, epsabs, epsrel, limit, ier, extrapolates = case
    assert _same(f, a, b, epsabs, epsrel, limit)[2] == ier
    assert bool(qelg_calls) == extrapolates


def test_section_11_integrals_use_the_epsilon_table(qelg_calls):
    counts = []
    for n in (1e4, 1e6, 1e8):
        before = len(qelg_calls)
        _same(_aux_integrand(1.0, 1.0, n), 2.0 / n, 1.0)
        counts.append(len(qelg_calls) - before)
    assert all(counts), counts


def test_zero_integrand_takes_the_zero_error_exit():
    # every node reads 0, so the first rule's error is 0 and no bisection
    # follows; a spike between the nodes is missed the same way
    assert _same(lambda x: 0.0, 0.0, 1.0) == (0.0, 0.0, 0)
    assert _same(lambda x: 1e300 if x == 0.3 else 0.0, 0.0, 1.0) == (
        0.0, 0.0, 0)


def test_kronrod_error_capped_where_the_power_would_pass_one():
    # a spike at the centre: the Gauss rule misses it, so 200 abserr /
    # resasc >= 1 and dqk21's min(1, x**1.5) is taken as 1 (Python's x**1.5
    # raises OverflowError where C's pow gives inf); quad at limit 1 returns
    # the first rule as it is
    def spike(x):
        return 1.0 if x == 0.5 else 0.0

    result, abserr, resabs, resasc = asymptotics._qk21(spike, 0.0, 1.0)
    assert abserr == resasc > 0.0
    assert _same(spike, 0.0, 1.0, 1e-12, 1e-12, 1) == (result, abserr, 1)


def test_divergence_test_where_the_area_is_zero():
    # spikes at seven dyadic points: the areas cancel to exactly 0 just as
    # the extrapolation converges, so dqagse's test on divergence divides by
    # a zero area (C gives inf, Python raises ZeroDivisionError) and flags
    # ier 5
    points = {0.125: 1.0, 0.140625: 1.0, 0.15625: 1.0, 0.171875: -1.0,
              0.1875: -1.0, 0.25: -1.0, 0.5: 1.0}
    got = _same(lambda x: points.get(x, 0.0), 0.0, 1.0, 1e-3, 0.0, 20)
    assert got == (3.4694469519535888e-18, 1.3877787807814432e-17, 5)


def test_flagged_value_prints_with_a_warning():
    # QUADPACK flags ier 4 here, and the error estimate still meets 1e-10
    args = (0.5, 3.061779504742648, 10.165475012173426, 51878509090)
    with pytest.warns(IntegrationWarning, match="does not converge"):
        value = aux_integral(*args)
    assert value == 0.7288720015785739
    assert issubclass(IntegrationWarning, UserWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert quad(_aux_integrand(0.5, 3.061779504742648, 51878509090),
                    10.165475012173426 / 51878509090, 1.0, epsabs=1e-12,
                    epsrel=1e-12, limit=500)[0] == value


def test_tolerance_below_the_floor_is_refused_as_ier_6():
    # dqagse's input check: epsabs <= 0 and epsrel < max(50 eps, 5e-29)
    assert asymptotics._qagse(math.sqrt, 0.0, 1.0, 0.0, 1e-20, 50) == (
        0.0, 0.0, 6)
    with pytest.raises(ValueError, match="epsrel. must be greater"):
        quad(math.sqrt, 0.0, 1.0, epsabs=0.0, epsrel=1e-20, limit=50)

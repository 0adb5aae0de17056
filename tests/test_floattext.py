"""The cell kernels against Python's own text: floats against
``'%.17g' %`` and ``repr``, their byte cells decoded, and how often they
hand a cell back to Python; ints against ``'%d' %``, and bools."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wienerwidths import Family, _floattext
from wienerwidths._floattext import (
    Work,
    _decide,
    bool_cells,
    buffer,
    float_cells,
    int_cells,
)
from wienerwidths.sigma import sigma_prefix
from wienerwidths.weights import WeightSpec

_SPECS = ["%.17g", "%r"]


def _decoded(cells: np.ndarray) -> list[str]:
    """A kernel's cells as text: each row's bytes, NULs deleted."""
    rows = np.full((len(cells), cells.shape[1] + 1), ord("\n"), dtype=np.uint8)
    rows[:, :-1] = cells
    return rows.tobytes().replace(b"\0", b"").decode("ascii").split("\n")[:-1]


def _text(col, spec: str, block: int = 1 << 16) -> list[str]:
    """The cells of ``col`` through ``float_cells``, a block at a time
    into one ``Work``, as the writer calls it."""
    work, out = Work(block), buffer(block)
    return [cell for lo in range(0, len(col), block)
            for cell in _decoded(float_cells(col[lo:lo + block], spec == "%r",
                                             work, out))]


def _assert_exact(x: np.ndarray, spec: str) -> None:
    got = _text(x, spec)
    want = [spec % v for v in x.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not wrong and len(got) == len(want), wrong[:10]


def _fallbacks(x: np.ndarray, spec: str) -> int:
    with np.errstate(all="ignore"):
        return int((~_decide(x, spec == "%r", Work(len(x)))[3]).sum())


def _edges() -> tuple[np.ndarray, np.ndarray]:
    """Signed zeros, infinities, nan, subnormals, the ends of the normal
    range, powers of 2 and 10 and their neighbours, k/8, cumulative sums,
    exact %.17g ties and integers past 2^53, where the ends of a rounding
    interval are integers; and the mask of the normal ones that may go to
    Python: the ties below 1e-6 and the powers of ten from 1e17 to 1e22,
    which are doubles where the table's 10^q is not."""
    special = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308]
    powers = [2.0**k for k in range(-1074, 1024)]
    powers += [float(f"1e{k}") for k in range(-323, 309)]
    around = [y for p in powers
              for y in (p, math.nextafter(p, 0), math.nextafter(p, math.inf))]
    rng = np.random.default_rng(7)
    # a 2^-b with 18 significant digits, the last a 5: 17 digits tie
    ties = []
    for b in range(1, 30):
        lo = -(-10**17 // 5**b)
        hi = min(10**18 // 5**b, 2**53)
        if lo < hi:
            ties += [a * 2.0**-b for a in rng.integers(lo, hi, 200) | 1]
    big = rng.integers(2**53, 2**62, 20_000).astype(np.float64)
    x = np.concatenate([
        special, around, ties, big,
        np.arange(-20_000, 20_000) / 8,
        np.cumsum(1.0 / np.arange(1, 20_001) ** 2),
        np.cumsum(np.arange(1, 20_001, dtype=np.float64) ** 3.5),
        rng.random(20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
    ])
    may = np.isin(x, [t for t in ties if t < 1e-6] + [10.0**k for k in range(17, 23)])
    return np.concatenate([x, -x]), np.concatenate([may, may])


@pytest.mark.parametrize("spec", _SPECS)
def test_kernel_matches_python_on_random_bit_patterns(spec):
    bits = np.random.default_rng(2025).integers(0, 2**64, 1_000_000,
                                                dtype=np.uint64)
    _assert_exact(bits.view(np.float64), spec)


@pytest.mark.parametrize("spec", _SPECS)
def test_kernel_matches_python_on_edges(spec):
    x, may = _edges()
    _assert_exact(x, spec)
    # zeros, infinities, nan and subnormals go to Python, and of the
    # normal numbers only those that may
    with np.errstate(all="ignore"):
        back = ~_decide(x, spec == "%r", Work(len(x)))[3]
    normal = (np.abs(x) >= 2.2250738585072014e-308) & np.isfinite(x)
    assert back[~normal].all()
    assert not (back & normal & ~may).any(), x[back & normal & ~may][:10]


# lists with runs: each drawn value repeated one to four times
_RUNS = st.lists(st.tuples(st.floats(allow_subnormal=True), st.integers(1, 4)),
                 max_size=12).map(lambda p: [x for x, k in p for _ in range(k)])
_ULP = math.nextafter(1.0, 2.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_subnormal=True), max_size=40) | _RUNS,
       st.sampled_from(_SPECS))
# runs that compare equal or close but print apart: +-0 pairs and one-ulp
# neighbours, and one all-equal list
@example([0.0, 0.0, -0.0, -0.0, 0.0, 1.0, -0.0], "%.17g")
@example([0.0, 0.0, -0.0, -0.0, 0.0, 1.0, -0.0], "%r")
@example([1.0, 1.0, _ULP, _ULP, 1.0, math.nextafter(1.0, 0.0)] * 2, "%.17g")
@example([1.0, 1.0, _ULP, _ULP, 1.0, math.nextafter(1.0, 0.0)] * 2, "%r")
@example([0.1] * 25, "%.17g")
@example([0.1] * 25, "%r")
def test_kernel_matches_python_on_any_floats(values, spec):
    _assert_exact(np.array(values, dtype=np.float64), spec)


@pytest.mark.parametrize("spec", _SPECS)
def test_runs_are_formatted_once(spec, monkeypatch):
    lengths = []
    decide = _floattext._decide

    def recording(x, shortest, work):
        lengths.append(len(x))
        return decide(x, shortest, work)

    monkeypatch.setattr(_floattext, "_decide", recording)
    # five runs, none of which merges with the next: bits, not values, part
    # them
    starts = [0.0, -0.0, 1.5, math.nextafter(1.5, 2.0), 0.0]
    col = np.repeat(starts, [3, 1, 4, 2, 5])
    assert _text(col, spec) == [spec % v for v in col.tolist()]
    assert lengths == [len(starts)]
    # no runs: every value
    lengths.clear()
    col = np.arange(-5.0, 5.0) / 3
    assert _text(col, spec) == [spec % v for v in col.tolist()]
    assert lengths == [len(col)]


def test_kernel_takes_lists_and_empty_columns():
    assert _text([], "%r") == []
    assert _text([1.5, -0.0, 0.1], "%.17g") == ["1.5", "-0", "0.10000000000000001"]
    assert _text(np.array([1e16, 0.1]), "%r") == ["1e+16", "0.1"]


def test_work_is_reused_across_blocks():
    # a long block, then a shorter one with a narrower layout, then one
    # that needs a sign and an exponent: each returns its own cells
    work, out = Work(64), buffer(64)
    for col in (np.arange(64) * 1e10, [0.5, 0.25], [-1e-300, 2.0]):
        for spec in _SPECS:
            got = _decoded(float_cells(col, spec == "%r", work, out))
            assert got == [spec % v for v in np.asarray(col).tolist()]


_INTS = [0, 1, 9, 10, 99, 100, 9999, 10000, 99999, 100000, 10**17,
         2**63 - 1, -1, -9, -10, -10000, -(2**63)]


def test_int_kernel_matches_python():
    work, out = Work(32), buffer(32)
    for values in ([0], [7], _INTS, _INTS[::-1], [5, -5, 0, 12345678]):
        got = _decoded(int_cells(np.array(values, dtype=np.int64), False, work, out))
        assert got == ["%d" % v for v in values]
    # ranges, also past a digit boundary and counting down
    for r in (range(1, 12), range(9995, 10005), range(12, -3, -1), range(5, 6),
              range(-10**6, -10**6 + 3)):
        assert _decoded(int_cells(r, True, work, out)) == ["%d" % v for v in r]


def test_bool_kernel():
    col = np.array([True, False, False, True])
    assert _decoded(bool_cells(col, False, Work(4), buffer(4))) == [
        "true", "false", "false", "true"]
    assert _decoded(bool_cells(np.broadcast_to(False, 3), True, Work(3),
                               buffer(3))) == ["false"] * 3


# every choice of the sigma-table benchmark's sigma commands
_SIGMA_TABLE = [
    *(("mixed-inf", s, None, 1) for s in ("5/4", "3/2", "7/4")),
    *(("mixed-sr", s, 2.0, 3) for s in ("3/2", "5/4", "7/4")),
    *(("h1-ratio", s, None, 2) for s in ("2", "15/8", "17/8")),
]


def test_few_sigma_table_cells_fall_back():
    cells = fallbacks = 0
    for family, s, r, d in _SIGMA_TABLE:
        weight = WeightSpec(Family(family), s=float(Fraction(s)), d=d, r=r)
        prefix = sigma_prefix(weight, 20_000)
        for col in (prefix.values, prefix.cum_inv_sq):
            cells += 2 * len(col)
            fallbacks += sum(_fallbacks(col, spec) for spec in _SPECS)
    assert fallbacks < cells / 1000

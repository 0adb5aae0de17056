import math

import numpy as np
import pytest

from wienerwidths import (
    BoxTooSmallError,
    CumSumOverflowError,
    SigmaPrefix,
    iter_orbits,
    log_weight_box,
    orbit_multiplicity,
    sigma_bruteforce,
    sigma_prefix,
)


def heap_prefix(spec, n_max):
    """The rearrangement prefix by the best-first heap walk, one orbit at a
    time: the reference ``sigma_prefix`` must equal bit for bit.

    Orbits come from ``iter_orbits`` in (log weight, representative) order;
    sigma is 1/evaluate(rep), clamped to the previous value where the two
    cross by an ulp, and the sigma^-2 blocks are summed with Neumaier
    compensation.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = np.empty(n_max)
    cum = np.empty(n_max)
    filled = 0
    total = 0.0
    comp = 0.0
    for _, rep in iter_orbits(spec):
        w = spec.evaluate(rep)
        inv_sq = w * w
        if not math.isfinite(inv_sq):
            raise CumSumOverflowError("cumsum overflow; reduce N or s")
        take = min(orbit_multiplicity(rep), n_max - filled)
        v = 1.0 / w
        if filled and v > values[filled - 1]:
            v = values[filled - 1]
        values[filled : filled + take] = v
        base = total + comp
        cum[filled : filled + take] = base + inv_sq * np.arange(1, take + 1)
        block = inv_sq * take
        t = total + block
        if abs(total) >= abs(block):
            comp += (total - t) + block
        else:
            comp += (block - t) + total
        total = t
        if not math.isfinite(total):
            raise CumSumOverflowError("cumsum overflow; reduce N or s")
        filled += take
        if filled == n_max:
            break
    return SigmaPrefix(spec, values, cum)


def full_box_bruteforce(spec, n_max, box_radius):
    """``sigma_bruteforce`` on the whole box at once: evaluate every point
    of |k|_inf <= box_radius, partial-sort the flat array, and certify on
    the minimum over the 2d faces.  The slab-streamed oracle must equal it
    bit for bit, refusals included."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    R = int(box_radius)
    if R < 1:
        raise ValueError("box_radius must be >= 1")
    lw = log_weight_box(spec, R)
    flat = lw.ravel()
    if flat.size < n_max:
        raise BoxTooSmallError(
            f"box too small: only {flat.size} points for n_max={n_max}"
        )
    sel = np.sort(np.partition(flat, n_max - 1)[:n_max])
    shell_min = math.inf
    for ax in range(spec.d):
        sl = [slice(None)] * spec.d
        sl[ax] = 0
        shell_min = min(shell_min, float(np.min(lw[tuple(sl)])))
        sl[ax] = -1
        shell_min = min(shell_min, float(np.min(lw[tuple(sl)])))
    if not sel[-1] < shell_min:
        raise BoxTooSmallError(
            "box too small: boundary shell reaches the requested prefix "
            f"(sigma_N log-weight {sel[-1]:.6g} vs shell minimum "
            f"{shell_min:.6g}); increase box_radius"
        )
    inv_sq = np.exp(2.0 * sel)
    cum = np.cumsum(inv_sq)
    if not math.isfinite(float(cum[-1])):
        raise CumSumOverflowError("cumsum overflow; reduce N or s")
    return SigmaPrefix(spec, np.exp(-sel), cum)


def array_prefix(spec, n_max):
    """``sigma_prefix``'s first n_max terms as a prefix built from arrays:
    it has no walk to take more terms from, so ``width`` raises
    PrefixTooShortError where its sup certificate needs more."""
    p = sigma_prefix(spec, n_max)
    return SigmaPrefix(spec, p.values, p.cum_inv_sq)


def oracle_prefix(spec, n_max):
    """Brute-force prefix with an auto-sized certified box.

    The starting radius comes from the largest axis point whose weight does
    not exceed the n_max-th weight of the fast path; the oracle then
    re-certifies independently, so a fast-path bug cannot hide here (a wrong
    sigma would still have to match a certified exhaustive scan).
    """
    fast = sigma_prefix(spec, n_max)
    radius = spec.axis_extent(math.log(1.0 / float(fast.values[n_max - 1]))) + 1
    for slack in (0, 3, 15, 63):
        try:
            return sigma_bruteforce(spec, n_max, radius + slack)
        except BoxTooSmallError:
            continue
    raise AssertionError(f"no certified box up to radius {radius + 63}")


@pytest.fixture
def rng():
    import random

    return random.Random(20240817)

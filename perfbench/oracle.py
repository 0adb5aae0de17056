"""Correctness gate: every command's output against an independent oracle.

Each check takes the command and its output text (stdout, or the file named
by --output), raises ``CheckFailed`` when the output is wrong, and returns
the number of data rows.  The checks that need the package import it from
``src/``; they run after the timed region.

Besides these checks the gate compares each output with the sha256 recorded
from the seed commit in ``digests.json`` (see ``run.py``), so a change of a
single printed digit fails even where an oracle only holds to 1e-12.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

__all__ = ["CheckFailed", "CHECKS", "parse_table", "data_rows", "check_output"]

REL_TOL = 1e-12
# Largest brute-force box (lattice points) the sigma oracle builds.
BOX_BUDGET = 4_000_000
# Widths checked against the exhaustive scan: the first few n and an even
# spread across the rest of the range.
WIDTH_HEAD = 16
WIDTH_SPREAD = 96


class CheckFailed(Exception):
    """The output contradicts the oracle."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _args(argv) -> dict[str, str]:
    """--key value pairs of a command line (flags all take one value)."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            out[tok[2:].replace("-", "_")] = argv[i + 1]
    return out


_INT = re.compile(r"-?\d+")


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(argv, text: str) -> tuple[list[str], list[list]]:
    """Columns and typed rows of a CSV or JSON output."""
    if _args(argv).get("format") == "json":
        payload = json.loads(text)
        _require(payload["command"] == argv[0], "json command field")
        return payload["columns"], payload["rows"]
    lines = list(csv.reader(io.StringIO(text)))
    _require(len(lines) >= 1, "missing CSV header")
    return lines[0], [[_cell(c) for c in row] for row in lines[1:]]


def data_rows(argv, text: str) -> int:
    """Number of data rows in an output, without parsing the cells."""
    if not text:
        return 0
    if _args(argv).get("format") == "json":
        return len(json.loads(text)["rows"])
    return text.count("\n") - 1


def _spec(a: dict):
    from fractions import Fraction

    from wienerwidths.weights import Family, WeightSpec

    r = None if a.get("r") is None else float(Fraction(a["r"]))
    return WeightSpec(Family(a["family"]), s=float(Fraction(a["s"])), d=int(a["d"]), r=r)


def _int_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(float(lo)), int(float(hi)) + 1))
        else:
            out.append(int(float(part)))
    return out


def _column(columns, rows, name):
    i = columns.index(name)
    return [row[i] for row in rows]


# -- sigma ------------------------------------------------------------------


def _bruteforce_prefix(spec, sig):
    """sigma_bruteforce on the largest certified box within BOX_BUDGET.

    The box radius for the first M rows is one past the axis extent of
    1/sigma_M; M is the largest row count whose box fits the budget.
    """
    from wienerwidths.sigma import BoxTooSmallError, sigma_bruteforce

    def radius(m: int) -> int:
        return spec.axis_extent(-math.log(sig[m - 1]) + 1e-9) + 1

    def fits(m: int) -> bool:
        return (2 * radius(m) + 1) ** spec.d <= BOX_BUDGET

    lo, hi = 1, len(sig)
    _require(fits(1), "no brute-force box fits the budget")
    while lo < hi:  # largest m with fits(m); fits is monotone in m
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    R = radius(lo)
    while True:
        try:
            return sigma_bruteforce(spec, lo, R)
        except BoxTooSmallError:
            R += 1
            if (2 * R + 1) ** spec.d > BOX_BUDGET:
                lo = max(1, lo // 2)
                R = radius(lo)


def _numeric_table(argv, text: str):
    """Columns and a float array of an all-numeric output."""
    if _args(argv).get("format") == "json":
        columns, rows = parse_table(argv, text)
        return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))
    header, _, body = text.partition("\n")
    columns = header.split(",")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return columns, data.reshape(-1, len(columns))


def check_sigma(argv, text: str) -> int:
    a = _args(argv)
    spec = _spec(a)
    columns, data = _numeric_table(argv, text)
    expect = ["n", "sigma", "cum_inv_sq"]
    if "check_box_radius" in a:
        expect.append("sigma_oracle")
    _require(columns == expect, f"columns {columns}")
    N = int(float(a["n"]))
    _require(np.array_equal(data[:, 0], np.arange(1, N + 1)), "n is not 1..N")
    sig, cum = data[:, 1], data[:, 2]
    _require(bool(np.all(sig > 0)), "sigma not positive")
    _require(bool(np.all(sig[:-1] >= sig[1:])), "sigma not nonincreasing")
    # cum_inv_sq against an exactly rounded running sum of sigma^-2,
    # checked at every row of the first thousand and then every 97th row
    inv_sq = sig ** -2.0
    total = 0.0
    last = 0
    for n in sorted(set(range(1, min(N, 1000) + 1)) | set(range(1000, N + 1, 97)) | {N}):
        total = math.fsum([total, *inv_sq[last:n].tolist()])
        last = n
        _require(_close(cum[n - 1], total), f"cum_inv_sq at n={n}: {cum[n - 1]!r} vs {total!r}")
    ref = np.asarray(_bruteforce_prefix(spec, sig).values)
    head = sig[: len(ref)]
    bad = np.flatnonzero(np.abs(head - ref) > REL_TOL * np.maximum(head, ref))
    _require(bad.size == 0, f"sigma differs from the brute-force box at n={bad[:1] + 1}")
    if "check_box_radius" in a:
        oracle = data[:, 3]
        bad = np.flatnonzero(np.abs(sig - oracle) > REL_TOL * np.maximum(sig, oracle))
        _require(bad.size == 0, f"sigma_oracle differs at n={bad[:1] + 1}")
    return N


# -- width ------------------------------------------------------------------

_SUP_EMBEDDINGS = ("a-to-l2", "amix-to-h1", "a-to-linf", "a-to-lp")
_BRACKETS = ("a-to-linf", "a-to-lp")


def _scan(prefix, n: int):
    """Exhaustive max over h in [n, N] of (h-n+1)/S_h and its smallest
    maximizer, or None when the prefix cannot prove no later h wins."""
    S = np.asarray(prefix.cum_inv_sq)
    N = len(S)
    hs = np.arange(n, N + 1)
    vals = (hs - (n - 1)) / S[n - 1 :]
    i = int(np.argmax(vals))
    best = float(vals[i])
    sig_N = float(prefix.values[-1])
    ceiling = max((N - n + 2) / (float(S[-1]) + sig_N ** -2), sig_N * sig_N)
    if ceiling > best:
        return None
    return math.sqrt(best), n + i


def check_width(argv, text: str) -> int:
    """Sup-formula widths (approximation / Kolmogorov) against an exhaustive
    scan over h on a certified prefix; brackets must have lower <= upper
    and upper = sigma_n."""
    from wienerwidths.sigma import sigma_prefix
    from wienerwidths.widths import sup_over_h

    a = _args(argv)
    _require(a["embedding"] in _SUP_EMBEDDINGS, f"no oracle for {a['embedding']}")
    _require(a["kind"] in ("approximation", "kolmogorov"), f"no oracle for {a['kind']}")
    spec = _spec(a)
    ns = _int_list(a["n"])
    columns, rows = parse_table(argv, text)
    _require(columns == ["n", "lower", "upper", "exact"], f"columns {columns}")
    _require(_column(columns, rows, "n") == ns, "n column differs from the request")
    lower = [float(v) for v in _column(columns, rows, "lower")]
    upper = [float(v) for v in _column(columns, rows, "upper")]
    exact = _column(columns, rows, "exact")
    bracket = a["embedding"] in _BRACKETS
    _require(all(x is (not bracket) for x in exact), "exact flag")
    _require(all(lo <= up for lo, up in zip(lower, upper)), "lower > upper")
    if not bracket:
        _require(lower == upper, "exact width with lower != upper")
    for col in (lower, upper):
        _require(all(x >= y for x, y in zip(col, col[1:])), "width not nonincreasing")
    step = max(1, len(ns) // WIDTH_SPREAD)
    sample = sorted(set(range(min(WIDTH_HEAD, len(ns)))) | set(range(0, len(ns), step)) | {len(ns) - 1})
    size = 2 * max(ns)
    prefix = sigma_prefix(spec, size)
    for i in sample:
        n = ns[i]
        while (scan := _scan(prefix, n)) is None:
            size *= 2
            prefix = sigma_prefix(spec, size)
        value, argmax = scan
        lib_value, lib_argmax = sup_over_h(prefix, n)
        _require(lib_argmax == argmax, f"argmax at n={n}: {lib_argmax} vs scan {argmax}")
        _require(_close(lib_value, value), f"sup at n={n}: {lib_value!r} vs scan {value!r}")
        _require(_close(lower[i], value), f"width at n={n}: {lower[i]!r} vs scan {value!r}")
        if bracket:
            _require(upper[i] == float(prefix.values[n - 1]), f"upper at n={n} is not sigma_n")
    return len(rows)


# -- REPRODUCE.md expectations ---------------------------------------------


def check_refusal(argv, text: str) -> int:
    """The radius-64 box cannot be certified: exit 2 and nothing on stdout."""
    _require(text == "", "refused command printed output")
    return 0


def check_c01_flat(argv, text: str) -> int:
    """Value 1 up to n = 9 (the 3^2 flat points), 2^-1 at n = 10..12."""
    columns, rows = parse_table(argv, text)
    _require(_column(columns, rows, "n") == list(range(1, 13)), "n is not 1..12")
    for n, lower, upper, exact in rows:
        want = 1.0 if n <= 9 else 0.5
        _require(lower == upper == want and exact is True, f"n={n}: {lower}, {upper}")
    return len(rows)


def check_c06_transfer(argv, text: str) -> int:
    """n u_n -> 4/3 within 1% at n = 1e5; the row arithmetic is consistent."""
    a = _args(argv)
    alpha, beta, target = float(a["alpha"]), float(a["beta"]), float(a["target"])
    columns, rows = parse_table(argv, text)
    _require(columns == ["n", "raw", "normalizer", "ratio", "target"], f"columns {columns}")
    _require([r[0] for r in rows] == _int_list(a["n_grid"]), "n grid")
    for n, raw, norm, ratio, tgt in rows:
        _require(_close(norm, n ** (-alpha) * math.log(n) ** beta), f"normalizer at n={n}")
        _require(_close(ratio, raw / norm), f"ratio at n={n}")
        _require(tgt == target, f"target at n={n}")
    raws = [r[1] for r in rows]
    _require(all(x > y for x, y in zip(raws, raws[1:])), "widths not decreasing")
    _require(abs(rows[-1][3] / target - 1.0) < 0.01, "ratio not within 1% at the last n")
    return len(rows)


def check_c06_constant(argv, text: str) -> int:
    """transfer-uv at s = 1 is 2/3."""
    columns, rows = parse_table(argv, text)
    _require(rows == [["transfer-uv", rows[0][1]]], "constants row")
    _require(_close(rows[0][1], 2.0 / 3.0, 1e-15), "transfer-uv(1) != 2/3")
    return len(rows)


def check_c08_identity(argv, text: str) -> int:
    """C(r, d) = 1 + sum_l 2^l binom(d, l) A(r, l) exactly, A from count_A."""
    from fractions import Fraction

    from wienerwidths.lattice_count import count_A

    a = _args(argv)
    s, d = Fraction(a["s"]), int(a["d"])
    columns, rows = parse_table(argv, text)
    _require(columns == ["kind", "s", "r", "dim", "j", "r_ell", "count"], f"columns {columns}")
    _require([r[2] for r in rows] == _int_list(a["r_grid"]), "r grid")
    for kind, _s, r, dim, j, r_ell, count in rows:
        _require(kind == "C" and dim == d and j is None and r_ell is None, f"row r={r}")
        want = 1 + sum(2**l * math.comb(d, l) * count_A(s, r, l) for l in range(1, d + 1))
        _require(count == want, f"C({r}, {d}) = {count}, identity gives {want}")
    return len(rows)


# 4 (2 S(2) + 1), the limit of C(r, 2)/r at s = 2 (REPRODUCE.md, criterion 09)
_C_OVER_R_S2_D2 = 12.613392379690442


def check_c10_sandwich(argv, text: str) -> int:
    """Every sandwich row is ok; the count rows satisfy the exact identities
    C(r, 2) = 1 + 4 A(r, 1) + 4 A(r, 2) with A(r, 1) = r, and
    A(r, 2) = sum_j binom(2, j) A(r, 2, j)."""
    a = _args(argv)
    _require((a["s"], a["d"]) == ("2", "2"), "expectations are for s = 2, d = 2")
    columns, rows = parse_table(argv, text)
    _require(columns == ["section", "r", "ell", "j", "r_ell", "count", "ratio", "target", "ok"],
             f"columns {columns}")
    sandwich = [r for r in rows if r[0] == "sandwich"]
    _require([r[1] for r in sandwich] == _int_list(a["sandwich_r"]), "sandwich r grid")
    _require(all(r[8] is True for r in sandwich), "a sandwich row is not ok")
    for r in _int_list(a["r_grid"]):
        by = {(row[0], row[3]): row for row in rows if row[1] == r and row[0] != "sandwich"}
        c, a2 = by[("c", None)], by[("a", None)]
        _require(c[5] == 1 + 4 * r + 4 * a2[5], f"C identity at r={r}")
        _require(a2[5] == sum(math.comb(2, j) * by[("a-split", j)][5] for j in range(3)),
                 f"split identity at r={r}")
        _require(c[6] == c[5] / r, f"C ratio at r={r}")
        # the CLI sums the series S to its default tolerance 1e-10
        _require(abs(c[7] - _C_OVER_R_S2_D2) <= 1e-9, f"C target at r={r}")
    return len(rows)


def check_c11_integral(argv, text: str) -> int:
    """Deviations from 1/(s+1) strictly decrease along n, within 0.02 at
    the last n."""
    a = _args(argv)
    limit = 1.0 / (float(a["s"]) + 1.0)
    columns, rows = parse_table(argv, text)
    _require(columns == ["n", "value", "limit", "abs_dev"], f"columns {columns}")
    _require([r[0] for r in rows] == _int_list(a["n_grid"]), "n grid")
    for n, value, lim, dev in rows:
        _require(lim == limit and dev == abs(value - limit), f"row n={n}")
    devs = [r[3] for r in rows]
    _require(all(x > y for x, y in zip(devs, devs[1:])), "deviations not decreasing")
    _require(devs[-1] <= 0.02, "deviation above 0.02 at the last n")
    return len(rows)


CHECKS = {
    "sigma": check_sigma,
    "width": check_width,
    "refusal": check_refusal,
    "c01_flat": check_c01_flat,
    "c06_transfer": check_c06_transfer,
    "c06_constant": check_c06_constant,
    "c08_identity": check_c08_identity,
    "c10_sandwich": check_c10_sandwich,
    "c11_integral": check_c11_integral,
}


def check_output(cmd, exit_code: int, text: str, digest: str, digests: dict) -> int:
    """Gate one command: exit code, recorded digest, then the oracle.

    Returns the number of data rows; raises CheckFailed.
    """
    _require(exit_code == cmd.exit_code, f"exit code {exit_code}, expected {cmd.exit_code}")
    recorded = digests.get(cmd.key)
    _require(recorded is not None, "no digest recorded for this command")
    _require(digest == recorded, "output differs from the seed commit's bytes")
    return CHECKS[cmd.check](cmd.argv, text)

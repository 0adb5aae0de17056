"""Command-line interface: batch tables for every library operation.

Subcommands and their output columns (CSV by default, ``--format json``
for the same data as one JSON object):

    sigma            n, sigma, cum_inv_sq [, sigma_oracle]
    width            n, lower, upper, exact
    converge         n, raw, normalizer, ratio, target
    constants        name, value
    count            kind, s, r, dim, j, r_ell, count
    appendix-verify  section, r, ell, j, r_ell, count, ratio, target, ok
    integral         n, value, limit, abs_dev

Floats print with 17 significant digits and '.' decimal separator; output
is byte-identical across runs.  Progress notes, if any, go to stderr.
Prefix lengths above 30,000,000 are refused before any enumeration.
Exit codes: 0 success, 2 domain/usage error, 3 resource cap.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Sequence

from .asymptotics import (
    CONSTANT_NAMES,
    ConstantSpec,
    ResourceLimitError,
    aux_integral,
    constant,
    convergence_table,
)
from .lattice_count import (
    count_A,
    count_A_split,
    count_C,
    sandwich_check,
    split_cut,
    verify_appendix_limits,
)
from .sigma import (
    CumSumOverflowError,
    SigmaPrefix,
    sigma_bruteforce,
    sigma_prefix,
)
from .weights import Family, WeightSpec
from .widths import (
    Embedding,
    PrefixTooShortError,
    WidthKind,
    WidthQuery,
    needs_sup,
    width,
)

__all__ = ["main"]

_PREFIX_CAP = 30_000_000
_PROGRESS_AT = 1_000_000


# -- parsing helpers ---------------------------------------------------------


def _parse_int_list(text: str) -> Sequence[int]:
    """Grids: comma-separated integers, 'a..b' inclusive ranges, 1e6 forms.

    A single range stays a lazy ``range``, so an oversized n range reaches
    the prefix cap check without first being expanded."""
    parts: list[Sequence[int]] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            parts.append(range(int(float(lo)), int(float(hi)) + 1))
        elif part:
            parts.append([int(float(part))])
    if not any(parts):
        raise ValueError(f"empty grid: {text!r}")
    return parts[0] if len(parts) == 1 else [n for p in parts for n in p]


def _parse_s_float(s: str) -> float:
    return float(Fraction(s))  # accepts "1.5" and "3/2"


def _make_spec(args: argparse.Namespace) -> WeightSpec:
    r = None
    if args.r is not None:
        if args.r.lower() in ("inf", "infinity"):
            raise ValueError(
                "r=inf is spelled as the family variant "
                "(mixed-inf / isotropic-inf), not as a number"
            )
        r = _parse_s_float(args.r)
    return WeightSpec(Family(args.family), s=_parse_s_float(args.s), d=args.d, r=r)


# -- output ------------------------------------------------------------------


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(args: argparse.Namespace, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    if args.format == "json":
        payload = {
            "command": args.command,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(x) for x in row])
    finally:
        if args.output:
            out.close()


# -- prefixes ----------------------------------------------------------------


def _prefix(spec: WeightSpec, n: int) -> SigmaPrefix:
    """The first n rearrangement values, refused above the prefix cap."""
    if n > _PREFIX_CAP:
        raise ResourceLimitError(
            f"prefix cap {_PREFIX_CAP} exceeded: N={n} requested"
        )
    if n >= _PROGRESS_AT:
        print(f"computing rearrangement prefix, N={n} ...", file=sys.stderr)
    return sigma_prefix(spec, n)


def _prefix_with_retry(
    spec: WeightSpec, n_hi: int, sup: bool, prefix_n: int | None, compute
):
    """Run `compute(prefix)`, growing the prefix until the sup certificate
    fits; the starting size comes from --prefix-n when given."""
    if prefix_n is not None:
        n = max(prefix_n, n_hi)
    elif sup:
        n = max(n_hi, min(max(64, 4 * n_hi), _PREFIX_CAP))
    else:
        n = n_hi
    while True:
        prefix = _prefix(spec, n)
        try:
            return compute(prefix)
        except PrefixTooShortError as exc:
            n = max(2 * n, exc.required)


# -- subcommands -------------------------------------------------------------


def _cmd_sigma(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    n_max = int(float(args.n))
    if n_max < 1:
        raise ValueError("--n must be >= 1")
    prefix = _prefix(spec, n_max)
    columns = ["n", "sigma", "cum_inv_sq"]
    oracle = None
    if args.check_box_radius is not None:
        oracle = sigma_bruteforce(spec, n_max, args.check_box_radius)
        columns.append("sigma_oracle")
    rows = []
    for i in range(n_max):
        row = [i + 1, float(prefix.values[i]), float(prefix.cum_inv_sq[i])]
        if oracle is not None:
            row.append(float(oracle.values[i]))
        rows.append(row)
    _emit(args, columns, rows)
    return 0


def _cmd_width(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    embedding = Embedding(args.embedding)
    kind = WidthKind(args.kind)
    ns = _parse_int_list(args.n)

    def compute(prefix):
        rows = []
        for n in ns:
            wv = width(prefix, WidthQuery(embedding, kind, n, p=args.p))
            rows.append([n, wv.lower, wv.upper, wv.exact])
        return rows

    rows = _prefix_with_retry(
        spec, max(ns), needs_sup(embedding, kind), args.prefix_n, compute
    )
    _emit(args, ["n", "lower", "upper", "exact"], rows)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    spec = _make_spec(args)
    embedding = Embedding(args.embedding)
    kind = WidthKind(args.kind)
    grid = _parse_int_list(args.n_grid)

    def compute(prefix):
        return convergence_table(
            prefix, embedding, kind, grid, args.alpha, args.beta, args.target
        )

    table = _prefix_with_retry(
        spec, max(grid), needs_sup(embedding, kind), args.prefix_n, compute
    )
    rows = [[r.n, r.raw, r.normalizer, r.ratio, r.target] for r in table.rows]
    _emit(args, ["n", "raw", "normalizer", "ratio", "target"], rows)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    spec = ConstantSpec(
        args.name,
        s=None if args.s is None else _parse_s_float(args.s),
        d=args.d,
        tol=args.tol if args.tol is not None else 1e-10,
    )
    _emit(args, ["name", "value"], [[args.name, constant(spec)]])
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.ell is None and args.d is None:
        raise ValueError("count requires --d (for C) or --ell (for A)")
    if args.j is not None and args.ell is None:
        raise ValueError("count --j requires --ell")
    s_frac = Fraction(args.s)

    def row(r: int):
        if args.ell is None:
            return ["C", args.s, r, args.d, None, None, count_C(s_frac, r, args.d)]
        if args.j is None:
            return ["A", args.s, r, args.ell, None, None, count_A(s_frac, r, args.ell)]
        if args.r_ell is None or args.r_ell == "auto":
            r_ell = split_cut(s_frac, r, args.ell)
        else:
            r_ell = int(args.r_ell)
        cnt = count_A_split(s_frac, r, args.ell, args.j, r_ell)
        return ["A-split", args.s, r, args.ell, args.j, r_ell, cnt]

    rows = [row(r) for r in _parse_int_list(args.r_grid)]
    _emit(args, ["kind", "s", "r", "dim", "j", "r_ell", "count"], rows)
    return 0


def _cmd_appendix_verify(args: argparse.Namespace) -> int:
    s_frac = Fraction(args.s)
    grid = _parse_int_list(args.r_grid)
    tol = args.tol if args.tol is not None else 1e-10
    report = verify_appendix_limits(s_frac, args.d, grid, tol=tol)
    rows = []
    for row in report.rows:
        rows.append(
            ["c", row.r, None, None, None, row.count_c, row.c_over_r,
             report.c_over_r_target, None]
        )
        for cell in row.cells:
            section = "a" if cell.j is None else "a-split"
            rows.append(
                [section, row.r, cell.ell, cell.j, cell.r_ell, cell.count,
                 cell.ratio, cell.target, None]
            )
    if args.sandwich_r:
        for r in _parse_int_list(args.sandwich_r):
            ok = sandwich_check(s_frac, args.d, r)
            rows.append(["sandwich", r, None, None, None, None, None, None, ok])
    _emit(
        args,
        ["section", "r", "ell", "j", "r_ell", "count", "ratio", "target", "ok"],
        rows,
    )
    return 0


def _cmd_integral(args: argparse.Namespace) -> int:
    s = _parse_s_float(args.s)
    limit = 1.0 / (s + 1.0)
    rows = []
    for n in _parse_int_list(args.n_grid):
        val = aux_integral(s, args.beta, args.a, n)
        rows.append([n, val, limit, abs(val - limit)])
    _emit(args, ["n", "value", "limit", "abs_dev"], rows)
    return 0


_DISPATCH = {
    "sigma": _cmd_sigma,
    "width": _cmd_width,
    "converge": _cmd_converge,
    "constants": _cmd_constants,
    "count": _cmd_count,
    "appendix-verify": _cmd_appendix_verify,
    "integral": _cmd_integral,
}


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiener-widths",
        description="Exact widths of weighted Wiener and mixed-smoothness "
        "Sobolev embeddings; asymptotic and lattice-count verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", help="write to file instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def weight_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", required=True,
                       choices=[f.value for f in Family])
        p.add_argument("--s", required=True, help="smoothness, e.g. 1.5 or 3/2")
        p.add_argument("--r", help="inner exponent for the -sr families")
        p.add_argument("--d", type=int, required=True, help="lattice dimension")

    p = sub.add_parser("sigma", help="rearrangement prefix table")
    weight_args(p)
    p.add_argument("--n", required=True, help="prefix length")
    p.add_argument("--check-box-radius", type=int,
                   help="also compute the brute-force oracle on this box and "
                   "emit it as a fourth column")
    common(p)

    p = sub.add_parser("width", help="width values/brackets on an n range")
    weight_args(p)
    p.add_argument("--embedding", required=True,
                   choices=[e.value for e in Embedding])
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in WidthKind])
    p.add_argument("--n", required=True, help="single n, list, or a..b")
    p.add_argument("--p", type=float, help="target exponent for a-to-lp")
    p.add_argument("--prefix-n", type=int, help="override prefix length")
    common(p)

    p = sub.add_parser("converge", help="normalized width ratios on an n grid")
    weight_args(p)
    p.add_argument("--embedding", required=True,
                   choices=[e.value for e in Embedding])
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in WidthKind])
    p.add_argument("--n-grid", required=True, dest="n_grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--prefix-n", type=int, help="override prefix length")
    common(p)

    p = sub.add_parser("constants", help="print a named constant")
    p.add_argument("--name", required=True, choices=list(CONSTANT_NAMES))
    p.add_argument("--s", help="smoothness, e.g. 1.5 or 3/2")
    p.add_argument("--d", type=int)
    p.add_argument("--tol", type=float, help="series tolerance where used")
    common(p)

    p = sub.add_parser("count", help="exact lattice counts C / A / A-split")
    p.add_argument("--s", required=True, help="smoothness, e.g. 2 or 3/2")
    p.add_argument("--d", type=int, help="dimension for C counts")
    p.add_argument("--ell", type=int, help="support size for A counts")
    p.add_argument("--j", type=int, help="split index for A-split counts")
    p.add_argument("--r-ell", dest="r_ell",
                   help="split cut (integer or 'auto' for floor(r^lambda))")
    p.add_argument("--r-grid", required=True, dest="r_grid",
                   help="thresholds, e.g. 1..50 or 100,200,400")
    common(p)

    p = sub.add_parser("appendix-verify",
                       help="all count ratios against their proven limits")
    p.add_argument("--s", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r-grid", required=True, dest="r_grid")
    p.add_argument("--sandwich-r", dest="sandwich_r",
                   help="also check rearrangement sandwich on these r, e.g. 2..8")
    p.add_argument("--tol", type=float, help="series tolerance")
    common(p)

    p = sub.add_parser("integral", help="sup-formula limit integral on an n grid")
    p.add_argument("--s", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n-grid", required=True, dest="n_grid")
    common(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (CumSumOverflowError, ResourceLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

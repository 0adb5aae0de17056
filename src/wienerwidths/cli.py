"""Command-line interface: batch tables for every library operation.

Each subcommand returns its (columns, rows) table and ``main`` writes it,
as CSV or (``--format json``) as one JSON object.  The columns are:

    sigma            n, sigma, cum_inv_sq [, sigma_oracle]
    width            n, lower, upper, exact
    converge         n, raw, normalizer, ratio, target
    constants        name, value
    count            kind, s, r, dim, j, r_ell, count
    appendix-verify  section, r, ell, j, r_ell, count, ratio, target, ok
    integral         n, value, limit, abs_dev

One writer prints every table.  Each column has a kind (int, float, bool,
or a mixed cell for the small tables), and the kinds give one printf row
format per output format, so a block of rows prints with one ``%``.  The
cell rules: CSV writes None as empty, bools as true/false, floats with 17
significant digits and '.' decimal separator; JSON writes null, true/false
and ``repr`` floats, and a JSON table is ``json.dumps(payload, indent=2)``
plus a newline.  Output is byte-identical across runs.  Rows stream out a
block at a time (``sigma`` converts its prefix arrays block by block), so
peak memory is the prefix, 16 bytes per row, plus one block; rows that can
fail are all computed before the first byte.  Integers may be spelled
1.5e5.  Progress notes go to stderr.
Prefix lengths above 30,000,000 are refused before any enumeration.
Exit codes: 0 success, 1 stdout closed early (broken pipe), 2 domain/usage
error or an --output path that cannot be opened, 3 resource cap.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .asymptotics import (
    CONSTANT_NAMES,
    aux_integral,
    check_convergence,
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
    _PREFIX_CAP,
    ResourceLimitError,
    SigmaPrefix,
    _refuse_above_cap,
    sigma_bruteforce,
    sigma_prefix,
)
from .weights import Family, WeightSpec
from .widths import (
    Embedding,
    PrefixTooShortError,
    WidthKind,
    check_width,
    needs_sup,
    refuse_flat,
    width,
)

__all__ = ["main"]

_PROGRESS_AT = 1_000_000
_BLOCK = 8_192  # rows per output block

Columns = Sequence[tuple[str, "_Kind"]]  # (name, kind) per column
Table = tuple[Columns, Iterable[Sequence]]


# -- parsing helpers ---------------------------------------------------------


class _NotAnInteger(argparse.ArgumentTypeError, ValueError):
    """One message either way: argparse prints it when an option's type
    refuses a value, and ``main`` prints it when a subcommand does."""


def _parse_int(text: str) -> int:
    """An integer, exact at any length, or an integral float such as 1.5e5."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise _NotAnInteger(f"not an integer: {text!r}")


def _parse_int_list(text: str) -> Sequence[int]:
    """Grids: comma-separated integers, 'a..b' inclusive ranges, 1e6 forms.

    A single range stays a lazy ``range``, so an oversized n range reaches
    the prefix cap check without first being expanded."""
    parts: list[Sequence[int]] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            parts.append(range(_parse_int(lo), _parse_int(hi) + 1))
        elif part:
            parts.append([_parse_int(part)])
    if not any(parts):
        raise ValueError(f"empty grid: {text!r}")
    return parts[0] if len(parts) == 1 else [n for p in parts for n in p]


def _top(grid: Sequence[int]) -> int:
    """The largest entry; a lazy range is not walked, as ``max`` would."""
    return grid[-1] if isinstance(grid, range) else max(grid)


def _parse_s(text: str) -> Fraction:
    """s or r, exactly: "1.5" and "3/2" alike.  Fraction refuses nan and inf;
    a zero denominator and a value beyond the float range are refused here,
    not left to raise ZeroDivisionError or OverflowError later."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"beyond the float range: {text!r}") from None
    return value


def _make_spec(args: argparse.Namespace) -> WeightSpec:
    r = None
    if args.r is not None:
        if args.r.lower() in ("inf", "infinity"):
            raise ValueError(
                "r=inf is spelled as the family variant "
                "(mixed-inf / isotropic-inf), not as a number"
            )
        r = float(_parse_s(args.r))
    return WeightSpec(Family(args.family), s=float(_parse_s(args.s)), d=args.d, r=r)


# -- output ------------------------------------------------------------------


def _csv_cell(x) -> str:
    """One cell by the CSV rules: None empty, bools true/false, floats at 17
    significant digits, the rest ``str``, quoted as ``csv`` quotes a field
    (QUOTE_MINIMAL with a "\\n" line end: on ',', '"' or a newline)."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    text = str(x)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Kind(NamedTuple):
    """How a column prints: one printf spec per format, applied after an
    optional conversion of the cell."""

    csv: str
    json: str
    to_csv: Callable | None = None
    to_json: Callable | None = None


_TRUE_FALSE = {True: "true", False: "false"}.__getitem__
_INT = _Kind("%d", "%d")
# finite floats only: %r prints inf and nan where json.dumps prints
# Infinity and NaN
_FLOAT = _Kind("%.17g", "%r")
_BOOL = _Kind("%s", "%s", _TRUE_FALSE, _TRUE_FALSE)
# anything else: None, strings, bools, ints and floats mixed in one column
_CELL = _Kind("%s", "%s", _csv_cell, json.dumps)


def _emit(
    args: argparse.Namespace, columns: Columns, rows: Iterable[Sequence]
) -> None:
    """Write the table to --output or the current stdout, a block at a time.

    A row prints through one printf format built from the column kinds, so
    a block of ``_BLOCK`` rows is one ``%`` of that format, repeated, over
    the block's cells.  A JSON row carries the ``indent=2`` layout and its
    leading ",", which the first row drops, so a JSON table is
    ``json.dumps(payload, indent=2) + "\\n"`` byte for byte."""
    names = [name for name, _ in columns]
    kinds = [kind for _, kind in columns]
    if args.format == "csv":
        head = ",".join(names) + "\n"
        fmt = ",".join(k.csv for k in kinds) + "\n"
        convert = [k.to_csv for k in kinds]
    else:
        payload = {"command": args.command, "columns": names, "rows": []}
        head = json.dumps(payload, indent=2)[:-3]  # ends with '"rows": ['
        specs = ",\n      ".join(k.json for k in kinds)
        fmt = ",\n    [\n      " + specs + "\n    ]"
        convert = [k.to_json for k in kinds]
    rows = iter(rows)
    if any(convert):
        rows = ([x if f is None else f(x) for f, x in zip(convert, row)]
                for row in rows)
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        out.write(head)
        skip = 0 if args.format == "csv" else 1
        while cells := tuple(itertools.chain.from_iterable(
                itertools.islice(rows, _BLOCK))):
            out.write(((fmt * (len(cells) // len(kinds))) % cells)[skip:])
            skip = 0
        if args.format == "json":
            out.write("]\n}\n" if skip else "\n  ]\n}\n")  # '[]' when empty
    finally:
        if args.output:
            out.close()


# -- prefixes ----------------------------------------------------------------


def _prefix(spec: WeightSpec, n: int) -> SigmaPrefix:
    """The first n rearrangement values, refused above the prefix cap."""
    _refuse_above_cap(n)
    if n >= _PROGRESS_AT:
        print(f"computing rearrangement prefix, N={n} ...", file=sys.stderr)
    return sigma_prefix(spec, n)


def _start_size(n_hi: int, sup: bool, prefix_n: int | None) -> int:
    """The first prefix length to enumerate, refused above the prefix cap;
    it comes from --prefix-n when given."""
    if prefix_n is not None:
        n = max(prefix_n, n_hi)
    elif sup:
        n = max(n_hi, min(max(64, 4 * n_hi), _PREFIX_CAP))
    else:
        n = n_hi
    _refuse_above_cap(n)
    return n


def _prefix_with_retry(spec: WeightSpec, n: int, compute):
    """Run `compute(prefix)` from a prefix of n terms, growing the prefix
    until the sup certificate fits."""
    while True:
        prefix = _prefix(spec, n)
        try:
            return compute(prefix)
        except PrefixTooShortError as exc:
            n = max(2 * n, exc.required)


# -- subcommands -------------------------------------------------------------


def _cmd_sigma(args: argparse.Namespace) -> Table:
    spec = _make_spec(args)
    n_max = _parse_int(args.n)
    if n_max < 1:
        raise ValueError("--n must be >= 1")
    prefix = _prefix(spec, n_max)
    columns = [("n", _INT), ("sigma", _FLOAT), ("cum_inv_sq", _FLOAT)]
    arrays = [prefix.values, prefix.cum_inv_sq]
    if args.check_box_radius is not None:
        arrays.append(sigma_bruteforce(spec, n_max, args.check_box_radius).values)
        columns.append(("sigma_oracle", _FLOAT))
    blocks = (
        zip(range(lo + 1, min(lo + _BLOCK, n_max) + 1),
            *(a[lo:lo + _BLOCK].tolist() for a in arrays))
        for lo in range(0, n_max, _BLOCK)
    )
    return columns, itertools.chain.from_iterable(blocks)


def _cmd_width(args: argparse.Namespace) -> Table:
    spec = _make_spec(args)
    embedding = Embedding(args.embedding)
    kind = WidthKind(args.kind)
    ns = _parse_int_list(args.n)

    def compute(prefix):
        values = width(prefix, embedding, kind, ns, p=args.p)
        return [[n, wv.lower, wv.upper, wv.exact] for n, wv in zip(ns, values)]

    n_hi = _top(ns)
    n = _start_size(n_hi, needs_sup(embedding, kind), args.prefix_n)
    check_width(spec, embedding, kind, ns, args.p)
    refuse_flat(spec, embedding, kind, n_hi)
    rows = _prefix_with_retry(spec, n, compute)
    return [("n", _INT), ("lower", _FLOAT), ("upper", _FLOAT), ("exact", _BOOL)], rows


def _cmd_converge(args: argparse.Namespace) -> Table:
    spec = _make_spec(args)
    embedding = Embedding(args.embedding)
    kind = WidthKind(args.kind)
    grid = _parse_int_list(args.n_grid)
    # the cap refusal comes first, as when it came with the enumeration
    n_hi = _top(grid)
    n = _start_size(n_hi, needs_sup(embedding, kind), args.prefix_n)
    check_convergence(embedding, kind, grid, args.alpha, args.beta)
    if not math.isfinite(args.target):
        raise ValueError(f"--target must be finite, got {args.target!r}")
    check_width(spec, embedding, kind, grid)
    refuse_flat(spec, embedding, kind, n_hi)

    def compute(prefix):
        table = convergence_table(
            prefix, embedding, kind, grid, args.alpha, args.beta
        )
        return [[*row, args.target] for row in table]

    rows = _prefix_with_retry(spec, n, compute)
    columns = [("n", _INT), ("raw", _FLOAT), ("normalizer", _FLOAT),
               ("ratio", _FLOAT), ("target", _FLOAT)]
    return columns, rows


def _cmd_constants(args: argparse.Namespace) -> Table:
    s = None if args.s is None else float(_parse_s(args.s))
    value = constant(args.name, s=s, d=args.d, tol=args.tol)
    return [("name", _CELL), ("value", _FLOAT)], [[args.name, value]]


def _cmd_count(args: argparse.Namespace) -> Table:
    if args.ell is None and args.d is None:
        raise ValueError("count requires --d (for C) or --ell (for A)")
    if args.ell is not None and args.d is not None:
        raise ValueError("count takes --d (for C) or --ell (for A), not both")
    if args.j is not None and args.ell is None:
        raise ValueError("count --j requires --ell")
    if args.r_ell is not None and args.j is None:
        raise ValueError("count --r-ell requires --j")
    s_frac = _parse_s(args.s)

    def row(r: int):
        if args.ell is None:
            return ["C", args.s, r, args.d, None, None, count_C(s_frac, r, args.d)]
        if args.j is None:
            return ["A", args.s, r, args.ell, None, None, count_A(s_frac, r, args.ell)]
        if args.r_ell is None or args.r_ell == "auto":
            r_ell = split_cut(s_frac, r, args.ell)
        else:
            r_ell = _parse_int(args.r_ell)
        cnt = count_A_split(s_frac, r, args.ell, args.j, r_ell)
        return ["A-split", args.s, r, args.ell, args.j, r_ell, cnt]

    rows = [row(r) for r in _parse_int_list(args.r_grid)]
    columns = [("kind", _CELL), ("s", _CELL), ("r", _INT), ("dim", _INT),
               ("j", _CELL), ("r_ell", _CELL), ("count", _INT)]
    return columns, rows


def _cmd_appendix_verify(args: argparse.Namespace) -> Table:
    s_frac = _parse_s(args.s)
    grid = _parse_int_list(args.r_grid)
    table = verify_appendix_limits(s_frac, args.d, grid, tol=args.tol)
    rows = [[*row, None] for row in table]
    if args.sandwich_r:
        for r in _parse_int_list(args.sandwich_r):
            ok = sandwich_check(s_frac, args.d, r)
            rows.append(["sandwich", r, None, None, None, None, None, None, ok])
    # a-split rows print ratio and target 0, an int, so those columns are
    # mixed
    names = ("section", "r", "ell", "j", "r_ell", "count", "ratio", "target", "ok")
    return [(name, _INT if name == "r" else _CELL) for name in names], rows


def _cmd_integral(args: argparse.Namespace) -> Table:
    s = float(_parse_s(args.s))
    # aux_integral checks s > 0 before the limit 1/(s+1) is formed
    values = [(n, aux_integral(s, args.beta, args.a, n))
              for n in _parse_int_list(args.n_grid)]
    limit = 1.0 / (s + 1.0)
    rows = [[n, val, limit, abs(val - limit)] for n, val in values]
    # quadrature values are not known finite, so they print as cells
    columns = [("n", _INT), ("value", _CELL), ("limit", _CELL), ("abs_dev", _CELL)]
    return columns, rows


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
        p.add_argument("--d", type=_parse_int, required=True,
                       help="lattice dimension")

    p = sub.add_parser("sigma", help="rearrangement prefix table")
    weight_args(p)
    p.add_argument("--n", required=True, help="prefix length")
    p.add_argument("--check-box-radius", type=_parse_int,
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
    p.add_argument("--prefix-n", type=_parse_int, help="override prefix length")
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
    p.add_argument("--prefix-n", type=_parse_int, help="override prefix length")
    common(p)

    p = sub.add_parser("constants", help="print a named constant")
    p.add_argument("--name", required=True, choices=list(CONSTANT_NAMES))
    p.add_argument("--s", help="smoothness, e.g. 1.5 or 3/2")
    p.add_argument("--d", type=_parse_int)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="series tolerance where used")
    common(p)

    p = sub.add_parser("count", help="exact lattice counts C / A / A-split")
    p.add_argument("--s", required=True, help="smoothness, e.g. 2 or 3/2")
    p.add_argument("--d", type=_parse_int, help="dimension for C counts")
    p.add_argument("--ell", type=_parse_int, help="support size for A counts")
    p.add_argument("--j", type=_parse_int, help="split index for A-split counts")
    p.add_argument("--r-ell", dest="r_ell",
                   help="split cut (integer or 'auto' for floor(r^lambda))")
    p.add_argument("--r-grid", required=True, dest="r_grid",
                   help="thresholds, e.g. 1..50 or 100,200,400")
    common(p)

    p = sub.add_parser("appendix-verify",
                       help="all count ratios against their proven limits")
    p.add_argument("--s", required=True)
    p.add_argument("--d", type=_parse_int, required=True)
    p.add_argument("--r-grid", required=True, dest="r_grid")
    p.add_argument("--sandwich-r", dest="sandwich_r",
                   help="also check rearrangement sandwich on these r, e.g. 2..8")
    p.add_argument("--tol", type=float, default=1e-10, help="series tolerance")
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
        _emit(args, *_DISPATCH[args.command](args))
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`).  Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OSError as exc:  # e.g. an --output path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        # ResourceLimitError covers sigma.CumSumOverflowError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OverflowError) as exc:
        # any other OverflowError is an input beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

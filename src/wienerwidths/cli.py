"""Command-line interface: batch tables for every library operation.

Each subcommand returns its (columns, data) table and ``main`` writes it,
as CSV or (``--format json``) as one JSON object.  The data hold one whole
sequence per column (a ``range``, a list or tuple, or a numpy array), and
the writer alone cuts them into blocks of at most 8,192 rows.  The columns
are:

    sigma            n, sigma, cum_inv_sq [, sigma_oracle]
    width            n, lower, upper, exact
    converge         n, raw, normalizer, ratio, target
    constants        name, value
    count            kind, s, r, dim, j, r_ell, count
    appendix-verify  section, r, ell, j, r_ell, count, ratio, target, ok
    integral         n, value, limit, abs_dev

One writer prints every table.  Each column has a kind (int, float, bool,
or a mixed cell for the small tables).  An array table, whose columns are
numpy arrays or ints in a ``range`` or an ``array("q")`` (``sigma``,
``width`` and ``converge``), prints as byte rows: the kernels of ``_floattext`` make each column's
block into a matrix of one row of bytes per cell, NUL-padded, which the
writer copies between the row's constant separator bytes into one row
matrix per block; one ``bytes.replace`` deletes the padding and the block
is written as one string.  The float kernels give the bytes of
``'%.17g' % x`` and ``repr(x)``, and hand each cell their error bound
cannot decide (0, -0, inf, nan, a subnormal, an exact tie or an end of
the rounding interval where the power of ten is no double) to Python's own
``%``; a run of bit-identical values, such as sigma across an orbit, is
formatted once.  The small tables (``constants``, ``count``,
``appendix-verify`` and ``integral``, which run without numpy) print
through ``%s``: each column's conversion turns its block into text cells,
and the block prints with one ``%`` of the row format.  The cell rules:
CSV writes None as empty, bools as true/false, floats with 17
significant digits and '.' decimal separator; JSON writes null,
true/false and ``repr`` floats, and a JSON table is
``json.dumps(payload, indent=2)`` plus a newline.  Output is
byte-identical across runs.  Tables stream out a block at a time
(``sigma`` hands over its prefix arrays, ``width`` and ``converge`` their
n grid and float64 arrays built from the one that
``widths._width_arrays`` returns, the small tables their rows transposed
into columns), so peak memory is the prefix, 16 bytes per row, plus a
width's few arrays of 8 bytes per grid entry, plus one block and the
kernels' block-long buffers, which are reused from block to block; rows
that can fail are all computed before the first byte.  An
exact width hands over its one value array as both lower and upper, and
the writer converts each distinct column object once per block.  An n
grid of several parts is held as an ``array("q")``, 8 bytes per entry.
Integers may be spelled 1.5e5.  Progress notes go to stderr, and so does
each warning, as the one line "warning: <category>: <message>".
A width or converge grid enumerates its largest n (or --prefix-n, where
larger), and a sup width takes more terms as its certificate needs them.
Prefix lengths above 30,000,000 are refused before any enumeration, and
so are grids of count, appendix-verify and integral longer than 100,000,
and an oracle box (``sigma --check-box-radius``) above its cap or with
fewer points than the prefix.
Exit codes: 0 success, 1 stdout closed early (broken pipe), 2 domain/usage
error or an --output path that cannot be opened, 3 resource cap.
Run as the program (``main()`` without argv, as the ``wiener-widths``
script and ``python -m wienerwidths.cli`` call it), ``main`` flushes
stdout and stderr once the exit code is decided and ends the process with
``os._exit``, skipping the interpreter's teardown, so atexit hooks that
site customizations register do not run.  An exception that escapes
``main`` (argparse's usage errors and --help, an interrupt, a bug's
traceback) exits the usual way, and ``main(argv)`` with a list returns
the code.

Importing this module loads neither numpy nor ``_floattext``.  ``sigma``,
``width``, ``converge`` and ``appendix-verify`` load numpy at their first
call into the array modules (``sigma``, ``widths``, ``weights``), and
``constants`` where it sums the series S (``s-series``, and
``h1-constant`` at d > 1); ``integral``, ``count`` and the other constants
run without it.  The first array table loads ``_floattext``.  ``main``
asks OpenBLAS for one thread, unless the environment already says, before
numpy loads: no command calls BLAS.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from array import array
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .asymptotics import (
    CONSTANT_NAMES,
    aux_integral,
    check_convergence,
    constant,
    convergence_table,
)
from .common import (
    Embedding,
    Family,
    ResourceLimitError,
    WidthKind,
    sigma_bruteforce,
    sigma_prefix,
    width,  # no subcommand calls it; perfbench's tracer wraps it here
)
from .lattice_count import (
    count_A,
    count_A_split,
    count_C,
    sandwich_check,
    split_cut,
    verify_appendix_limits,
)

if TYPE_CHECKING:
    from .sigma import SigmaPrefix
    from .weights import WeightSpec

__all__ = ["main"]

_PROGRESS_AT = 1_000_000
_BLOCK = 8_192  # rows per output block
# Longest grid of `count`, `appendix-verify` and `integral`, which compute
# every row before the first byte.
_GRID_CAP = 100_000

Columns = Sequence[tuple[str, "_Kind"]]  # (name, kind) per column
# (columns, data): data hold one whole sequence per column
Table = tuple[Columns, Sequence[Sequence]]


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


def _parse_int_list(text: str, capped: str | None = None) -> Sequence[int]:
    """Grids: comma-separated integers, 'a..b' inclusive ranges, 1e6 forms.

    A single range stays a lazy ``range``, so an oversized n range reaches
    the prefix cap check without first being expanded; an n grid of several
    parts is refused above the prefix cap on its largest entry, taken from
    the range ends, before it is expanded into an ``array("q")`` (a list
    where an entry is below 1, for the caller's refusal of it, since such
    an entry may not fit in 64 bits).  A grid whose rows are all
    computed before the first byte (``capped`` names its option) is refused
    above _GRID_CAP entries, counted from the range ends."""
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
    if capped is not None:
        size = sum(max(0, p.stop - p.start) if isinstance(p, range) else len(p)
                   for p in parts)
        if size > _GRID_CAP:
            raise ResourceLimitError(
                f"grid cap {_GRID_CAP} exceeded: {capped} has more entries"
            )
    if len(parts) == 1:
        return parts[0]
    if capped is None:
        from .sigma import _refuse_above_cap

        _refuse_above_cap(max(_top(p) for p in parts if p))
        # each part's first entry is its least
        if min(p[0] for p in parts if p) >= 1:
            from array import array

            grid = array("q")
            for p in parts:
                grid.extend(p)
            return grid
    return [n for p in parts for n in p]


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
    from .weights import WeightSpec

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


def _listed(col: Sequence) -> Sequence:
    """A column block as Python scalars: a numpy slice becomes a list."""
    return col.tolist() if hasattr(col, "tolist") else col


def _each(convert: Callable) -> Callable[[Sequence], list]:
    """The column conversion that converts every cell, as a Python scalar."""
    return lambda col: list(map(convert, _listed(col)))


def _floats(spec: str) -> Callable[[Sequence], list]:
    """The column conversion that prints each float as ``spec % x`` ("%.17g"
    or "%r"), cell by cell."""
    return lambda col: [spec % x for x in _listed(col)]


def _kernel(name: str) -> Callable:
    """The byte conversion through ``_floattext``'s kernel ``name``, which
    makes a block of an array column into its matrix of cells (``repr``
    floats where ``shortest``) in the buffer ``out``, with temporaries in
    ``work``; the module loads at the first call."""

    def convert(col: Sequence, shortest: bool, work, out):
        from . import _floattext

        return getattr(_floattext, name)(col, shortest, work, out)

    return convert


class _Kind(NamedTuple):
    """How a column prints: one conversion per format, which makes a block
    of the column into the cells that the row format's ``%s`` prints, and
    the byte conversion of an array column, None where it has none."""

    to_csv: Callable[[Sequence], Sequence] = _listed
    to_json: Callable[[Sequence], Sequence] = _listed
    to_bytes: Callable | None = None


_TRUE_FALSE = {True: "true", False: "false"}.__getitem__
# Python ints, which %s prints as %d does
_INT = _Kind(to_bytes=_kernel("int_cells"))
# finite floats only: %r prints inf and nan where json.dumps prints
# Infinity and NaN
_FLOAT = _Kind(_floats("%.17g"), _floats("%r"), _kernel("float_cells"))
_BOOL = _Kind(_each(_TRUE_FALSE), _each(_TRUE_FALSE), _kernel("bool_cells"))
# anything else: None, strings, bools, ints and floats mixed in one column
_CELL = _Kind(_each(_csv_cell), _each(json.dumps))


def _arrays(columns: Columns, data: Sequence[Sequence]) -> bool:
    """Whether the table prints as byte rows: every column has a byte
    conversion and is a numpy array, or a range or ``array("q")`` of ints."""
    np = sys.modules.get("numpy")
    return np is not None and bool(data) and all(
        kind.to_bytes is not None
        and (isinstance(col, (np.ndarray, range))
             or isinstance(col, array) and col.typecode == "q")
        for (_, kind), col in zip(columns, data))


def _text_blocks(
    fmt: str, columns: Columns, data: Sequence[Sequence], segments: list[str]
) -> Iterator[str]:
    """The blocks' text through ``%``: each column's conversion turns its
    slice of the block into cells, which fill every len(columns)-th slot
    of the block's cell list, and the block prints as one ``%`` of the row
    format, the segments with a ``%s`` between each two, once per row."""
    ncol = len(columns)
    row = "%s".join(segments)
    convert = [kind.to_csv if fmt == "csv" else kind.to_json
               for _, kind in columns]
    nrow = len(data[0]) if data else 0
    for lo in range(0, nrow, _BLOCK):
        hi = min(lo + _BLOCK, nrow)
        cells = [None] * ((hi - lo) * ncol)
        done = {}  # (conversion, column) -> cells, once per block
        for j, (f, col) in enumerate(zip(convert, data)):
            key = (f, id(col))
            if key not in done:
                done[key] = f(col[lo:hi])
            cells[j::ncol] = done[key]
        yield (row * (hi - lo)) % tuple(cells)


def _byte_blocks(
    fmt: str, columns: Columns, data: Sequence[Sequence], segments: list[str]
) -> Iterator[str]:
    """The blocks' text as byte rows: each column's byte conversion turns
    its slice of the block into a matrix of one row of bytes per cell, NUL
    where a cell leaves a slot of its column empty, which is copied into
    the block's row matrix between the segments' constant bytes; one
    ``bytes.replace`` deletes the NULs and the block is decoded once.  The
    row matrix, the columns' cell buffers and the kernels' temporaries
    are allocated once per table, and the segments are written again only
    where the block's layout (its rows and the columns' widths) changes."""
    import numpy as np

    from ._floattext import WIDEST, Work, buffer

    shortest = fmt == "json"
    convert = [kind.to_bytes for _, kind in columns]
    fixed = [np.frombuffer(seg.encode(), dtype=np.uint8) for seg in segments]
    between = sum(map(len, fixed))
    nrow = len(data[0])
    block = min(nrow, _BLOCK)
    buf = np.empty(block * (between + WIDEST * len(columns)), dtype=np.uint8)
    work = Work(block)
    held = [buffer(block) for _ in columns]
    layout = None
    for lo in range(0, nrow, _BLOCK):
        hi = min(lo + _BLOCK, nrow)
        done = {}  # (conversion, column) -> cells, once per block
        cells = []
        for f, col, out in zip(convert, data, held):
            key = (f, id(col))
            if key not in done:
                done[key] = f(col[lo:hi], shortest, work, out)
            cells.append(done[key])
        widths = [c.shape[1] for c in cells]
        rows = buf[:(hi - lo) * (between + sum(widths))].reshape(hi - lo, -1)
        if layout != (hi - lo, widths):
            layout = (hi - lo, widths)
            places, at = [], 0
            for seg, width in zip(fixed, [*widths, 0]):
                rows[:, at:at + len(seg)] = seg
                at += len(seg)
                places.append(at)
                at += width
        for at, c in zip(places, cells):
            rows[:, at:at + c.shape[1]] = c
        yield rows.tobytes().replace(b"\0", b"").decode("ascii")


def _emit(
    args: argparse.Namespace, columns: Columns, data: Sequence[Sequence]
) -> None:
    """Write the table to --output or the current stdout, a block at a time.

    ``data`` holds one sequence per column, of equal lengths (none for an
    empty table), and a block is at most ``_BLOCK`` rows of them.  A row is
    its cells between constant segments: CSV's "," and line end, or JSON's
    ``indent=2`` layout with its leading ",", which the first row drops, so
    a JSON table is ``json.dumps(payload, indent=2) + "\\n"`` byte for
    byte.  An array table (``sigma``, ``width``, ``converge``) prints as
    byte rows, the small tables through ``%s``; either way a column object
    that ``data`` holds twice under one kind is converted once per
    block."""
    names = [name for name, _ in columns]
    commas = [","] * (len(columns) - 1)
    if args.format == "csv":
        head = ",".join(names) + "\n"
        segments = ["", *commas, "\n"]
    else:
        payload = {"command": args.command, "columns": names, "rows": []}
        head = json.dumps(payload, indent=2)[:-3]  # ends with '"rows": ['
        segments = [",\n    [\n      ",
                    *(comma + "\n      " for comma in commas), "\n    ]"]
    blocks = _byte_blocks if _arrays(columns, data) else _text_blocks
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        out.write(head)
        skip = 0 if args.format == "csv" else 1
        for text in blocks(args.format, columns, data, segments):
            out.write(text[skip:])
            skip = 0
        if args.format == "json":
            out.write("]\n}\n" if skip else "\n  ]\n}\n")  # '[]' when empty
    finally:
        if args.output:
            out.close()


# -- prefixes ----------------------------------------------------------------


def _prefix(spec: WeightSpec, n: int) -> SigmaPrefix:
    """The first n rearrangement values, refused above the prefix cap."""
    from .sigma import _refuse_above_cap

    _refuse_above_cap(n)
    if n >= _PROGRESS_AT:
        print(f"computing rearrangement prefix, N={n} ...", file=sys.stderr)
    return sigma_prefix(spec, n)


# -- subcommands -------------------------------------------------------------


def _cmd_sigma(args: argparse.Namespace) -> Table:
    spec = _make_spec(args)
    n_max = _parse_int(args.n)
    if n_max < 1:
        raise ValueError("--n must be >= 1")
    if args.check_box_radius is not None:
        # the oracle's box is refused after the prefix cap, before enumerating
        from .sigma import _check_box, _refuse_above_cap

        _refuse_above_cap(n_max)
        _check_box(spec, n_max, args.check_box_radius)
    prefix = _prefix(spec, n_max)
    columns = [("n", _INT), ("sigma", _FLOAT), ("cum_inv_sq", _FLOAT)]
    data = [range(1, n_max + 1), prefix.values, prefix.cum_inv_sq]
    if args.check_box_radius is not None:
        data.append(sigma_bruteforce(spec, n_max, args.check_box_radius).values)
        columns.append(("sigma_oracle", _FLOAT))
    return columns, data


def _cmd_width(args: argparse.Namespace) -> Table:
    import numpy as np

    from .sigma import _refuse_above_cap
    from .widths import _width_arrays, check_width, refuse_flat

    spec = _make_spec(args)
    embedding = Embedding(args.embedding)
    kind = WidthKind(args.kind)
    ns = _parse_int_list(args.n)
    n_hi = _top(ns)
    n = max(n_hi, args.prefix_n or 0)
    _refuse_above_cap(n)
    check_width(spec, embedding, kind, ns, args.p)
    refuse_flat(spec, embedding, kind, n_hi)
    lower, upper, exact = _width_arrays(_prefix(spec, n), embedding, kind, ns,
                                        args.p)
    # an exact pair's upper is its lower array itself, which _emit
    # converts once; the exact column is one bool, viewed len(ns) times
    columns = [("n", _INT), ("lower", _FLOAT), ("upper", _FLOAT),
               ("exact", _BOOL)]
    return columns, [ns, lower, upper, np.broadcast_to(exact, len(ns))]


def _cmd_converge(args: argparse.Namespace) -> Table:
    import numpy as np

    from .sigma import _refuse_above_cap
    from .widths import check_width, refuse_flat

    spec = _make_spec(args)
    embedding = Embedding(args.embedding)
    kind = WidthKind(args.kind)
    grid = _parse_int_list(args.n_grid)
    # the cap refusal comes first, as when it came with the enumeration
    n_hi = _top(grid)
    n = max(n_hi, args.prefix_n or 0)
    _refuse_above_cap(n)
    check_convergence(embedding, kind, grid, args.alpha, args.beta)
    if not math.isfinite(args.target):
        raise ValueError(f"--target must be finite, got {args.target!r}")
    check_width(spec, embedding, kind, grid)
    refuse_flat(spec, embedding, kind, n_hi)
    raw, normalizer, ratio = convergence_table(
        _prefix(spec, n), embedding, kind, grid, args.alpha, args.beta
    )
    # the target is one float, viewed len(grid) times: one run
    target = np.broadcast_to(np.float64(args.target), len(grid))
    columns = [("n", _INT), ("raw", _FLOAT), ("normalizer", _FLOAT),
               ("ratio", _FLOAT), ("target", _FLOAT)]
    return columns, [grid, raw, normalizer, ratio, target]


def _cmd_constants(args: argparse.Namespace) -> Table:
    s = None if args.s is None else float(_parse_s(args.s))
    value = constant(args.name, s=s, d=args.d, tol=args.tol)
    return [("name", _CELL), ("value", _FLOAT)], [[args.name], [value]]


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

    rows = [row(r) for r in _parse_int_list(args.r_grid, "--r-grid")]
    columns = [("kind", _CELL), ("s", _CELL), ("r", _INT), ("dim", _INT),
               ("j", _CELL), ("r_ell", _CELL), ("count", _INT)]
    return columns, list(zip(*rows))


def _cmd_appendix_verify(args: argparse.Namespace) -> Table:
    s_frac = _parse_s(args.s)
    grid = _parse_int_list(args.r_grid, "--r-grid")
    table = verify_appendix_limits(s_frac, args.d, grid, tol=args.tol)
    rows = [[*row, None] for row in table]
    if args.sandwich_r:
        for r in _parse_int_list(args.sandwich_r, "--sandwich-r"):
            ok = sandwich_check(s_frac, args.d, r)
            rows.append(["sandwich", r, None, None, None, None, None, None, ok])
    # a-split rows print ratio and target 0, an int, so those columns are
    # mixed
    names = ("section", "r", "ell", "j", "r_ell", "count", "ratio", "target", "ok")
    columns = [(name, _INT if name == "r" else _CELL) for name in names]
    return columns, list(zip(*rows))


def _cmd_integral(args: argparse.Namespace) -> Table:
    s = float(_parse_s(args.s))
    grid = _parse_int_list(args.n_grid, "--n-grid")
    # aux_integral checks s > 0 before the limit 1/(s+1) is formed
    values = [(n, aux_integral(s, args.beta, args.a, n)) for n in grid]
    limit = 1.0 / (s + 1.0)
    rows = [[n, val, limit, abs(val - limit)] for n, val in values]
    # finite: aux_integral returns a value only where its error estimate
    # is at most 1e-10, which a nan or infinite sum fails, and refuses an
    # integrand that overflows
    columns = [("n", _INT), ("value", _FLOAT), ("limit", _FLOAT),
               ("abs_dev", _FLOAT)]
    return columns, list(zip(*rows))


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
    p.add_argument("--prefix-n", type=_parse_int, help="least length to enumerate")
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
    p.add_argument("--prefix-n", type=_parse_int, help="least length to enumerate")
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


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, without the file, line number and
    source line of the call that warned."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    # No command calls BLAS (the one einsum sums integer rows in numpy's
    # own loop), so OpenBLAS need not start a thread per core when numpy
    # loads; a caller's setting stands
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            _emit(args, *_DISPATCH[args.command](args))
            sys.stdout.flush()
            code = 0
        except BrokenPipeError:
            # The reader closed stdout (e.g. `| head`).  Point stdout at
            # devnull so no later flush can raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            code = 1
        except OSError as exc:  # e.g. an --output path that cannot be opened
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except (ResourceLimitError, MemoryError) as exc:
            # ResourceLimitError covers sigma.CumSumOverflowError
            print(f"error: {exc}", file=sys.stderr)
            code = 3
        except (ValueError, TypeError, OverflowError) as exc:
            # any other OverflowError is an input beyond the float range
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    if argv is not None:
        return code
    # The program: only the interpreter's teardown is left (two GC passes
    # over numpy's objects, then the modules'), so end at the last flushed
    # byte.  A flush that fails leaves the exit to the interpreter.
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())

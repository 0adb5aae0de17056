import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import cli, lattice_count, sigma
from wienerwidths.cli import _BLOCK, _parse_int, main

CLI = [sys.executable, "-m", "wienerwidths.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=300)


def test_sigma_example():
    out = run_cli("sigma", "--family", "mixed-inf", "--s", "1", "--d", "1",
                  "--n", "7")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "n,sigma,cum_inv_sq"
    sigmas = [line.split(",")[1] for line in lines[1:]]
    assert sigmas == ["1", "1", "1", "0.5", "0.5",
                      "0.33333333333333331", "0.33333333333333331"]


def test_width_flat_region_example():
    out = run_cli("width", "--family", "mixed-inf", "--s", "2", "--d", "2",
                  "--embedding", "a-to-a", "--kind", "approximation",
                  "--n", "1..12")
    assert out.returncode == 0
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[1:]]
    assert len(rows) == 12
    for n, lower, upper, exact in rows:
        assert exact == "true"
        if int(n) <= 9:
            assert lower == upper == "1"
        else:
            assert float(lower) < 1.0


def test_constants_example():
    out = run_cli("constants", "--name", "mix-l2-sigma", "--d", "2", "--s", "1")
    assert out.returncode == 0
    assert out.stdout.strip().splitlines()[1] == "mix-l2-sigma,4"


def test_byte_identical_runs_and_threads():
    count = ["count", "--s", "2", "--d", "2", "--r-grid", "1..40"]
    converge = ["converge", "--family", "mixed-inf", "--s", "1", "--d", "2",
                "--embedding", "a-to-a", "--kind", "weyl",
                "--n-grid", "100,1000,10000", "--alpha", "1", "--beta", "1",
                "--target", "4"]
    for args in (count, converge):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
    out = run_cli(*count, "--threads", "2")
    assert out.returncode == 2
    assert "--threads" in out.stderr and out.stdout == ""


def test_output_file_and_json(tmp_path):
    path = tmp_path / "t.csv"
    out = run_cli("integral", "--s", "1", "--beta", "0", "--a", "2",
                  "--n-grid", "100", "--output", str(path))
    assert out.returncode == 0 and out.stdout == ""
    text = path.read_text()
    assert text.splitlines()[0] == "n,value,limit,abs_dev"

    out = run_cli("width", "--family", "h1-ratio", "--s", "2", "--d", "1",
                  "--embedding", "hmix-to-h1", "--kind", "kolmogorov",
                  "--n", "2", "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["columns"] == ["n", "lower", "upper", "exact"]
    row = payload["rows"][0]
    assert row[0] == 2 and row[3] is True
    assert abs(row[1] - 2 ** -0.5) < 1e-15


def test_width_bracket_and_auto_prefix():
    # approximation widths need h beyond n; the CLI grows the prefix on its
    # own until the certificate fits
    out = run_cli("width", "--family", "mixed-sr", "--s", "1", "--r", "2",
                  "--d", "1", "--embedding", "cmix-to-l2",
                  "--kind", "approximation", "--n", "2")
    assert out.returncode == 0
    n, lower, upper, exact = out.stdout.strip().splitlines()[1].split(",")
    assert exact == "false"
    assert float(lower) < float(upper)


def test_sigma_oracle_column():
    out = run_cli("sigma", "--family", "mixed-sr", "--s", "1.5", "--r", "2",
                  "--d", "3", "--n", "100", "--check-box-radius", "12")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "n,sigma,cum_inv_sq,sigma_oracle"
    for line in lines[1:]:
        _, sigma, _, oracle = line.split(",")
        # the oracle runs through the log domain, so agreement is to the
        # contract tolerance rather than bitwise
        assert abs(float(sigma) - float(oracle)) <= 1e-12 * float(sigma)


def test_exit_code_usage_error():
    out = run_cli("sigma", "--family", "no-such-family", "--s", "1",
                  "--d", "1", "--n", "5")
    assert out.returncode == 2
    assert "invalid choice" in out.stderr and "mixed-sr" in out.stderr


def test_exit_code_domain_error():
    out = run_cli("sigma", "--family", "h1-ratio", "--s", "1", "--d", "2",
                  "--n", "5")
    assert out.returncode == 2
    assert "requires s>1" in out.stderr
    out = run_cli("count", "--s", "2", "--r-grid", "1..5")
    assert out.returncode == 2
    assert "count requires --d (for C) or --ell (for A)" in out.stderr
    # NaN fails every comparison, so the checks are written to refuse it
    out = run_cli("integral", "--s", "1", "--beta", "nan", "--a", "2",
                  "--n-grid", "100")
    assert out.returncode == 2
    assert out.stderr == "error: requires beta >= 0\n"
    assert out.stdout == ""


def test_exit_code_resource_cap(monkeypatch, capsys):
    out = run_cli("constants", "--name", "s-series", "--s", "4",
                  "--tol", "1e-14")
    assert out.returncode == 3
    assert "error:" in out.stderr
    # from s ~ 1e16 on the series exponent 2p - 1 rounds to 0; at s = 1e12
    # the rounding of p moves S by more than the tolerance; s = 2.289...
    # has a guard-band tie at (1, 1) that only integers could settle, and
    # its denominator is above 64
    series = "error: series tolerance 1e-10 unreachable for s="
    for argv, message in [
        (["constants", "--name", "s-series", "--s", "1e300"],
         series + "1e+300"),
        (["appendix-verify", "--s", "1e300", "--d", "2", "--r-grid", "3"],
         series + "1e+300"),
        (["constants", "--name", "s-series", "--s", "1e12"],
         series + "1000000000000.0: rounding p"),
        (["count", "--s", "2.289224226994103", "--d", "2", "--r-grid", "2"],
         "error: k=(1, 1) lies within the 1e-09 guard band of the r=2 "
         "threshold, and s=2289224226994103/1000000000000000 has a "
         "denominator above 64"),
        (["sigma", "--family", "mixed-inf", "--s", "400", "--d", "1",
          "--n", "10"], "error: cumsum overflow; reduce N or s"),
    ]:
        out = run_cli(*argv)
        assert out.returncode == 3, argv
        assert out.stderr.startswith(message), out.stderr
        assert "Traceback" not in out.stderr
        assert "Warning" not in out.stderr
        assert out.stdout == ""
    # the sandwich's prefix, C(8, 2) = 61 terms, is refused above the prefix
    # cap before it is enumerated

    def enumerate_prefix(*args):
        pytest.fail("sandwich_check enumerated a prefix above the cap")

    monkeypatch.setattr(sigma, "_PREFIX_CAP", 50)
    monkeypatch.setattr(lattice_count, "sigma_prefix", enumerate_prefix)
    code = main(["appendix-verify", "--s", "2", "--d", "2", "--r-grid", "3",
                 "--sandwich-r", "8"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: prefix cap 50 exceeded: N=61 requested\n"
    assert captured.out == ""


def test_appendix_verify_smoke():
    out = run_cli("appendix-verify", "--s", "2", "--d", "2",
                  "--r-grid", "20,40", "--sandwich-r", "2,3")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("section,r,ell,j,r_ell,count,ratio,target")
    sandwich = [l for l in lines if l.startswith("sandwich")]
    assert len(sandwich) == 2
    assert all(l.endswith("true") for l in sandwich)


def test_usage_errors_exit_2():
    cases = [
        (["nope"], "invalid choice"),
        (["width", "--family", "mixed-inf", "--s", "1", "--d", "1",
          "--n", "1..5", "--embedding", "a-to-a"], "--kind"),
        (["sigma", "--family", "mixed-inf", "--s", "1", "--d", "1", "--n", "5",
          "--format", "xml"], "invalid choice"),
        (["count", "--s", "2", "--r-grid", "1..5", "--d", "2", "--j", "1"],
         "count --j requires --ell"),
        (["count", "--s", "2", "--d", "3", "--ell", "2", "--r-grid", "9"],
         "count takes --d (for C) or --ell (for A), not both"),
        (["count", "--s", "2", "--d", "2", "--r-ell", "5", "--r-grid", "9"],
         "count --r-ell requires --j"),
    ]
    # each refused before the first byte instead of a traceback, a NaN row
    # or an infinite drift
    weyl = ["converge", "--family", "mixed-inf", "--s", "1", "--d", "1",
            "--embedding", "a-to-a", "--kind", "weyl", "--n-grid", "10",
            "--target", "1"]
    cases += [
        (["sigma", "--family", "mixed-inf", "--s", "3/0", "--d", "1",
          "--n", "3"], "error: zero denominator: '3/0'"),
        (["count", "--s", "3/0", "--d", "1", "--r-grid", "3"],
         "error: zero denominator: '3/0'"),
        (["appendix-verify", "--s", "3/0", "--d", "1", "--r-grid", "3"],
         "error: zero denominator: '3/0'"),
        (["integral", "--s", "-1", "--beta", "1", "--a", "2",
          "--n-grid", "10"], "error: requires s > 0"),
        ([*weyl, "--alpha", "400", "--beta", "0"],
         "error: normalizer n^-alpha (ln n)^beta is 0.0 at n=10"),
        ([*weyl, "--alpha", "nan", "--beta", "0"],
         "error: alpha and beta must be finite"),
        (["constants", "--name", "s-series", "--s", "1e300", "--tol", "inf"],
         "error: tol must be finite"),
        (["appendix-verify", "--s", "1e300", "--d", "1", "--r-grid", "10",
          "--tol", "inf"], "error: tol must be finite"),
        # beyond the float range: an OverflowError is a usage error, not a cap
        ([*weyl, "--alpha", "-400", "--beta", "0"],
         "error: normalizer n^-alpha (ln n)^beta overflows at n=10"),
        (["sigma", "--family", "mixed-inf", "--s", "1e400", "--d", "1",
          "--n", "3"], "error: beyond the float range: '1e400'"),
        (["constants", "--name", "mix-l2-sigma", "--s", "1", "--d", "2000"],
         "error: mix-l2-sigma leaves the float range at s=1.0, d=2000"),
        (["constants", "--name", "transfer-vw", "--s", "1e308"],
         "error: transfer-vw leaves the float range at s=1e+308, d=None"),
        (["constants", "--name", "transfer-vw", "--s", "1e308",
          "--format", "json"], "error: transfer-vw leaves the float range"),
        (["integral", "--s", "1", "--beta", "1e300", "--a", "2",
          "--n-grid", "1e300"],
         "error: the integrand leaves the float range at n=1e+300"),
    ]
    for argv, message in cases:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert message in out.stderr, (argv, out.stderr)
        assert "Traceback" not in out.stderr
        assert out.stdout == ""


def test_prefix_cap_refused_before_enumeration():
    weight = ["--family", "mixed-inf", "--s", "1", "--d", "2"]
    width_args = ["width", *weight, "--embedding", "a-to-l2",
                  "--kind", "approximation"]
    cases = [
        ["sigma", *weight, "--n", "4e7"],
        [*width_args, "--n", "4e7"],
        [*width_args, "--n", "1..40000000"],
        # a lazy range is refused without being walked
        ["width", *weight, "--embedding", "a-to-l2", "--kind", "bernstein",
         "--n", "1..1e300"],
        [*width_args, "--n", "5", "--prefix-n", "40000000"],
        ["converge", *weight, "--embedding", "a-to-l2",
         "--kind", "approximation", "--n-grid", "1..40000000",
         "--alpha", "1", "--beta", "1", "--target", "4"],
        ["converge", *weight, "--embedding", "a-to-l2",
         "--kind", "approximation", "--n-grid", "3..1e300",
         "--alpha", "1", "--beta", "1", "--target", "4"],
    ]
    for argv in cases:
        start = time.monotonic()
        out = run_cli(*argv)
        assert out.returncode == 3, argv
        assert "prefix cap" in out.stderr
        assert out.stdout == ""
        assert time.monotonic() - start < 30


def test_flat_weight_refused_before_enumerating(monkeypatch, capsys):
    # s = 1e-300 makes every weight within the prefix cap evaluate to 1.0,
    # so the sup certificate can never fire; the prefix used to double up
    # to the cap for minutes before the refusal
    weight = ["--family", "isotropic-inf", "--s", "1e-300", "--d", "1"]
    argv = ["width", *weight, "--embedding", "a-to-linf",
            "--kind", "kolmogorov", "--n", "5"]
    start = time.monotonic()
    out = run_cli(*argv)
    assert time.monotonic() - start < 30
    assert out.returncode == 3
    assert out.stderr.startswith(
        "error: every weight of a prefix within the cap 30000000 evaluates "
        "to 1.0")
    assert out.stdout == ""

    def no_prefix(*args):
        raise AssertionError("a prefix was enumerated")

    monkeypatch.setattr(cli, "sigma_prefix", no_prefix)
    converge = ["converge", *weight, "--embedding", "a-to-l2", "--kind",
                "approximation", "--n-grid", "10,100", "--alpha", "1",
                "--beta", "0", "--target", "1"]
    for refused in (argv, converge, [*argv[:-1], "1,2"]):
        assert main(refused) == 3, refused
        assert "evaluates to 1.0" in capsys.readouterr().err
    # usage errors still come first, and n = 1 or a sum-formula kind never
    # needs the certificate
    assert main(["width", *weight, "--embedding", "a-to-lp",
                 "--kind", "kolmogorov", "--n", "5"]) == 2
    assert "a-to-lp requires" in capsys.readouterr().err
    monkeypatch.undo()
    assert main([*argv[:-1], "1"]) == 0
    assert capsys.readouterr().out == "n,lower,upper,exact\n1,1,1,false\n"
    assert main(["width", *weight, "--embedding", "a-to-linf",
                 "--kind", "weyl", "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "2,0.70710678118654757,1,false")


def test_closed_stdout_exits_1_quietly():
    # the reader stops after one line, like `| head -1`
    proc = subprocess.Popen(
        CLI + ["sigma", "--family", "mixed-inf", "--s", "1", "--d", "1",
               "--n", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "n,sigma,cum_inv_sq\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert "Traceback" not in err


def test_unwritable_output_exits_2(tmp_path):
    path = str(tmp_path / "missing" / "x.csv")
    out = run_cli("constants", "--name", "transfer-uv", "--s", "1",
                  "--output", path)
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and path in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_main_returns_int():
    assert main(["constants", "--name", "transfer-vw", "--s", "1"]) == 0


def test_import_cli_leaves_scipy_unloaded():
    # scipy.integrate is imported by aux_integral only, when it first runs
    code = "import sys, wienerwidths.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_integer_arguments():
    assert _parse_int("7") == 7
    assert _parse_int("1.5e5") == 150_000
    assert _parse_int("123456789012345678901") == 123456789012345678901
    for text in ("2.5", "1e400", "nan", "-inf"):
        with pytest.raises(ValueError, match="not an integer"):
            _parse_int(text)
    weight = ["--family", "mixed-inf", "--s", "1", "--d", "2"]
    cases = [
        (["width", *weight, "--embedding", "a-to-l2", "--kind", "bernstein",
          "--n", "2.7"], "'2.7'"),
        (["width", *weight, "--embedding", "a-to-l2", "--kind", "bernstein",
          "--n", "1..2.5"], "'2.5'"),
        (["count", "--s", "2", "--d", "2", "--r-grid", "3.9"], "'3.9'"),
        (["converge", *weight, "--embedding", "a-to-l2", "--kind", "bernstein",
          "--n-grid", "10,31.6", "--alpha", "1", "--beta", "1",
          "--target", "1"], "'31.6'"),
        (["sigma", *weight, "--n", "2.5"], "'2.5'"),
        (["sigma", *weight, "--n", "1e400"], "'1e400'"),
        (["sigma", "--family", "mixed-inf", "--s", "1", "--d", "2.5",
          "--n", "5"], "'2.5'"),
        (["count", "--s", "2", "--ell", "2", "--j", "1", "--r-ell", "2.5",
          "--r-grid", "9"], "'2.5'"),
    ]
    for argv, value in cases:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert f"not an integer: {value}" in out.stderr, (argv, out.stderr)
        assert out.stdout == ""
    out = run_cli("sigma", *weight, "--n", "2e0")
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 3
    # every integer option takes the same spellings as --n
    width_args = ["width", *weight, "--embedding", "a-to-l2",
                  "--kind", "approximation", "--n", "5"]
    plain = run_cli(*width_args, "--prefix-n", "1000")
    spelled = run_cli(*width_args, "--prefix-n", "1e3")
    assert plain.returncode == spelled.returncode == 0, spelled.stderr
    assert spelled.stdout == plain.stdout


def _sigma(n, *extra):
    return run_cli("sigma", "--family", "mixed-inf", "--s", "1", "--d", "2",
                   "--n", str(n), *extra)


def test_json_layout_across_blocks():
    # one row, exactly one block, and one row past a block boundary
    for n in (1, _BLOCK, _BLOCK + 1):
        out = _sigma(n, "--format", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert out.stdout == json.dumps(payload, indent=2) + "\n"
        assert payload["command"] == "sigma"
        assert [row[0] for row in payload["rows"]] == list(range(1, n + 1))
    # CSV rows are the JSON rows with floats at 17 significant digits
    csv_out = _sigma(_BLOCK + 1)
    assert csv_out.returncode == 0
    lines = csv_out.stdout.splitlines()
    assert lines[0] == ",".join(payload["columns"])
    expected = [
        ",".join(str(x) if isinstance(x, int) else format(x, ".17g")
                 for x in row)
        for row in payload["rows"]
    ]
    assert lines[1:] == expected


# -- the table writer against the renderer it replaced ----------------------


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _reference(command, fmt, columns, rows):
    """csv.writer over the cell rules, or json.dumps of the whole payload."""
    names = [name for name, _ in columns]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_fmt_cell(x) for x in row] for row in rows)
        return buf.getvalue()
    payload = {"command": command, "columns": names,
               "rows": [list(row) for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _written(command, fmt, columns, rows):
    args = argparse.Namespace(command=command, format=fmt, output=None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(args, columns, rows)
    return buf.getvalue()


_MIXED_INF = ["--family", "mixed-inf", "--s", "1", "--d", "2"]
_WRITER_TABLES = [
    ["sigma", "--family", "mixed-sr", "--s", "3/2", "--r", "2", "--d", "3",
     "--n", "60", "--check-box-radius", "12"],
    # exact widths (true) and brackets (false)
    ["width", *_MIXED_INF, "--embedding", "a-to-a", "--kind", "weyl",
     "--n", "1..12"],
    ["width", "--family", "mixed-sr", "--s", "1", "--r", "2", "--d", "1",
     "--embedding", "cmix-to-l2", "--kind", "approximation", "--n", "1..5"],
    ["converge", *_MIXED_INF, "--embedding", "a-to-l2", "--kind",
     "approximation", "--n-grid", "10,100,1000", "--alpha", "1",
     "--beta", "1", "--target", "4"],
    ["constants", "--name", "transfer-vw", "--s", "3/2"],
    # the s column echoes "3/2"; C and A rows hold None in j and r_ell
    ["count", "--s", "3/2", "--d", "3", "--r-grid", "1..6"],
    ["count", "--s", "3/2", "--ell", "2", "--r-grid", "1..6"],
    ["count", "--s", "3/2", "--ell", "3", "--j", "2", "--r-ell", "auto",
     "--r-grid", "5,17"],
    # a-split rows print ratio and target as the int 0; sandwich rows are
    # None but for a bool
    ["appendix-verify", "--s", "2", "--d", "2", "--r-grid", "8",
     "--sandwich-r", "2..3"],
    ["integral", "--s", "1", "--beta", "1", "--a", "2", "--n-grid", "10,1e4"],
    # one row, exactly one block, and one row past a block boundary
    *(["sigma", *_MIXED_INF, "--n", str(n)] for n in (1, _BLOCK, _BLOCK + 1)),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _WRITER_TABLES,
                         ids=lambda a: "-".join([a[0], *a[-2:]]))
def test_writer_matches_reference(argv, fmt):
    args = cli._build_parser().parse_args([*argv, "--format", fmt])
    columns, rows = cli._DISPATCH[args.command](args)
    rows = list(rows)
    assert rows
    expected = _reference(args.command, fmt, columns, rows)
    assert _written(args.command, fmt, columns, rows) == expected
    # an empty table is the header alone, or a JSON "rows": []
    empty = _written(args.command, fmt, columns, [])
    assert empty == _reference(args.command, fmt, columns, [])


_KIND_VALUES = {
    cli._INT: st.integers(),
    cli._FLOAT: st.floats(allow_nan=False, allow_infinity=False),
    cli._BOOL: st.booleans(),
    # the writer quotes as csv.writer does on Python 3.10 and 3.11, which
    # leave "\r" unquoted under a "\n" line end; text with "\r" is not
    # drawn, so the check does not rest on that version detail
    cli._CELL: st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(st.characters(blacklist_characters="\r"))),
}


@st.composite
def _tables(draw):
    # every table has at least two columns (csv.writer quotes a lone empty
    # field)
    kinds = draw(st.lists(st.sampled_from(list(_KIND_VALUES)), min_size=2,
                          max_size=5))
    columns = [(f"c{i}", kind) for i, kind in enumerate(kinds)]
    rows = draw(st.lists(st.tuples(*(_KIND_VALUES[k] for k in kinds)),
                         max_size=4))
    return columns, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_tables(), st.sampled_from(["csv", "json"]))
def test_writer_cell_rules(table, fmt):
    columns, rows = table
    assert _written("t", fmt, columns, rows) == _reference("t", fmt, columns,
                                                           rows)


def test_failing_row_writes_nothing():
    # r = 0 fails on the second row, after r = 5 was counted
    out = run_cli("count", "--s", "2", "--d", "2", "--r-grid", "5,0")
    assert out.returncode == 2
    assert "error:" in out.stderr
    assert out.stdout == ""


def test_converge_refuses_before_enumerating(monkeypatch, capsys):
    import wienerwidths.cli as cli

    def no_prefix(*args):
        raise AssertionError("a prefix was enumerated")

    monkeypatch.setattr(cli, "sigma_prefix", no_prefix)
    base = ["converge", "--family", "mixed-inf", "--s", "1", "--d", "2",
            "--alpha", "1", "--beta", "1", "--target", "4"]
    bracket = "convergence tables need an exact width; {} yields a bracket"
    cases = [
        ("a-to-linf", "approximation", "1000,10000,100000",
         bracket.format("a-to-linf")),
        ("a-to-lp", "approximation", "1000,10000", bracket.format("a-to-lp")),
        ("cmix-to-l2", "kolmogorov", "1000,10000", bracket.format("cmix-to-l2")),
        ("a-to-l2", "approximation", "100000,1000",
         "n_grid must be strictly increasing"),
        ("a-to-l2", "approximation", "1000,1000",
         "n_grid must be strictly increasing"),
        ("a-to-l2", "approximation", "2,1000",
         "n_grid entries must be >= 3 (ln n normalizer)"),
    ]
    for embedding, kind, grid, message in cases:
        argv = [*base, "--embedding", embedding, "--kind", kind,
                "--n-grid", grid]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n", argv
        assert captured.out == ""


# A child's ru_maxrss starts at its spawner's peak (exec keeps the high-water
# mark of the replaced image), so a small interpreter, not pytest, spawns the
# measured command.
_RSS_PROBE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_rss_mb(argv):
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, *CLI, *argv],
                         capture_output=True, text=True, timeout=300)
    code, maxrss = map(int, out.stdout.split())
    assert code == 0, (argv, out.stderr)
    # ru_maxrss counts kilobytes, except bytes on macOS
    return maxrss / (2**20 if sys.platform == "darwin" else 2**10)


def test_sigma_table_memory_is_bounded():
    # the table streams from the prefix arrays; only they grow with n
    sigma = ["sigma", "--family", "mixed-sr", "--s", "3/2", "--r", "2",
             "--d", "3"]
    for fmt, bound_mb in (("csv", 30), ("json", 80)):
        small = _peak_rss_mb([*sigma, "--n", "10", "--format", fmt])
        large = _peak_rss_mb([*sigma, "--n", "3e5", "--format", fmt])
        assert large - small < bound_mb, (fmt, small, large)

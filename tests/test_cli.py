import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import operator
import os
import resource
import subprocess
import sys
import time
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wienerwidths import (
    Embedding, ResourceLimitError, WidthKind, cli, lattice_count, sigma, width,
)
from wienerwidths import widths
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
    # approximation widths need h beyond n; width takes more terms on its
    # own until the certificate fires
    out = run_cli("width", "--family", "mixed-sr", "--s", "1", "--r", "2",
                  "--d", "1", "--embedding", "cmix-to-l2",
                  "--kind", "approximation", "--n", "2")
    assert out.returncode == 0
    n, lower, upper, exact = out.stdout.strip().splitlines()[1].split(",")
    assert exact == "false"
    assert float(lower) < float(upper)


def test_sup_width_needs_no_terms_past_its_certificate(capsys):
    # this weight has 169 terms with a finite sigma^-2, and the certificate
    # of n = 50 fires within them; a prefix guessed at 4n ran past them and
    # refused
    width = ["width", "--family", "mixed-inf", "--s", "80", "--d", "1",
             "--embedding", "a-to-l2", "--kind", "approximation"]
    for n, row in [
        ("50", "50,1.4604370749289267e-112,1.4604370749289267e-112,true"),
        ("5", "5,5.8490502040228813e-25,5.8490502040228813e-25,true"),
        ("20", "20,9.9999997613444706e-81,9.9999997613444706e-81,true"),
    ]:
        assert main([*width, "--n", n]) == 0
        assert capsys.readouterr().out == f"n,lower,upper,exact\n{row}\n"
    assert main([*width, "--n", "200"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: cumsum overflow; reduce N or s\n"
    assert captured.out == ""


def test_sup_width_reads_as_far_as_its_certificate(monkeypatch, capsys):
    # the certificate of n = 24,000 fires near h = 36,000: the prefix of
    # 24,000 terms takes 24,000 more once, where a 4n guess took 96,000
    taken = []
    take = sigma._Walk.take

    def counting(walk, values, cum, at, k):
        taken.append(k)
        return take(walk, values, cum, at, k)

    monkeypatch.setattr(sigma._Walk, "take", counting)
    assert main(["width", "--family", "mixed-inf", "--s", "1", "--d", "1",
                 "--embedding", "a-to-l2", "--kind", "approximation",
                 "--n", "1..24000"]) == 0
    out = capsys.readouterr().out
    assert sum(taken) <= 48_000, taken
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6fcb26a731360a282c68d67365fa8de2ebbfe4982a1bf604d0451d68bc716a83")


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
        # grids whose rows are all computed before the first byte
        (["integral", "--s", "2", "--beta", "2.5", "--a", "4",
          "--n-grid", "100..1e300"],
         "error: grid cap 100000 exceeded: --n-grid has more entries"),
        (["count", "--s", "3/2", "--d", "2", "--r-grid", "1..1e300"],
         "error: grid cap 100000 exceeded: --r-grid has more entries"),
        (["appendix-verify", "--s", "2", "--d", "2", "--r-grid", "8",
          "--sandwich-r", "1..1e300,5"],
         "error: grid cap 100000 exceeded: --sandwich-r has more entries"),
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
        (["constants", "--name", "mix-l2-sigma", "--s", "1", "--d", "1e9"],
         "error: mix-l2-sigma leaves the float range at s=1.0, d=1000000000"),
        # underflows to 0, as the power of a base that is a normal float
        (["constants", "--name", "mix-l2-sigma", "--s", "2", "--d", "171"],
         "error: mix-l2-sigma leaves the float range at s=2.0, d=171"),
        (["constants", "--name", "transfer-vw", "--s", "1e308"],
         "error: transfer-vw leaves the float range at s=1e+308, d=None"),
        (["constants", "--name", "transfer-vw", "--s", "1e308",
          "--format", "json"], "error: transfer-vw leaves the float range"),
        (["integral", "--s", "1", "--beta", "1e300", "--a", "2",
          "--n-grid", "1e300"],
         "error: the integrand leaves the float range at n=1e+300"),
        # the oracle's box, refused before 2e7 terms are enumerated
        (["sigma", "--family", "mixed-inf", "--s", "1", "--d", "2",
          "--n", "2e7", "--check-box-radius", "100000"],
         "error: box too large: (2*100000+1)^2 elements exceed the cap"),
        (["sigma", "--family", "mixed-inf", "--s", "1", "--d", "2",
          "--n", "2e7", "--check-box-radius", "1000"],
         "error: box too small: only 4004001 points for n_max=20000000"),
    ]
    for argv, message in cases:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert message in out.stderr, (argv, out.stderr)
        assert "Traceback" not in out.stderr
        assert "computing rearrangement prefix" not in out.stderr
        assert out.stdout == ""


def _limit_address_space():
    # a grid expanded by mistake then fails within the limit instead of
    # taking the machine's memory until the timeout
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


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
        # a grid of several parts is refused on its largest entry, taken
        # from the range ends, before it is expanded
        [*width_args, "--n", "1..1e300,5"],
        ["converge", *weight, "--embedding", "a-to-l2",
         "--kind", "approximation", "--n-grid", "5,1..1e300",
         "--alpha", "1", "--beta", "1", "--target", "4"],
    ]
    for argv in cases:
        start = time.monotonic()
        out = subprocess.run(CLI + argv, capture_output=True, text=True,
                             timeout=30, preexec_fn=_limit_address_space)
        assert out.returncode == 3, argv
        assert "prefix cap" in out.stderr
        assert out.stdout == ""
        assert time.monotonic() - start < 30


def test_multi_part_grid_is_packed():
    parse = cli._parse_int_list
    assert parse("4..6,2") == array("q", [4, 5, 6, 2])
    assert parse("20000..1,7,1..2") == array("q", [7, 1, 2])
    assert parse("7") == [7] and parse("1..3") == range(1, 4)
    # an entry below 1, which may not fit in 64 bits, keeps the list, so
    # that check_width refuses it by its own message
    assert parse("3,-1e30") == [3, int(-1e30)]
    assert parse("0,1..3", "--r-grid") == [0, 1, 2, 3]
    for grid, bad in (("3,-1e30", int(-1e30)), ("0,1..3", 0), ("1..3,-2", -2)):
        out = run_cli("width", "--family", "mixed-inf", "--s", "1", "--d", "2",
                      "--embedding", "a-to-a", "--kind", "weyl", f"--n={grid}")
        assert out.returncode == 2, grid
        assert out.stderr == f"error: n must be a positive integer, got {bad}\n"
        assert out.stdout == ""


def test_width_checks_its_grid_once(monkeypatch, capsys):
    # a grid of several parts is walked entry by entry, once
    calls = []
    check = widths.check_width
    monkeypatch.setattr(widths, "check_width",
                        lambda *args: calls.append(args) or check(*args))
    argv = ["width", *_MIXED_INF, "--embedding", "a-to-l2", "--kind",
            "approximation", "--n", "1..50,7"]
    assert main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count("\n") == 52


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


# one command of each subcommand, and both of REPRODUCE.md section 11
_EVERY_SUBCOMMAND = [
    ["sigma", "--family", "mixed-inf", "--s", "1", "--d", "2", "--n", "20"],
    ["width", "--family", "mixed-inf", "--s", "1", "--d", "2", "--embedding",
     "a-to-l2", "--kind", "approximation", "--n", "1..20"],
    ["converge", "--family", "mixed-inf", "--s", "1", "--d", "1",
     "--embedding", "a-to-a", "--kind", "approximation", "--n-grid",
     "10,100,1000", "--alpha", "1", "--beta", "0", "--target", "1"],
    ["constants", "--name", "h1-constant", "--s", "2", "--d", "2"],
    ["count", "--s", "3/2", "--ell", "2", "--r-grid", "1..10"],
    ["appendix-verify", "--s", "2", "--d", "2", "--r-grid", "8",
     "--sandwich-r", "2..3"],
    ["integral", "--s", "1", "--beta", "1", "--a", "2", "--n-grid",
     "10000,1000000,100000000"],
    ["integral", "--s", "2", "--beta", "2", "--a", "2", "--n-grid",
     "10000,1000000,100000000"],
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=[
    "sigma", "width", "converge", "constants", "count", "appendix-verify",
    "integral-s1", "integral-s2"])
def test_every_subcommand_runs_without_scipy(argv):
    # scipy is the tests' QUADPACK oracle; with every import of it failing,
    # each command prints what it prints with scipy importable
    code = ("import runpy, sys; sys.modules['scipy'] = None; "
            "runpy.run_module('wienerwidths.cli', run_name='__main__')")
    blocked = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True, timeout=120)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr == ""
    plain = run_cli(*argv)
    assert plain.returncode == 0, plain.stderr
    assert blocked.stdout == plain.stdout


# stdout block-buffered, as in a pipeline: a byte the program's exit
# failed to flush would be lost
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _in_process(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=[
    "sigma", "width", "converge", "constants", "count", "appendix-verify",
    "integral-s1", "integral-s2"])
def test_program_run_ends_like_main(argv, fmt, tmp_path, capsys):
    # run as the program, main ends the process at its last flushed byte;
    # the table, the exit code and the empty stderr are those main(argv)
    # returns with, on stdout and through --output alike
    argv = [*argv, "--format", fmt]
    code, out, err = _in_process(argv, capsys)
    assert (code, err) == (0, "")
    program = subprocess.run(CLI + argv, capture_output=True, timeout=120,
                             env=_BUFFERED)
    assert (program.returncode, program.stderr) == (0, b"")
    assert program.stdout == out
    path = tmp_path / f"table.{fmt}"
    program = subprocess.run(CLI + [*argv, "--output", str(path)],
                             capture_output=True, timeout=120, env=_BUFFERED)
    assert (program.returncode, program.stderr, program.stdout) == (0, b"", b"")
    assert path.read_bytes() == out


@pytest.mark.parametrize("argv, code", [
    (["sigma", "--family", "h1-ratio", "--s", "1", "--d", "2", "--n", "5"], 2),
    (["sigma", "--family", "mixed-inf", "--s", "1", "--d", "1",
      "--n", "1e8"], 3),
], ids=["domain-error", "prefix-cap"])
def test_program_refusal_ends_like_main(argv, code, capsys):
    want = _in_process(argv, capsys)
    assert want[0] == code and want[2].startswith("error: ")
    program = subprocess.run(CLI + argv, capture_output=True, text=True,
                             timeout=120, env=_BUFFERED)
    assert (program.returncode, program.stdout.encode(), program.stderr) == want


_SECTION_11 = _EVERY_SUBCOMMAND[-2:]
# (argv, exit code): both REPRODUCE.md section 11 integrals, the constants
# that sum no series, the three kinds of count, and a refusal of every
# subcommand, which for the array commands argparse makes
_WITHOUT_NUMPY = [
    *((argv, 0) for argv in _SECTION_11),
    (["constants", "--name", "mix-l2-sigma", "--s", "3/2", "--d", "3"], 0),
    (["constants", "--name", "transfer-uv", "--s", "1"], 0),
    (["constants", "--name", "transfer-vw", "--s", "1"], 0),
    (["constants", "--name", "preasymptotic", "--d", "10"], 0),
    (["constants", "--name", "h1-constant", "--s", "2", "--d", "1"], 0),
    (["count", "--s", "3/2", "--d", "4", "--r-grid", "1..50"], 0),
    (["count", "--s", "3/2", "--ell", "2", "--r-grid", "1..10"], 0),
    (["count", "--s", "3/2", "--ell", "3", "--j", "2", "--r-ell", "auto",
      "--r-grid", "5..20"], 0),
    (["sigma", "--family", "no-such-family", "--s", "1", "--d", "1",
      "--n", "5"], 2),
    (["width", "--family", "mixed-inf", "--s", "1", "--d", "1", "--embedding",
      "a-to-l2", "--kind", "no-such-kind", "--n", "5"], 2),
    (["converge", "--family", "mixed-inf", "--s", "1", "--d", "1",
      "--embedding", "no-such-embedding", "--kind", "approximation",
      "--n-grid", "10", "--alpha", "1", "--beta", "0", "--target", "1"], 2),
    (["constants", "--name", "transfer-uv"], 2),
    (["count", "--s", "2", "--r-grid", "1..5"], 2),
    (["appendix-verify", "--s", "1", "--d", "2", "--r-grid", "3"], 2),
    (["integral", "--s", "-1", "--beta", "1", "--a", "2", "--n-grid", "10"], 2),
]


@pytest.mark.parametrize("argv, code", _WITHOUT_NUMPY,
                         ids=[" ".join(argv) for argv, _ in _WITHOUT_NUMPY])
def test_numpy_free_commands_run_without_numpy(argv, code):
    # with every import of numpy failing, each command gives the stdout,
    # exit code and stderr it gives with numpy importable
    run = ("import runpy, sys; sys.modules['numpy'] = None; "
           "runpy.run_module('wienerwidths.cli', run_name='__main__')")
    blocked = subprocess.run([sys.executable, "-c", run, *argv],
                             capture_output=True, text=True, timeout=120)
    plain = run_cli(*argv)
    assert plain.returncode == code, plain.stderr
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)


def test_imports_load_no_numpy():
    # nor the float kernels, which a float array column loads
    code = ("import sys, wienerwidths; print('numpy' in sys.modules); "
            "import wienerwidths.cli; print('numpy' in sys.modules, "
            "'wienerwidths._floattext' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "False"]


def test_openblas_threads_default(monkeypatch, capsys):
    # importing the module leaves the environment alone; main asks
    # OpenBLAS for one thread unless the caller chose a number
    code = ("import os; before = dict(os.environ); import wienerwidths.cli; "
            "print(dict(os.environ) == before, "
            "'OPENBLAS_NUM_THREADS' in os.environ)")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]
    argv = ["constants", "--name", "transfer-uv", "--s", "1"]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    capsys.readouterr()


def test_flagged_quadrature_prints_and_warns():
    # QUADPACK flags this integral (ier 4) but its error estimate meets
    # 1e-10, so the value prints and a warning goes to stderr
    out = run_cli("integral", "--s", "0.5", "--beta", "3.061779504742648",
                  "--a", "10.165475012173426", "--n-grid", "51878509090")
    assert out.returncode == 0
    assert out.stdout.splitlines()[1] == (
        "51878509090,0.7288720015785739,0.66666666666666663,"
        "0.062205334911907273")
    # one line, without the path and line of the call that warned
    assert out.stderr == (
        "warning: IntegrationWarning: The algorithm does not converge.  "
        "Roundoff error is detected in the extrapolation table.  It is "
        "assumed that the requested tolerance cannot be achieved, and that "
        "the returned result is the best which can be obtained.\n")


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


def _written(command, fmt, columns, data):
    args = argparse.Namespace(command=command, format=fmt, output=None)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(args, columns, data)
    return buf.getvalue()


def _rows(data):
    """The rows of a table's columns, numpy cells as Python scalars."""
    return list(zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                      for col in data)))


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
    # an array("q") grid whose n cross 9 -> 10 and 99999 -> 100000
    ["width", *_MIXED_INF, "--embedding", "a-to-a", "--kind", "weyl",
     "--n", "9,10,3,99999,100000,1"],
]


def _float_columns(columns, data, as_column):
    """The data with every float column passed through ``as_column``."""
    return [as_column(col) if kind is cli._FLOAT else col
            for (_, kind), col in zip(columns, data)]


def _as_list(col):
    return col.tolist() if hasattr(col, "tolist") else list(col)


def _as_array(col):
    return np.asarray(col, dtype=np.float64)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", _WRITER_TABLES,
                         ids=lambda a: "-".join([a[0], *a[-2:]]))
def test_writer_matches_reference(argv, fmt):
    args = cli._build_parser().parse_args([*argv, "--format", fmt])
    columns, data = cli._DISPATCH[args.command](args)
    rows = _rows(data)
    assert rows
    expected = _reference(args.command, fmt, columns, rows)
    assert _written(args.command, fmt, columns, data) == expected
    # float columns print alike as Python lists, cell by cell, and as
    # arrays, through the kernels
    for as_column in (_as_list, _as_array):
        floats = _float_columns(columns, data, as_column)
        assert _written(args.command, fmt, columns, floats) == expected
    # an empty table is the header alone, or a JSON "rows": []; its data
    # hold no column (rows transposed) or empty ones
    for empty in ([], [[] for _ in columns]):
        assert (_written(args.command, fmt, columns, empty)
                == _reference(args.command, fmt, columns, []))


def _counted(calls):
    """Each kind that ``calls`` holds, with conversions that count their
    calls there."""

    def counting(key, f):
        def convert(col, *args):
            calls[key] += 1
            return f(col, *args)
        return convert if f else None

    return {kind: kind._replace(to_csv=counting(kind, kind.to_csv),
                                to_json=counting(kind, kind.to_json),
                                to_bytes=counting(kind, kind.to_bytes))
            for kind in calls}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_converts_a_column_object_once_per_block(fmt):
    # an exact width hands its one value array over as lower and upper;
    # a bracket's two ends are two arrays
    for embedding, shared in (("a-to-a", True), ("a-to-linf", False)):
        argv = ["width", *_MIXED_INF, "--embedding", embedding, "--kind",
                "weyl", "--n", f"1..{2 * _BLOCK + 1}", "--format", fmt]
        args = cli._build_parser().parse_args(argv)
        columns, data = cli._DISPATCH["width"](args)
        assert (data[1] is data[2]) is shared
        calls = {kind: 0 for _, kind in columns}
        counted = _counted(calls)
        columns = [(name, counted[kind]) for name, kind in columns]
        expected = _reference("width", fmt, columns, _rows(data))
        assert _written("width", fmt, columns, data) == expected
        # three blocks: the shared array takes one call per block, a
        # bracket's two ends two
        assert calls[cli._FLOAT] == (3 if shared else 6)
    # one column object held twice under one kind, next to an equal copy
    col = np.arange(2 * _BLOCK + 1, dtype=np.float64)
    calls = {cli._FLOAT: 0}
    kind = _counted(calls)[cli._FLOAT]
    columns = [("a", kind), ("b", kind), ("c", kind)]
    data = [col, col, col.copy()]
    assert (_written("t", fmt, columns, data)
            == _reference("t", fmt, columns, _rows(data)))
    assert calls[cli._FLOAT] == 6


# a weight every embedding of the key takes (h1-ratio for the H^1
# embeddings, the m = 1 mixed weight for cmix-to-l2)
_WIDTH_WEIGHTS = {
    "amix-to-h1": ["--family", "h1-ratio", "--s", "2", "--d", "2"],
    "hmix-to-h1": ["--family", "h1-ratio", "--s", "2", "--d", "2"],
    "cmix-to-l2": ["--family", "mixed-sr", "--s", "1", "--r", "2", "--d", "2"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", [k.value for k in WidthKind])
@pytest.mark.parametrize("embedding", [e.value for e in Embedding])
def test_width_table_matches_width_values(embedding, kind, fmt, capsys):
    # the width table against csv.writer and json.dumps of width()'s
    # WidthValues: exact pairs (one value slice printed twice) and brackets
    # (upper equal along runs), on a repeated, unsorted grid and on a range
    # past one block
    weight = _WIDTH_WEIGHTS.get(embedding, _MIXED_INF)
    extra = ["--p", "4"] if embedding == "a-to-lp" else []
    for grid in ("40,3,3,1..25,7,40,2", f"1..{_BLOCK + 9}"):
        argv = ["width", *weight, "--embedding", embedding, "--kind", kind,
                "--n", grid, *extra, "--format", fmt]
        args = cli._build_parser().parse_args(argv)
        ns = cli._parse_int_list(grid)
        prefix = sigma.sigma_prefix(cli._make_spec(args), max(ns))
        values = width(prefix, Embedding(embedding), WidthKind(kind), ns,
                       p=args.p)
        rows = [[n, w.lower, w.upper, w.exact] for n, w in zip(ns, values)]
        columns = [(name, None) for name in ("n", "lower", "upper", "exact")]
        assert main(argv) == 0
        assert capsys.readouterr().out == _reference("width", fmt, columns, rows)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_KIND_VALUES = {
    cli._INT: st.integers(),
    cli._FLOAT: st.sampled_from([0.0, 1.0]) | _FINITE,
    cli._BOOL: st.booleans(),
    # the writer quotes as csv.writer does on Python 3.10 and 3.11, which
    # leave "\r" unquoted under a "\n" line end; text with "\r" is not
    # drawn, so the check does not rest on that version detail
    cli._CELL: st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(st.characters(blacklist_characters="\r"))),
}


_INT64 = st.integers(-(2**63), 2**63 - 1)


# A run of _FLOAT may take its value from the run before it: negated (0.0
# then -0.0) or one ulp away, which compare equal or close but print apart
_STEPS = [None, operator.neg, lambda x: math.nextafter(x, math.inf),
          lambda x: math.nextafter(x, -math.inf)]


@st.composite
def _tables(draw):
    """Columns, their rows, the same table as columns, and a drawn block
    size, so that runs of equal cells cross block ends."""
    # every table has at least two columns (csv.writer quotes a lone empty
    # field)
    # half the tables hold arrays only, which print as byte rows
    arrays = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from([cli._INT, cli._FLOAT, cli._BOOL]
                                          if arrays else list(_KIND_VALUES)),
                          min_size=2, max_size=5))
    columns = [(f"c{i}", kind) for i, kind in enumerate(kinds)]
    n = draw(st.integers(0, 12))
    cols = []
    for kind in kinds:
        # an int column is a list of any ints, or int64 values as an
        # array("q") or a range, which the byte rows print
        packed = kind is cli._INT and (arrays or draw(st.booleans()))
        if packed and n and draw(st.booleans()):
            step = draw(st.sampled_from([1, -1, 7]))
            start = draw(st.integers(-(2**62), 2**62))
            cols.append(range(start, start + n * step, step))
            continue
        values = draw(st.lists(_INT64 if packed else _KIND_VALUES[kind],
                               min_size=n, max_size=n))
        if kind is cli._FLOAT:
            steps = draw(st.lists(st.sampled_from(_STEPS), min_size=n,
                                  max_size=n))
            for i in range(1, n):
                if steps[i] is not None:
                    # a step past the largest float leaves the kind's
                    # finite floats; the drawn value stays then
                    stepped = steps[i](values[i - 1])
                    if math.isfinite(stepped):
                        values[i] = stepped
        lengths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        col = [x for x, k in zip(values, lengths) for _ in range(k)][:n]
        # a float or bool column is a list or an array, which the kernels
        # print
        if packed:
            col = array("q", col)
        elif kind in (cli._FLOAT, cli._BOOL) and (arrays or draw(st.booleans())):
            col = np.array(col, dtype=np.float64 if kind is cli._FLOAT else bool)
        cols.append(col)
    size = draw(st.integers(1, max(n, 1)))
    return columns, _rows(cols), cols, size


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_tables(), st.sampled_from(["csv", "json"]))
def test_writer_cell_rules(table, fmt):
    columns, rows, cols, size = table
    with mock.patch.object(cli, "_BLOCK", size):
        written = _written("t", fmt, columns, cols)
    assert written == _reference("t", fmt, columns, rows)


# the least subnormal, and an exact %.17g tie below 1e-6: cells the
# kernels' bound leaves to Python
_UNDECIDED = [5e-324, 3 * 2.0**-24]


def _byte_tables():
    """(name, columns, data, block size) of array tables whose hard cases
    fall on the rows next to a block end."""
    ints, floats, bools = cli._INT, cli._FLOAT, cli._BOOL
    n = np.arange(1, 25)
    undecided = np.linspace(1.5, 2.5, 24)
    undecided[[0, 7, 8, 15, 16, 23]] = _UNDECIDED * 3
    runs = np.repeat([0.1, 0.2, -0.0, 0.0, 0.2, 1e-300], [5, 7, 3, 6, 2, 1])
    yield "9 to 10 inside a block", [("n", ints), ("x", floats)], [
        range(1, 25), n / 3], 10
    yield "9 to 10 at a block end", [("n", ints), ("x", floats)], [
        range(1, 25), n / 3], 9
    yield "99999 to 100000 inside and at a block end", [
        ("n", ints), ("m", ints), ("x", floats)], [
        range(99990, 100014), range(99994, 100018), n * 1e5], 10
    yield "array(q)", [("n", ints), ("ok", bools)], [
        array("q", [9, 10, 3, 99999, 100000, 1, 2**63 - 1, 5]),
        np.broadcast_to(True, 8)], 3
    yield "undecided first and last rows", [("n", ints), ("x", floats),
                                             ("y", floats)], [
        range(1, 25), undecided, -undecided], 8
    yield "runs across block ends", [("n", ints), ("x", floats),
                                      ("ok", bools)], [
        range(1, 25), runs, runs > 0.1], 4
    yield "one row", [("n", ints), ("x", floats)], [range(7, 8), n[:1] / 7], 8
    yield "empty", [("n", ints), ("x", floats)], [range(1, 1), n[:0] / 7], 8


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_byte_rows(fmt):
    # array tables print as byte rows: the same text as the reference,
    # block by block, through the kernels and not cell by cell
    for name, columns, data, size in _byte_tables():
        assert cli._arrays(columns, data), name
        with mock.patch.object(cli, "_BLOCK", size), \
                mock.patch.object(cli, "_text_blocks", None):
            written = _written("t", fmt, columns, data)
        assert written == _reference("t", fmt, columns, _rows(data)), name


@pytest.mark.filterwarnings("ignore::wienerwidths.asymptotics.IntegrationWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.floats(0, 20, exclude_min=True) | st.floats(0, 1e300, exclude_min=True),
       st.floats(0, 20) | st.floats(0, 1e300),
       st.floats(1, 10, exclude_min=True) | st.floats(1, 1e300, exclude_min=True),
       st.lists(st.integers(11, 10**12) | st.integers(2, 10**300), min_size=1,
                max_size=3))
def test_integral_columns_are_finite(s, beta, a, grid):
    # integral prints value, limit and abs_dev as _FLOAT columns, which
    # hold finite floats only: a value comes back or the grid is refused;
    # mostly moderate arguments, so that most grids come back
    argv = ["integral", "--s", repr(s), "--beta", repr(beta), "--a", repr(a),
            "--n-grid", ",".join(map(str, grid))]
    args = cli._build_parser().parse_args(argv)
    try:
        columns, data = cli._DISPATCH["integral"](args)
    except (ValueError, ResourceLimitError):
        return
    for (_, kind), col in zip(columns, data):
        if kind is cli._FLOAT:
            assert all(isinstance(x, float) and math.isfinite(x) for x in col)


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


def test_width_grid_memory_is_bounded():
    # a width grid streams from a few float64 arrays, 8 bytes per entry
    # each, next to the prefix (the sup certificate reads it to about
    # 1.5 n, 16 bytes per term): 1..2e5 peaks about 15 MB above a 10-row
    # grid, and a table of per-n Python rows and WidthValues reads 63 MB
    sup = ["width", "--family", "mixed-inf", "--s", "1", "--d", "1",
           "--embedding", "a-to-l2", "--kind", "approximation"]
    for fmt in ("csv", "json"):
        small = _peak_rss_mb([*sup, "--n", "1..10", "--format", fmt])
        large = _peak_rss_mb([*sup, "--n", "1..2e5", "--format", fmt])
        assert large - small < 30, (fmt, small, large)
    # a lone far row: the prefix of 2e6 terms grows by 2e6 more, 16 bytes
    # a term (61 MiB), and the row is scanned alone in windows of at most
    # _CELLS values of h (1 MiB each), not in one window from its start
    small = _peak_rss_mb([*sup, "--n", "1..10"])
    lone = _peak_rss_mb([*sup, "--n", "5,2000000"])
    assert lone - small < 16 * 4e6 / 2**20 + 12, (small, lone)


def test_multi_part_grid_memory_is_bounded():
    # a grid of several parts is packed 8 bytes per entry, as a range's
    # values are in the arrays: the same entries in two parts add about
    # 1.4 MB, where a list of Python ints (39 bytes an entry) added 7.6 MB;
    # both grids increase, so neither is sorted in the sup pass
    sup = ["width", "--family", "mixed-inf", "--s", "1", "--d", "1",
           "--embedding", "a-to-l2", "--kind", "approximation"]
    one = _peak_rss_mb([*sup, "--n", "1..2e5"])
    parts = _peak_rss_mb([*sup, "--n", "1..1e5,100001..2e5"])
    assert parts - one < 4, (one, parts)


@pytest.mark.parametrize("weight, n", [
    (["--family", "h1-ratio", "--s", "15/8", "--d", "2"], "1e5"),
    (["--family", "mixed-sr", "--s", "7/4", "--r", "2", "--d", "3"], "2e5"),
    (["--family", "mixed-inf", "--s", "1", "--d", "1"], "4e5"),
])
def test_enumeration_memory_is_bounded(weight, n):
    # the enumeration's bands and tables stay small next to the prefix
    # arrays, 16 bytes per row: 1.6, 3.2 and 6.4 MB here
    small = _peak_rss_mb(["sigma", *weight, "--n", "10"])
    large = _peak_rss_mb(["sigma", *weight, "--n", n])
    assert large - small < 12, (small, large)


def test_oracle_memory_is_bounded(tmp_path):
    # the box oracle streams its 5.2M-point box, 42 MB of float64, a slab
    # at a time: it adds the n_max terms it keeps and a slab of about 2 MB
    section_02 = ["sigma", "--family", "mixed-sr", "--s", "3/2", "--r", "2",
                  "--d", "3", "--n", "10000"]
    plain = _peak_rss_mb([*section_02, "--output", str(tmp_path / "plain.csv")])
    checked = _peak_rss_mb([*section_02, "--check-box-radius", "86",
                            "--output", str(tmp_path / "sigma_oracle.csv")])
    assert checked - plain < 12, (plain, checked)

import json
import os
import subprocess
import sys
import time

import pytest

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


def test_exit_code_resource_cap():
    out = run_cli("constants", "--name", "s-series", "--s", "4",
                  "--tol", "1e-14")
    assert out.returncode == 3
    assert "error:" in out.stderr
    # from s ~ 1e16 on the series exponent 2p - 1 rounds to 0
    for argv in (["constants", "--name", "s-series", "--s", "1e300"],
                 ["appendix-verify", "--s", "1e300", "--d", "2",
                  "--r-grid", "3"]):
        out = run_cli(*argv)
        assert out.returncode == 3, argv
        assert out.stderr.startswith("error: series tolerance 1e-10 "
                                     "unreachable for s=1e+300"), out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""


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
    for argv, message in cases:
        out = run_cli(*argv)
        assert out.returncode == 2, argv
        assert message in out.stderr, (argv, out.stderr)
        assert out.stdout == ""


def test_prefix_cap_refused_before_enumeration():
    weight = ["--family", "mixed-inf", "--s", "1", "--d", "2"]
    width_args = ["width", *weight, "--embedding", "a-to-l2",
                  "--kind", "approximation"]
    cases = [
        ["sigma", *weight, "--n", "4e7"],
        [*width_args, "--n", "4e7"],
        [*width_args, "--n", "1..40000000"],
        [*width_args, "--n", "5", "--prefix-n", "40000000"],
        ["converge", *weight, "--embedding", "a-to-l2",
         "--kind", "approximation", "--n-grid", "1..40000000",
         "--alpha", "1", "--beta", "1", "--target", "4"],
    ]
    for argv in cases:
        start = time.monotonic()
        out = run_cli(*argv)
        assert out.returncode == 3, argv
        assert "prefix cap" in out.stderr
        assert out.stdout == ""
        assert time.monotonic() - start < 30


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

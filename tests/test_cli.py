import json
import subprocess
import sys
import time

from wienerwidths.cli import main

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


def test_exit_code_resource_cap():
    out = run_cli("constants", "--name", "s-series", "--s", "4",
                  "--tol", "1e-14")
    assert out.returncode == 3
    assert "error:" in out.stderr


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
    ]
    for argv in cases:
        start = time.monotonic()
        out = run_cli(*argv)
        assert out.returncode == 3, argv
        assert "prefix cap" in out.stderr
        assert out.stdout == ""
        assert time.monotonic() - start < 30


def test_main_returns_int():
    assert main(["constants", "--name", "transfer-vw", "--s", "1"]) == 0

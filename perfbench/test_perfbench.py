"""Tests of the benchmark's own arithmetic and gate.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""
import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oracle import CheckFailed, check_output, check_width  # noqa: E402
from run import _gate  # noqa: E402
from tracing import Span, command_metrics, self_times  # noqa: E402
from workloads import Command  # noqa: E402


def _cli(argv) -> str:
    from wienerwidths.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_self_times_nested():
    spans = [
        Span(0, None, "cli.main", 0, 100),
        Span(1, 0, "widths.width", 10, 40),
        Span(2, 1, "widths.sup_over_h", 20, 30),
        Span(3, 0, "sigma.sigma_prefix", 50, 90),
    ]
    assert self_times(spans) == {0: 30.0, 1: 20.0, 2: 10.0, 3: 40.0}
    figures = command_metrics(spans)
    assert figures["cli.main_s"] == pytest.approx(100e-9)
    assert figures["cli.self_s"] == pytest.approx(30e-9)
    assert figures["widths.self_s"] == pytest.approx(30e-9)
    assert figures["sigma.self_s"] == pytest.approx(40e-9)
    assert figures["widths.sup_s"] == pytest.approx(10e-9)
    assert figures["widths.width_calls"] == 1
    assert sum(v for k, v in figures.items() if k.endswith(".self_s")) == pytest.approx(100e-9)


def test_self_times_overlapping_threads():
    # two worker-thread spans under one parent, overlapping on [40, 60]
    spans = [
        Span(0, None, "cli.main", 0, 100),
        Span(1, 0, "widths.width", 10, 60),
        Span(2, 0, "widths.width", 40, 90),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 20.0, 1: 40.0, 2: 40.0}
    assert sum(selfs.values()) == 100.0
    assert command_metrics(spans)["widths.self_s"] == pytest.approx(80e-9)


def test_gate_rejects_sigma_row_one_ulp_off():
    cmd = Command(("sigma", "--family", "mixed-inf", "--s", "3/2", "--d", "1",
                   "--n", "200"), "sigma")
    text = _cli(list(cmd.argv))
    digests = {cmd.key: _sha(text)}
    assert check_output(cmd, 0, text, _sha(text), digests) == 200
    lines = text.split("\n")
    n, sigma, cum = lines[50].split(",")
    bumped = format(math.nextafter(float(sigma), 0.0), ".17g")
    lines[50] = ",".join((n, bumped, cum))
    changed = "\n".join(lines)
    with pytest.raises(CheckFailed):
        check_output(cmd, 0, changed, _sha(changed), digests)


def test_width_oracle_rejects_swapped_rows():
    argv = ["width", "--family", "mixed-inf", "--s", "1", "--d", "1",
            "--embedding", "a-to-l2", "--kind", "approximation", "--n", "1..60"]
    text = _cli(argv)
    assert check_width(argv, text) == 60
    lines = text.split("\n")
    lines[20], lines[40] = lines[40], lines[20]
    with pytest.raises(CheckFailed):
        check_width(argv, "\n".join(lines))
    # same n column, values swapped
    lines = text.split("\n")
    a, b = lines[20].split(",", 1), lines[40].split(",", 1)
    lines[20], lines[40] = f"{a[0]},{b[1]}", f"{b[0]},{a[1]}"
    with pytest.raises(CheckFailed):
        check_width(argv, "\n".join(lines))


def test_exit_zero_where_refusal_expected_fails():
    cmd = Command(("sigma", "--family", "mixed-sr", "--s", "3/2", "--r", "2", "--d", "3",
                   "--n", "10000", "--check-box-radius", "64"), "refusal", exit_code=2)
    digest = _sha("")
    digests = {cmd.key: digest}
    logged = []
    assert _gate([cmd], [b""], [[(2, digest)]], digests, logged.append) == (0, 0)
    assert _gate([cmd], [b""], [[(0, digest), (2, digest)]], digests, logged.append) == (0, 2)
    assert logged and "exit code 0" in logged[0]

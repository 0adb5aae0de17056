"""Benchmark of the `wiener-widths` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 runs the workload's commands as a closed loop, one fresh
interpreter per command, exactly as ``wiener-widths`` would run them, and
repeats the list for about ``--seconds`` (the nearest whole number of
passes).  It
reports the end-to-end metrics:

    setup_s      fresh-interpreter start until ``import wienerwidths.cli``
                 returns, median over every command run
    wall_s       wall time of the whole command list: the sum over commands
                 of each command's median time across the passes
    rows_per_s   output data rows of the list / wall_s
    peak_rss_mb  largest peak RSS of any command process (median across
                 passes), taken per process from os.wait4
    ok_frac      command runs that passed the gate / command runs attempted

--trace 1 instead runs the list in a child interpreter through
``wienerwidths.cli.main(argv)``, once untraced and once with spans around
the package's public functions (see ``tracing.py``), in alternating order,
and reports the per-layer metrics (medians across child runs).

Before any timing, two fresh interpreters import the package and are
discarded, so that bytecode compilation and a cold page cache do not land
in the first sample.  After the timing, every output goes through the gate
in ``oracle.py``; each command run whose exit code, bytes or oracle check
is wrong counts as failed.

``--record-digests`` runs every command any seed can produce once and
writes the sha256 of each output to ``digests.json``, after checking it
with the oracle; run it only on a commit whose output bytes are the
reference.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
OUT = BENCH / "out"
WORK = OUT / "work"
DIGESTS = BENCH / "digests.json"
# Every run must end well within 180 s; a command still running at this
# point after the start is killed and counts as failed.
DEADLINE_S = 150.0

from oracle import CheckFailed, check_output  # noqa: E402
from workloads import WORKLOADS, Command, all_variants, commands_for  # noqa: E402

# What `wiener-widths` runs, plus one line on stderr: the CLOCK_MONOTONIC
# time at which the package import returned.
SHIM = (
    "import os, sys, time\n"
    "from wienerwidths.cli import main\n"
    "os.write(2, repr(time.monotonic()).encode() + b'\\n')\n"
    "sys.exit(main())\n"
)


@dataclass
class Sample:
    elapsed: float  # s, spawn until reaped
    setup: float  # s, spawn until the package import returned
    exit: int
    rss_kb: int
    digest: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # bytecode of the package and of its dependencies is written to and
    # read from the checkout only
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("WIDTHS_THREADS", None)  # keep the CLI's default thread count
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, float, int, int, bytes]:
    """Run a process in WORK; stdout goes to WORK/stdout.

    Returns (start time, elapsed s, exit code, peak RSS in KB, stderr).  A process still
    running at the deadline is killed.
    """
    with open(WORK / "stdout", "wb") as out, open(WORK / "stderr", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=WORK, env=_env())
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - t0
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, elapsed, proc.returncode, usage.ru_maxrss, (WORK / "stderr").read_bytes()


def _output_bytes(cmd: Command) -> bytes:
    path = WORK / (cmd.output_file or "stdout")
    return path.read_bytes() if path.exists() else b""


def _run_command(cmd: Command, deadline: float) -> tuple[Sample, bytes]:
    if cmd.output_file:
        (WORK / cmd.output_file).unlink(missing_ok=True)
    t0, elapsed, code, rss, err = _spawn(
        [sys.executable, "-c", SHIM, *cmd.argv], deadline
    )
    try:
        setup = float(err.split(b"\n", 1)[0]) - t0
    except ValueError:  # died before the import returned
        setup = float("nan")
    data = _output_bytes(cmd)
    return Sample(elapsed, setup, code, rss, hashlib.sha256(data).hexdigest()), data


def _warm_up(deadline: float) -> None:
    for _ in range(2):
        _spawn([sys.executable, "-c", "import wienerwidths.cli"], deadline)


def _keep_going(start: float, passes: int, seconds: float, deadline: float) -> bool:
    """Start another pass if that ends nearer to ``seconds`` than stopping
    now, assuming it takes as long as the average pass so far."""
    now = time.monotonic()
    per_pass = (now - start) / passes
    return now + per_pass / 2 <= start + seconds and now + per_pass < deadline


def _gate(cmds, first_texts, runs, digests, log) -> tuple[int, int]:
    """Check every command run; returns (rows in one list, failed runs).

    ``runs[i]`` are (exit code, digest) of command i across passes; the
    oracle reads the first pass's text, and a later run must repeat it.
    """
    rows = failed = 0
    for cmd, text, cmd_runs in zip(cmds, first_texts, runs):
        code, digest = cmd_runs[0]
        try:
            rows += check_output(cmd, code, text.decode(), digest, digests)
            ok = True
        except CheckFailed as exc:
            log(f"FAILED {cmd.key}: {exc}")
            ok = False
        except Exception as exc:  # unparsable output is a failed command
            log(f"FAILED {cmd.key}: {type(exc).__name__}: {exc}")
            ok = False
        for run in cmd_runs:
            if not ok or run != cmd_runs[0]:
                failed += 1
    return rows, failed


def _host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(cmds, seconds, deadline, digests, log) -> tuple[dict, int, int, dict]:
    start = time.monotonic()
    passes: list[list[Sample]] = []
    first_texts: list[bytes] = []
    while True:
        samples = []
        for cmd in cmds:
            sample, data = _run_command(cmd, deadline)
            samples.append(sample)
            if not passes:
                first_texts.append(data)
        passes.append(samples)
        if not _keep_going(start, len(passes), seconds, deadline):
            break
    per_cmd = list(zip(*passes))
    runs = [[(s.exit, s.digest) for s in c] for c in per_cmd]
    rows, failed = _gate(cmds, first_texts, runs, digests, log)
    attempted = len(cmds) * len(passes)
    wall = sum(statistics.median(s.elapsed for s in c) for c in per_cmd)
    setups = [s.setup for p in passes for s in p if not math.isnan(s.setup)]
    metrics = {
        "setup_s": _metric(statistics.median(setups) if setups else 0.0, "s"),
        "wall_s": _metric(wall, "s"),
        "rows_per_s": _metric(rows / wall, "rows/s"),
        "peak_rss_mb": _metric(
            max(statistics.median(s.rss_kb for s in c) for c in per_cmd) / 1024, "MB"
        ),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "passes": len(passes),
        "commands": [
            {
                "argv": list(cmd.argv),
                "elapsed_s": [s.elapsed for s in c],
                "setup_s": [s.setup for s in c],
                "rss_kb": [s.rss_kb for s in c],
                "exit": [s.exit for s in c],
            }
            for cmd, c in zip(cmds, per_cmd)
        ],
    }
    return metrics, attempted, failed, detail


# per-layer metric -> unit; derived ones are computed in run_traced
LAYER_UNITS = {
    "import.cli_s": "s",
    "import.modules_loaded": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
    "cli.self_ns_per_row": "ns",
    "sigma.prefix_s": "s",
    "sigma.prefix_calls": "count",
    "sigma.prefix_points": "count",
    "sigma.orbits": "count",
    "sigma.ns_per_point": "ns",
    "sigma.oracle_s": "s",
    "sigma.self_s": "s",
    "weights.box_s": "s",
    "weights.self_s": "s",
    "widths.width_calls": "count",
    "widths.sup_calls": "count",
    "widths.sup_s": "s",
    "widths.too_short": "count",
    "widths.prefix_useful_ratio": "ratio",
    "widths.self_s": "s",
    "asymptotics.convergence_s": "s",
    "asymptotics.constant_s": "s",
    "asymptotics.integral_s": "s",
    "asymptotics.self_s": "s",
    "lattice_count.count_calls": "count",
    "lattice_count.count_s": "s",
    "lattice_count.points": "count",
    "lattice_count.appendix_s": "s",
    "lattice_count.sandwich_s": "s",
    "lattice_count.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _layer_figures(child: dict) -> dict[str, float]:
    m = dict(child["traced"]["metrics"])
    points = m.get("sigma.prefix_points", 0.0)
    m["import.cli_s"] = child["import_s"]
    m["import.modules_loaded"] = float(child["modules_loaded"])
    m["cli.self_ns_per_row"] = (
        m["cli.self_s"] * 1e9 / m["cli.rows_out"] if m["cli.rows_out"] else 0.0
    )
    m["sigma.ns_per_point"] = m.get("sigma.prefix_s", 0.0) * 1e9 / points if points else 0.0
    m["widths.prefix_useful_ratio"] = (
        m.get("sigma.useful_points", 0.0) / points if points else 0.0
    )
    m["trace.overhead_frac"] = child["traced"]["wall_s"] / child["untraced"]["wall_s"] - 1.0
    return {k: m.get(k, 0.0) for k in LAYER_UNITS}


def run_traced(cmds, seconds, deadline, digests, log, trace_out: Path) -> tuple[dict, int, int, dict]:
    job_path = OUT / "job.json"
    result_path = OUT / "child_result.json"
    start = time.monotonic()
    children = []
    while True:
        job = {
            "commands": [list(c.argv) for c in cmds],
            "traced_first": len(children) % 2 == 1,
            "output_dir": str(WORK),
            "trace_out": str(trace_out),
        }
        job_path.write_text(json.dumps(job))
        result_path.unlink(missing_ok=True)
        t0, _, code, _, err = _spawn(
            [sys.executable, str(BENCH / "traced_child.py"), str(job_path), str(result_path)],
            deadline,
        )
        if code != 0:
            raise RuntimeError(f"traced run exited {code}: {err.decode()[-2000:]}")
        child = json.loads(result_path.read_text())
        child["import_s"] = child["import_done"] - t0
        children.append(child)
        if not _keep_going(start, len(children), seconds, deadline):
            break
    texts = [(WORK / f"traced_{i}.out").read_bytes() for i in range(len(cmds))]
    runs = [
        [
            (c[p]["commands"][i]["exit"], c[p]["commands"][i]["sha256"])
            for c in children
            for p in ("untraced", "traced")
        ]
        for i in range(len(cmds))
    ]
    # the texts are the last child's traced pass; its run is compared first
    runs = [[r[-1]] + r[:-1] for r in runs]
    _, failed = _gate(cmds, texts, runs, digests, log)
    figures = [_layer_figures(c) for c in children]
    metrics = {
        k: _metric(statistics.median(f[k] for f in figures), unit)
        for k, unit in LAYER_UNITS.items()
    }
    detail = {"children": len(children), "per_child": figures}
    return metrics, len(cmds) * 2 * len(children), failed, detail


def record_digests(deadline: float, log) -> int:
    """Run every command variant once, check it, and write digests.json."""
    digests = {}
    bad = 0
    for cmd in all_variants():
        sample, data = _run_command(cmd, deadline)
        try:
            check_output(cmd, sample.exit, data.decode(), sample.digest,
                         {cmd.key: sample.digest})
        except CheckFailed as exc:
            log(f"FAILED {cmd.key}: {exc}")
            bad += 1
        digests[cmd.key] = sample.digest
        log(f"{sample.elapsed:7.3f} s  {cmd.key}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    if not (ROOT / "src" / "wienerwidths" / "cli.py").is_file():
        log(f"error: no src/wienerwidths/cli.py under {ROOT}; run from a source checkout")
        return 2
    sys.pycache_prefix = str(OUT / "pycache")
    sys.path.insert(0, str(ROOT / "src"))  # the gate's oracles use the package
    WORK.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if args.record_digests:
        return record_digests(deadline, log)
    if args.workload is None:
        parser.error("--workload is required")

    cmds = commands_for(args.workload, args.seed)
    digests = json.loads(DIGESTS.read_text())
    _warm_up(deadline)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, detail = run_traced(
            cmds, args.seconds, deadline, digests, log, OUT / f"trace_{tag}.json"
        )
    else:
        metrics, attempted, failed, detail = run_end_to_end(
            cmds, args.seconds, deadline, digests, log
        )
    host = _host()
    log(f"host: {json.dumps(host)}")
    (OUT / f"result_{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "host": host, "metrics": metrics,
         "attempted": attempted, "failed": failed, "detail": detail},
        indent=1,
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One traced run: the workload's commands through ``wienerwidths.cli.main``
in this process, once untraced and once traced.

Usage: python3 traced_child.py JOB.json RESULT.json

JOB holds ``commands`` (argv lists), ``traced_first`` (which pass runs
first), ``output_dir`` (where each command's output text of the traced pass
is saved for the correctness gate) and ``trace_out`` (where the spans go).
The package is imported first, before anything else, so that
``modules_loaded`` counts only what ``import wienerwidths.cli`` pulls in.
"""
import sys
import time

if __name__ == "__main__":
    _before = len(sys.modules)
    import wienerwidths.cli  # noqa: E402

    IMPORT_DONE = time.monotonic()
    MODULES_LOADED = len(sys.modules) - _before

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from collections import defaultdict  # noqa: E402

from oracle import data_rows  # noqa: E402
from tracing import Tracer, command_metrics  # noqa: E402


def _run(argv, tracer: Tracer | None = None) -> tuple[int, str, int]:
    """Exit code, output text and duration (ns) of one in-process command.

    With a tracer, the call is the root span ``cli.main``.
    """
    path = argv[argv.index("--output") + 1] if "--output" in argv else None
    if path:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        token = tracer.open() if tracer else None
        t0 = time.perf_counter_ns()
        try:
            code = wienerwidths.cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.close(token, "cli.main")
    text = out.getvalue()
    if path:
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
    return code, text, t1 - t0


def _digest(code: int, text: str) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _untraced_pass(commands) -> dict:
    wall = 0
    runs = []
    for argv in commands:
        code, text, ns = _run(argv)
        wall += ns
        runs.append(_digest(code, text))
    return {"wall_s": wall / 1e9, "commands": runs}


def _traced_pass(commands, output_dir) -> tuple[dict, list]:
    tracer = Tracer()
    tracer.install()
    wall = 0
    runs = []
    trace = []
    totals: dict[str, float] = defaultdict(float)
    try:
        for i, argv in enumerate(commands):
            tracer.reset()
            code, text, ns = _run(argv, tracer)
            tracer.end_command()
            wall += ns
            spans = tracer.spans
            figures = command_metrics(spans)
            selfs = {k: v for k, v in figures.items() if k.endswith(".self_s")}
            if min(selfs.values()) < 0 or abs(
                sum(selfs.values()) - figures["cli.main_s"]
            ) > 1e-6 * figures["cli.main_s"] + 1e-6:
                raise RuntimeError(f"self times do not add up to cli.main_s for {argv}")
            with open(os.path.join(output_dir, f"traced_{i}.out"), "w",
                      encoding="utf-8", newline="") as fh:
                fh.write(text)
            figures["cli.rows_out"] = data_rows(argv, text)
            figures["cli.bytes_out"] = len(text.encode())
            for k, v in figures.items():
                totals[k] += v
            runs.append(_digest(code, text))
            trace.append({
                "argv": argv,
                "self_s": selfs,
                "spans": [[s.id, s.parent, s.name, s.start, s.end] for s in spans],
            })
    finally:
        tracer.uninstall()
    totals.update({k: float(v) for k, v in tracer.counts.items()})
    return {"wall_s": wall / 1e9, "commands": runs, "metrics": dict(totals)}, trace


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    commands = job["commands"]
    if job["traced_first"]:
        traced, trace = _traced_pass(commands, job["output_dir"])
        untraced = _untraced_pass(commands)
    else:
        untraced = _untraced_pass(commands)
        traced, trace = _traced_pass(commands, job["output_dir"])
    with open(job["trace_out"], "w") as fh:
        json.dump({"commands": trace}, fh)
    result = {
        "import_done": IMPORT_DONE,
        "modules_loaded": MODULES_LOADED,
        "untraced": untraced,
        "traced": traced,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

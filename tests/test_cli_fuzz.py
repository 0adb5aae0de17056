"""Random command lines through ``cli.main``: every input is answered or
refused, never crashed on.

The grammar draws the options of all seven subcommands from edge values
(0, negatives, nan, inf, 1e300, 1e-300, values beyond the float range,
``3/0``, empty and reversed grids), leaves options out or combines the ones
that conflict, and keeps the sizes a valid command can ask for small:
n <= 1e4, r <= 50, d <= 3.  Each call runs in-process under a 5 s alarm.
The contract: the exit code is 0, 2 or 3; no exception escapes ``main``;
stdout is empty unless the exit code is 0; and a table printed with exit 0
holds no nan or inf in any spelling.
"""
import contextlib
import io
import re
import signal

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wienerwidths.asymptotics import CONSTANT_NAMES
from wienerwidths.cli import main
from wienerwidths.weights import Family
from wienerwidths.widths import Embedding, WidthKind

_EDGES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "1e400", "3/0",
          ""]


def _values(valid, edges=_EDGES):
    """Mostly valid values, so that commands get past argument checks, and
    edge values one time in five."""
    pick = st.tuples(st.integers(0, 4), st.sampled_from(valid),
                     st.sampled_from(edges))
    return pick.map(lambda p: p[2] if p[0] == 4 else p[1])


_SMOOTHNESS = _values(["1", "3/2", "2", "17/16", "5", "0.5"])
_REALS = _values(["1", "2.5", "4", "1e-10", "0.5"])
_INT_EDGES = ["0", "-1", "nan", "inf", "2.5", "3/0", ""]
# sizes stay small: n <= 1e4, r <= 50, d <= 3; an n of 1e300 is refused by
# the prefix cap, and as a single integral grid entry it is a value
_N = _values(["1", "2", "3", "7", "100", "1e4"], _INT_EDGES + ["1e300"])
_N_BOUNDED = _values(["1", "2", "3", "7", "100", "1e4"], _INT_EDGES)
_R = _values(["1", "2", "3", "10", "50"], _INT_EDGES)
_D = _values(["1", "2", "3"], _INT_EDGES)

_TIMEOUT_S = 5


class _Timeout(BaseException):
    """Not an Exception, so no handler in ``main`` can take it for a
    refusal."""


def _grid(entries, bounded=None):
    """One entry, a list, a range, a reversed range, or an empty grid;
    range ends come from ``bounded`` when given, so a range stays small."""
    ends = entries if bounded is None else bounded
    ends = st.tuples(ends, ends)
    lists = st.tuples(entries, entries).map(",".join)
    ranges = ends.map("..".join)
    return st.one_of(
        entries, entries, lists, ranges, ranges,
        ends.map(lambda p: "..".join(sorted(p, key=_size, reverse=True))),
        st.sampled_from(["", ",", "5..1", "1,,3"]),
    )


def _size(text):
    try:
        return float(text)
    except ValueError:
        return 0.0


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["sigma", "width", "converge", "constants",
                                    "count", "appendix-verify", "integral"]))
    argv = [command]

    def option(name, values, required=False):
        # a required option is still left out now and then
        if draw(st.integers(0, 19)) < (19 if required else 8):
            argv.extend([name, draw(values)])

    def weight():
        option("--family", st.sampled_from([f.value for f in Family]), True)
        option("--s", _SMOOTHNESS, True)
        option("--r", _SMOOTHNESS, True)  # the -sr families need it
        option("--d", _D, True)

    def width_kind():
        option("--embedding", st.sampled_from([e.value for e in Embedding]),
               True)
        option("--kind", st.sampled_from([k.value for k in WidthKind]), True)

    if command == "sigma":
        weight()
        option("--n", _N, True)
        option("--check-box-radius", _R)
    elif command == "width":
        weight()
        width_kind()
        option("--n", _grid(_N), True)
        option("--p", _REALS)
        option("--prefix-n", _N)
    elif command == "converge":
        weight()
        width_kind()
        option("--n-grid", _grid(_N, _N_BOUNDED), True)
        for name in ("--alpha", "--beta", "--target"):
            option(name, _REALS, True)
        option("--prefix-n", _N)
    elif command == "constants":
        option("--name", st.sampled_from(CONSTANT_NAMES), True)
        option("--s", _SMOOTHNESS)
        option("--d", st.one_of(_D, st.just("2000")))
        option("--tol", _REALS)
    elif command == "count":
        option("--s", _SMOOTHNESS, True)
        option("--d", _D)
        option("--ell", _D)
        option("--j", _D)
        option("--r-ell", st.one_of(_R, st.just("auto")))
        option("--r-grid", _grid(_R), True)
    elif command == "appendix-verify":
        option("--s", _SMOOTHNESS, True)
        option("--d", _D, True)
        option("--r-grid", _grid(_R), True)
        option("--sandwich-r", _grid(_R))
        option("--tol", _REALS)
    else:
        option("--s", _SMOOTHNESS, True)
        option("--beta", _REALS, True)
        option("--a", _REALS, True)
        option("--n-grid", _grid(_N, _N_BOUNDED), True)
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


def _on_alarm(signum, frame):
    raise _Timeout(f"no answer within {_TIMEOUT_S} s")


def _run(argv):
    """Exit code, stdout and stderr of ``main(argv)`` under the alarm;
    argparse's refusals exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, _TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


# nan and inf as CSV (%.17g, str) and as JSON (%r, json.dumps) print them
_NON_FINITE = re.compile(r"(?<![\w.])-?(nan|inf|NaN|Infinity)(?![\w.])")


@settings(derandomize=True, database=None, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
# findings that random draws reach rarely: a weight that is 1.0 everywhere
# within the prefix cap (minutes of prefix regrowth before), and a constant
# that overflows to inf (printed with exit 0 before)
@example(["width", "--family", "isotropic-inf", "--s", "1e-300", "--d", "1",
          "--embedding", "a-to-linf", "--kind", "kolmogorov", "--n", "5"])
@example(["constants", "--name", "transfer-vw", "--s", "1e308",
          "--format", "json"])
def test_every_command_line_is_answered_or_refused(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert err, "a refusal says why"
    else:
        assert out
        assert not _NON_FINITE.search(out), out

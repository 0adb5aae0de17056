"""In-memory spans around the package's public functions, and what they add up to.

A span is (id, parent, name, start, end) with times from
``time.perf_counter_ns``.  Spans are recorded by wrappers that replace a
function at the module attribute where its callers look it up (for example
``wienerwidths.widths.sup_over_h``, which ``width`` calls through its module
globals, and ``wienerwidths.cli.sigma_prefix``, which the CLI imported by
name), so nested calls nest and nothing under ``src/`` changes.

Self time: a span's duration minus the time its children cover.  The CLI fans
independent rows out to worker threads, so sibling spans can overlap; an
instant covered by several innermost open spans is shared equally among them.
Without overlap this is exactly duration minus the children's durations, and
in every case the self times of a tree sum to its root's duration.

The cumulative sum of sigma^-2 runs inside ``sigma_prefix`` and no public
function reaches it from outside, so its time is part of ``sigma.prefix_s``.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "Span",
    "Tracer",
    "LAYERS",
    "self_times",
    "union_ns",
    "command_metrics",
]

LAYERS = ("cli", "sigma", "weights", "widths", "asymptotics", "lattice_count")

# (module, attribute, span name).  The same function is wrapped at every
# attribute a caller reaches it through.
TARGETS = (
    ("wienerwidths.cli", "sigma_prefix", "sigma.sigma_prefix"),
    ("wienerwidths.lattice_count", "sigma_prefix", "sigma.sigma_prefix"),
    ("wienerwidths.cli", "sigma_bruteforce", "sigma.sigma_bruteforce"),
    ("wienerwidths.sigma", "log_weight_box", "weights.log_weight_box"),
    ("wienerwidths.cli", "width", "widths.width"),
    ("wienerwidths.asymptotics", "width", "widths.width"),
    ("wienerwidths.widths", "sup_over_h", "widths.sup_over_h"),
    ("wienerwidths.cli", "convergence_table", "asymptotics.convergence_table"),
    ("wienerwidths.cli", "constant", "asymptotics.constant"),
    ("wienerwidths.cli", "aux_integral", "asymptotics.aux_integral"),
    ("wienerwidths.asymptotics", "series_S", "asymptotics.series_S"),
    ("wienerwidths.lattice_count", "series_S", "asymptotics.series_S"),
    ("wienerwidths.cli", "count_C", "lattice_count.count"),
    ("wienerwidths.cli", "count_A", "lattice_count.count"),
    ("wienerwidths.cli", "count_A_split", "lattice_count.count"),
    ("wienerwidths.lattice_count", "count_C", "lattice_count.count"),
    ("wienerwidths.lattice_count", "count_A", "lattice_count.count"),
    ("wienerwidths.lattice_count", "count_A_split", "lattice_count.count"),
    ("wienerwidths.cli", "verify_appendix_limits",
     "lattice_count.verify_appendix_limits"),
    ("wienerwidths.cli", "sandwich_check", "lattice_count.sandwich_check"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: int  # ns
    end: int  # ns

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans and counters while its wrappers are installed.

    Each thread keeps its own stack of open spans.  A worker thread of the
    CLI's row fan-out starts with an empty stack; its spans take as parent
    the innermost open span of the thread that installed the tracer, which
    is blocked waiting for those rows.
    """

    def __init__(self) -> None:
        self._records: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []
        # sigma_prefix length not yet known to be useful or wasted
        self._pending_prefix: int | None = None

    # -- spans ---------------------------------------------------------------

    def open(self) -> tuple[int, int | None, int]:
        # list.append, list.pop and next() on a counter are atomic under the
        # interpreter lock, so spans need no lock of their own
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def close(self, token: tuple[int, int | None, int], name: str) -> None:
        end = time.perf_counter_ns()
        sid, parent, start = token
        self._stacks[threading.get_ident()].pop()
        self._records.append((sid, parent, name, start, end))

    @property
    def spans(self) -> list[Span]:
        """Spans closed since the last ``reset``."""
        return [Span(*r) for r in self._records]

    def reset(self) -> None:
        self._records = []

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(name, exc)
                raise
            finally:
                tracer.close(token, name)
            tracer._on_return(name, result)
            return result

        return traced

    def count_orbits(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for orbit in fn(*args, **kwargs):
                tracer.counts["sigma.orbits"] += 1
                yield orbit

        return counted

    # -- counters ------------------------------------------------------------

    def _on_return(self, name: str, result) -> None:
        c = self.counts
        if name == "sigma.sigma_prefix":
            n_max = result.n_max
            with self._lock:
                c["sigma.prefix_calls"] += 1
                c["sigma.prefix_points"] += n_max
                self._settle_prefix(useful=True)
                self._pending_prefix = n_max
        elif name == "lattice_count.count":
            with self._lock:
                c["lattice_count.points"] += int(result)

    def _on_error(self, name: str, exc: Exception) -> None:
        from wienerwidths.widths import PrefixTooShortError

        if name == "widths.width" and isinstance(exc, PrefixTooShortError):
            with self._lock:
                self.counts["widths.too_short"] += 1
                self._settle_prefix(useful=False)

    def _settle_prefix(self, useful: bool) -> None:
        if self._pending_prefix is not None:
            if useful:
                self.counts["sigma.useful_points"] += self._pending_prefix
            self._pending_prefix = None

    def end_command(self) -> None:
        """The command's last prefix was used without a regrowth."""
        with self._lock:
            self._settle_prefix(useful=True)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name))
        sigma = importlib.import_module("wienerwidths.sigma")
        self._saved.append((sigma, "iter_orbits", sigma.iter_orbits))
        sigma.iter_orbits = self.count_orbits(sigma.iter_orbits)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span in ns (see the module docstring)."""
    parent = {s.id: s.parent for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.id))
        events.append((s.end, 0, s.id))
    events.sort()  # at equal times, closes sort before opens
    out = dict.fromkeys(parent, 0.0)
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    prev = None
    for t, opening, sid in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = t
        p = parent[sid]
        if opening:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def union_ns(spans) -> int:
    """Wall time covered by at least one of the spans."""
    total = 0
    cur_start = cur_end = None
    for s in sorted(spans, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# inclusive time metrics: metric name -> span name
_INCLUSIVE = {
    "sigma.prefix_s": "sigma.sigma_prefix",
    "sigma.oracle_s": "sigma.sigma_bruteforce",
    "weights.box_s": "weights.log_weight_box",
    "widths.sup_s": "widths.sup_over_h",
    "asymptotics.convergence_s": "asymptotics.convergence_table",
    "asymptotics.constant_s": "asymptotics.constant",
    "asymptotics.integral_s": "asymptotics.aux_integral",
    "lattice_count.count_s": "lattice_count.count",
    "lattice_count.appendix_s": "lattice_count.verify_appendix_limits",
    "lattice_count.sandwich_s": "lattice_count.sandwich_check",
}

# call counts: metric name -> span name
_CALLS = {
    "widths.width_calls": "widths.width",
    "widths.sup_calls": "widths.sup_over_h",
    "lattice_count.count_calls": "lattice_count.count",
}


def command_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one command's span tree (seconds and counts).

    The tree's root is the ``cli.main`` span.  ``<layer>.self_s`` over all
    layers sums to ``cli.main_s``; the ``_INCLUSIVE`` figures are the wall
    time their function was running, children included.
    """
    (root,) = [s for s in spans if s.parent is None]
    selfs = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[s.id] / 1e9
    out["cli.main_s"] = (root.end - root.start) / 1e9
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    for metric, name in _INCLUSIVE.items():
        out[metric] = union_ns(by_name.get(name, ())) / 1e9
    for metric, name in _CALLS.items():
        out[metric] = float(len(by_name.get(name, ())))
    return out

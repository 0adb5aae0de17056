"""The benchmark's workloads: which `wiener-widths` commands each one runs.

A workload is a list of commands, run one after another as a closed loop
(the next command starts when the previous one has exited).  In
`sigma-table` and `width-sweep` the seed picks each command's smoothness s
from a small set of choices of equal cost; N and the n ranges never change.
`reproduce` uses the seed only to order its commands.

Why the choice sets are what they are:

* Every sigma family below orders the lattice by a monotone transform of a
  product or sum that does not depend on s (mixed-inf, mixed-sr at fixed r),
  or depends on it only slightly over the chosen range (h1-ratio), so the
  enumeration pops the same orbits for every choice.  The choices avoid
  integer s for mixed-inf, where the cumulative sums are exact integers and
  print shorter, which would make emission cheaper on some seeds.
* The sup scan of a width command stops near h = n (2s+1)/(2s), so its cost
  moves with s; the width choices therefore differ by 1/16 only.
* r stays fixed: changing r changes which orbits are popped and what they
  cost.
"""
from __future__ import annotations

import random
import shlex
from dataclasses import dataclass

__all__ = ["Command", "WORKLOADS", "all_variants", "commands_for"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how its output is judged.

    ``check`` names the oracle in ``oracle.CHECKS`` that judges the output;
    ``exit_code`` is the exit status the command must end with.
    """

    argv: tuple[str, ...]
    check: str
    exit_code: int = 0

    @property
    def key(self) -> str:
        return shlex.join(self.argv)

    @property
    def output_file(self) -> str | None:
        """The file named by --output, if any; it replaces stdout."""
        if "--output" in self.argv:
            return self.argv[self.argv.index("--output") + 1]
        return None


def _cmd(line: str, check: str, exit_code: int = 0) -> Command:
    return Command(tuple(shlex.split(line)), check, exit_code)


def _choices(template: str, check: str, values: list[str]) -> tuple[Command, ...]:
    return tuple(_cmd(template.format(s=v), check) for v in values)


# Each entry is a tuple of alternatives; the seed picks one per entry.
SIGMA_TABLE = (
    _choices("sigma --family mixed-inf --s {s} --d 1 --n 1.5e5", "sigma",
             ["5/4", "3/2", "7/4"]),
    _choices("sigma --family mixed-sr --s {s} --r 2 --d 3 --n 2e5", "sigma",
             ["3/2", "5/4", "7/4"]),
    _choices("sigma --family h1-ratio --s {s} --d 2 --n 1e5 --format json",
             "sigma", ["2", "15/8", "17/8"]),
)

WIDTH_SWEEP = (
    _choices("width --family mixed-inf --s {s} --d 1 --embedding a-to-l2 "
             "--kind approximation --n 1..24000", "width",
             ["1", "17/16", "15/16"]),
    _choices("width --family h1-ratio --s {s} --d 2 --embedding amix-to-h1 "
             "--kind approximation --n 1..12000 --format json", "width",
             ["2", "33/16", "31/16"]),
    _choices("width --family isotropic-sr --s {s} --r 2 --d 2 "
             "--embedding a-to-linf --kind kolmogorov --n 1..12000", "width",
             ["33/32", "31/32", "17/16"]),
    # --prefix-n equal to the top of the range forces one regrowth of the
    # prefix (PrefixTooShortError, 12000 -> 24000) on every choice of s
    _choices("width --family mixed-inf --s {s} --d 2 --embedding a-to-l2 "
             "--kind approximation --n 1..12000 --prefix-n 12000", "width",
             ["33/32", "17/16"]),
)

# A subset of REPRODUCE.md, run as written there, that keeps every
# subcommand, the brute-force oracle, its documented refusal, both
# lattice-count paths and the sup at sparse large n (n = 1e5).
REPRODUCE = tuple(
    (c,) for c in (
        _cmd("width --family mixed-inf --s 1 --d 2 --embedding a-to-a "
             "--kind kolmogorov --n 1..12", "c01_flat"),
        _cmd("sigma --family mixed-sr --s 3/2 --r 2 --d 3 --n 10000 "
             "--check-box-radius 86 --output sigma_oracle.csv", "sigma"),
        _cmd("sigma --family mixed-sr --s 3/2 --r 2 --d 3 --n 10000 "
             "--check-box-radius 64", "refusal", exit_code=2),
        _cmd("converge --family mixed-inf --s 1 --d 1 --embedding a-to-l2 "
             "--kind approximation --n-grid 1000,10000,100000 --alpha 1 "
             "--beta 0 --target 1.3333333333333333", "c06_transfer"),
        _cmd("constants --name transfer-uv --s 1", "c06_constant"),
        _cmd("count --s 3/2 --d 4 --r-grid 1..50", "c08_identity"),
        _cmd("appendix-verify --s 2 --d 2 --r-grid 8 --sandwich-r 2..8",
             "c10_sandwich"),
        _cmd("integral --s 1 --beta 1 --a 2 "
             "--n-grid 10000,1000000,100000000", "c11_integral"),
    )
)

WORKLOADS = {
    "sigma-table": SIGMA_TABLE,
    "width-sweep": WIDTH_SWEEP,
    "reproduce": REPRODUCE,
}


def commands_for(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this seed (same seed, same list)."""
    rng = random.Random(seed)
    picked = [rng.choice(alternatives) for alternatives in WORKLOADS[workload]]
    if workload == "reproduce":
        rng.shuffle(picked)
    return picked


def all_variants() -> list[Command]:
    """Every command any seed can produce, each once."""
    return [c for entries in WORKLOADS.values() for alts in entries for c in alts]

"""Interleaved A/B timing of in-process `idak.cli.main` calls, and of
three World-level units, against a git ref. Stdlib only:

    python scripts/ab_cli.py [REF] [--rounds N] [--calls N]

REF (default HEAD) names the base side. Its `src/idak` is extracted with
`git archive` into a temporary directory as the package `idak_base`, and
imported beside this checkout's `idak` from src/, so both run in one
process on one interpreter. First every command, each variant, over a
few seeds, and each argv of `OTHER_ARGVS` (help, usage errors, refused
values and the forms only argparse reads) must give the same exit
status, stdout bytes and stderr bytes on both sides, an exit through
`SystemExit` included; any difference stops the script with exit status
1, and with `--rounds 0` the script stops there, with status 0. Then each
round runs, per command and variant, a batch of `--calls` main calls on
each side, the side that goes first alternating from round to round.
Each command's line gives the median over rounds of the mean time per
call on each side, both variants pooled; the median over rounds of the
ratio change / base, each round's two batches run back to back, so a
slow spell of the host weighs on both; the base side's interquartile
spread over rounds, as a percent of its median (`-` with one round), so
a ratio nearer 1 than that spread is inside the noise; and the share of
rounds the change won. The cli-attacks line does the same for the sum
over the six commands of the benchmark's cli-attacks rotation. Three
World-level units follow, timed the same way in the same rounds, with
UNIT_CALLS x `--calls` units per batch and the cyclic collector paused:
an honest exchange on a world of 16 parties grown to 4,000 sessions
before the first round (one world per variant and side, grown untimed;
each exchange batch adds to it), the first read of the initiators' keys
that batch accepted, and one random-guess trial. Nothing is written
outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("original", "hardened")
# every command, with the extra words it needs to stay quick
COMMANDS = {
    "handshake": [],
    "uks": [],
    "mkbreak": [],
    "kci": [],
    "dlog-adv": [],
    "eck-batch": ["--trials", "25"],
    "freshness-table": [],
}
CHECK_SEEDS = range(4)
# World-level units: a batch runs UNIT_CALLS times as many as a command
# batch, since each unit costs microseconds, not milliseconds
UNITS = ("exchange", "first key read", "random-guess trial")
UNIT_CALLS = 10
PARTIES = tuple(f"p{k:02d}" for k in range(16))
GROW_EXCHANGES = 2000
# ordered pairs of distinct parties, the exchanges a batch runs in turn
PAIRS = [(a, b) for a in PARTIES for b in PARTIES if a != b]
# argvs a command and exact `--option value` pairs do not cover: the help
# texts, usage errors, values an option refuses, and an abbreviation and an
# `--opt=value` that argparse accepts
OTHER_ARGVS = [
    [],
    ["--help"],
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    ["no-such-command"],
    ["handshake", "--variant", "fancy"],
    ["handshake", "--seed", "-1"],
    ["handshake", "--seed"],
    ["handshake", "stray"],
    ["eck-batch", "--trials", "0"],
    ["handshake", "--trials", "3"],
    ["handshake", "--q", "4"],
    ["handshake", "--se", "3"],
    ["handshake", "--seed=3"],
]


def extract(ref: str, into: Path) -> None:
    """Unpack ref's src/idak into `into`/idak_base."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src/idak"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            parts = Path(member.name).parts
            if member.isfile() and parts[:2] == ("src", "idak") and member.name.endswith(".py"):
                target = into / "idak_base" / Path(*parts[2:])
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())


def run(main, argv: list[str]) -> tuple[object, str, str]:
    """Exit status, stdout and stderr of one main call; an argparse exit
    gives the code of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def argv(command: str, variant: str, seed: int) -> list[str]:
    return [command, *COMMANDS[command], "--variant", variant, "--seed", str(seed)]


def batch(main, command: str, variant: str, seeds: range) -> float:
    """Mean microseconds per main call over one batch, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        for seed in seeds:
            main(argv(command, variant, seed))
        elapsed = time.perf_counter_ns() - start
    return elapsed / len(seeds) / 1000


class Units:
    """One side's World-level units: a grown world per variant, and the
    initiator handles of its latest exchange batch, whose keys are unread."""

    def __init__(self, ecksim) -> None:
        self.ecksim = ecksim
        self.worlds = {}
        self.unread: dict[str, list[int]] = {}
        for variant in VARIANTS:
            world = ecksim.World(0, ecksim.Variant(variant))
            for party in PARTIES:
                world.add_party(party)
            rng = random.Random(variant)
            for _ in range(GROW_EXCHANGES):
                ecksim.run_honest_exchange(world, *rng.sample(PARTIES, 2))
            self.worlds[variant] = world

    def batch(self, unit: str, variant: str, seeds: range) -> float:
        """Mean microseconds per unit over one batch, with the cyclic
        collector paused, as timeit pauses it: a collection traverses the
        grown worlds and would land on whichever batch is running. A
        key-read batch reads the keys of the variant's latest exchange
        batch."""
        gc.disable()
        try:
            return self._batch(unit, variant, seeds)
        finally:
            gc.enable()

    def _batch(self, unit: str, variant: str, seeds: range) -> float:
        world = self.worlds[variant]
        if unit == "exchange":
            exchange = self.ecksim.run_honest_exchange
            start = time.perf_counter_ns()
            handles = [exchange(world, *PAIRS[seed % len(PAIRS)])[0] for seed in seeds]
            elapsed = time.perf_counter_ns() - start
            self.unread[variant] = handles
            return elapsed / len(seeds) / 1000
        if unit == "first key read":
            sessions = [world.session(handle) for handle in self.unread.pop(variant)]
            start = time.perf_counter_ns()
            for session in sessions:
                session.key
            return (time.perf_counter_ns() - start) / len(sessions) / 1000
        trial, v = self.ecksim.run_random_guess_adversary, self.ecksim.Variant(variant)
        start = time.perf_counter_ns()
        for seed in seeds:
            trial(v, seed)
        return (time.perf_counter_ns() - start) / len(seeds) / 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git ref of the base side")
    parser.add_argument(
        "--rounds", type=int, default=40, help="timing rounds; 0 checks the bytes only (default: 40)"
    )
    parser.add_argument("--calls", type=int, default=10, help="calls per batch (default: 10)")
    args = parser.parse_args()
    if args.rounds < 0:
        parser.error("--rounds must be 0 or more")
    if args.calls < 1:
        parser.error("--calls must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        extract(args.ref, Path(tmp))
        sys.path[:0] = [tmp, str(ROOT / "src")]
        sides = {
            "base": importlib.import_module("idak_base.cli").main,
            "change": importlib.import_module("idak.cli").main,
        }
        ecksims = {
            "base": importlib.import_module("idak_base.ecksim"),
            "change": importlib.import_module("idak.ecksim"),
        }
        return compare(sides, ecksims, args)


def compare(sides: dict, ecksims: dict, args: argparse.Namespace) -> int:
    checked = [
        *(argv(command, variant, seed)
          for command in COMMANDS for variant in VARIANTS for seed in CHECK_SEEDS),
        *OTHER_ARGVS,
    ]
    for words in checked:
        if run(sides["base"], words) != run(sides["change"], words):
            print("output differs:", " ".join(words))
            return 1
    print(f"exit status, stdout and stderr equal on both sides: {len(COMMANDS)} commands x "
          f"{len(VARIANTS)} variants x {len(CHECK_SEEDS)} seeds, and {len(OTHER_ARGVS)} other argvs")
    if not args.rounds:
        return 0

    units = {side: Units(ecksims[side]) for side in sides}
    # (command or unit, side) -> per-round mean per call, both variants pooled
    times: dict[tuple[str, str], list[float]] = {}
    order = ["base", "change"]
    for r in range(args.rounds):
        seeds = range(r * args.calls, (r + 1) * args.calls)
        for command in COMMANDS:
            for side in order:
                cost = sum(batch(sides[side], command, v, seeds) for v in VARIANTS) / len(VARIANTS)
                times.setdefault((command, side), []).append(cost)
        unit_seeds = range(r * args.calls * UNIT_CALLS, (r + 1) * args.calls * UNIT_CALLS)
        for unit in UNITS:
            for side in order:
                cost = sum(units[side].batch(unit, v, unit_seeds) for v in VARIANTS) / len(VARIANTS)
                times.setdefault((unit, side), []).append(cost)
        order.reverse()

    print(f"{args.rounds} rounds x {args.calls} calls per command, variant and side; "
          f"python {sys.version.split()[0]}; base {args.ref}")
    print(f"{'command':<20}{'base us':>10}{'change us':>11}{'ratio':>8}{'base iqr':>10}{'won':>6}")
    totals = {side: [0.0] * args.rounds for side in sides}
    for command in COMMANDS:
        if command != "eck-batch":
            for side in sides:
                totals[side] = [t + s for t, s in zip(totals[side], times[command, side])]
        report(command, times[command, "base"], times[command, "change"])
    report("cli-attacks mix", totals["base"], totals["change"])
    for unit in UNITS:
        report(unit, times[unit, "base"], times[unit, "change"])
    return 0


def report(name: str, base: list[float], change: list[float]) -> None:
    ratios = [c / b for b, c in zip(base, change)]
    won = sum(ratio < 1 for ratio in ratios) / len(ratios)
    median = statistics.median(base)
    spread = "-"
    if len(base) > 1:  # quantiles needs two data points before Python 3.13
        low, _, high = statistics.quantiles(base)
        spread = f"{(high - low) / median:.1%}"
    print(f"{name:<20}{median:>10.1f}{statistics.median(change):>11.1f}"
          f"{statistics.median(ratios):>8.3f}{spread:>10}{won:>6.0%}")


if __name__ == "__main__":
    sys.exit(main())

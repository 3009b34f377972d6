"""Interleaved A/B timing of in-process `idak.cli.main` calls against a
git ref. Stdlib only:

    python scripts/ab_cli.py [REF] [--rounds N] [--calls N]

REF (default HEAD) names the base side. Its `src/idak` is extracted with
`git archive` into a temporary directory as the package `idak_base`, and
imported beside this checkout's `idak` from src/, so both run in one
process on one interpreter. First every command, each variant, over a
few seeds, must print the same stdout bytes and exit status on both
sides; any difference stops the script with exit status 1. Then each
round runs, per command and variant, a batch of `--calls` main calls on
each side, the side that goes first alternating from round to round.
Each command's line gives the median over rounds of the mean time per
call on each side, both variants pooled; the median over rounds of the
ratio change / base, each round's two batches run back to back, so a
slow spell of the host weighs on both; and the share of rounds the
change won. The last line does the same for the sum over the six
commands of the benchmark's cli-attacks rotation. Nothing is written
outside the temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
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


def run(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git ref of the base side")
    parser.add_argument("--rounds", type=int, default=40, help="timing rounds (default: 40)")
    parser.add_argument("--calls", type=int, default=10, help="calls per batch (default: 10)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        extract(args.ref, Path(tmp))
        sys.path[:0] = [tmp, str(ROOT / "src")]
        sides = {
            "base": importlib.import_module("idak_base.cli").main,
            "change": importlib.import_module("idak.cli").main,
        }
        return compare(sides, args)


def compare(sides: dict, args: argparse.Namespace) -> int:
    for command in COMMANDS:
        for variant in VARIANTS:
            for seed in CHECK_SEEDS:
                words = argv(command, variant, seed)
                if run(sides["base"], words) != run(sides["change"], words):
                    print("output differs:", " ".join(words))
                    return 1
    print(f"stdout equal on both sides: {len(COMMANDS)} commands x {len(VARIANTS)} variants "
          f"x {len(CHECK_SEEDS)} seeds")

    # (command, side) -> per-round mean per call, both variants pooled
    times: dict[tuple[str, str], list[float]] = {}
    order = ["base", "change"]
    for r in range(args.rounds):
        seeds = range(r * args.calls, (r + 1) * args.calls)
        for command in COMMANDS:
            for side in order:
                cost = sum(batch(sides[side], command, v, seeds) for v in VARIANTS) / len(VARIANTS)
                times.setdefault((command, side), []).append(cost)
        order.reverse()

    print(f"{args.rounds} rounds x {args.calls} calls per command, variant and side; "
          f"python {sys.version.split()[0]}; base {args.ref}")
    print(f"{'command':<16}{'base us':>10}{'change us':>11}{'ratio':>8}{'won':>6}")
    totals = {side: [0.0] * args.rounds for side in sides}
    for command in COMMANDS:
        if command != "eck-batch":
            for side in sides:
                totals[side] = [t + s for t, s in zip(totals[side], times[command, side])]
        report(command, times[command, "base"], times[command, "change"])
    report("cli-attacks mix", totals["base"], totals["change"])
    return 0


def report(name: str, base: list[float], change: list[float]) -> None:
    ratios = [c / b for b, c in zip(base, change)]
    won = sum(ratio < 1 for ratio in ratios) / len(ratios)
    print(f"{name:<16}{statistics.median(base):>10.1f}{statistics.median(change):>11.1f}"
          f"{statistics.median(ratios):>8.3f}{won:>6.0%}")


if __name__ == "__main__":
    sys.exit(main())

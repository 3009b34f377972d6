"""Benchmark of the idak package, run from the repository root:

    python3 bench/run.py --workload eck-calibration --seed 1 --seconds 30 --trace 0

Workloads: eck-calibration, crowded-world, cli-attacks (see workloads.py).
One process, one thread, closed loop: each unit starts when the previous
one has been checked. Only `run` of a unit is inside the timed window;
the set-up of a cycle of units and the output check happen outside it.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with tracer.py's wrappers installed, and prints the
per-layer metrics. Either way the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Without the
package source under src/ the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracer import Tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
# set-up is timed this many times per run, each in a new process
SETUP_REPS = 5
SEED_MODULUS = 1 << 40
# end-to-end figures are medians over windows of at least this many units
WINDOW_UNITS = 1000


def load_package():
    """Import idak from this checkout's src/, never from anywhere else."""
    init = SRC / "idak" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import idak
    import idak.cli  # noqa: F401  (the cli-attacks workload drives it)

    if Path(idak.__file__).resolve() != init.resolve():
        raise ImportError(f"imported idak from {idak.__file__}, expected {init}")
    return idak


@dataclass
class Window:
    """Throughput and latency quantiles of one window of units."""

    units_per_s: float
    p50_us: float
    p99_us: float

    @classmethod
    def of(cls, latencies: list[int]) -> Window:
        q = statistics.quantiles(latencies, n=100)
        return cls(len(latencies) / (sum(latencies) / 1e9), q[49] / 1000, q[98] / 1000)


@dataclass
class Phase:
    start: int
    end: int = 0
    total_ns: int = 0
    windows: list[Window] = field(default_factory=list)
    failed: int = 0
    first_failure: str | None = None

    @property
    def units(self) -> int:
        return self.end - self.start

    @property
    def units_per_s(self) -> float:
        return self.units / (self.total_ns / 1e9)


def window_units(runner) -> int:
    """Whole cycles of the workload, at least WINDOW_UNITS units."""
    return -(-WINDOW_UNITS // runner.cycle) * runner.cycle


def run_units(runner, start: int, *, count=None, seconds=None, align=1, tracer=None) -> Phase:
    """Run units from index `start`, either `count` of them or until
    `seconds` have passed (then on to the next unit index that is a
    multiple of `align`, and always at least one unit). The latencies of
    each window (see window_units) are summarised when it closes, so
    memory does not grow with throughput. A tracer does not count the
    calls made while a cycle is being started."""
    phase = Phase(start)
    untraced = tracer.excluded if tracer else contextlib.nullcontext
    deadline = perf_counter() + (seconds or 0)
    window = window_units(runner)
    latencies: list[int] = []
    i = start
    while True:
        if i % window == 0 and latencies:
            phase.windows.append(Window.of(latencies))
            latencies = []
        if count is not None:
            if i - start >= count:
                break
        elif i > start and perf_counter() >= deadline and i % align == 0:
            break
        if i % runner.cycle == 0:
            with untraced():
                runner.start_cycle(i // runner.cycle)
        t0 = perf_counter_ns()
        try:
            out = runner.run(i)
        except Exception as exc:  # a unit that raises is a failed unit, not a crash
            out = exc
        ns = perf_counter_ns() - t0
        phase.total_ns += ns
        latencies.append(ns)
        try:
            reason = runner.check(i, out)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            phase.failed += 1
            if phase.first_failure is None:
                phase.first_failure = f"unit {i}: {reason}"
        i += 1
    phase.end = i
    return phase


def build(pkg, workload: str, seed: int):
    """Set up a workload: inputs, any pre-grown world, and the warm-up units."""
    runner = WORKLOADS[workload](pkg, seed)
    return runner, run_units(runner, 0, count=runner.warm_units)


def time_setup(args) -> float:
    """Seconds from starting a new process to its first timed unit."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    with subprocess.Popen(
        cmd + ["--setup-probe"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        try:
            _, err = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if line != "ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return elapsed


def self_test(runner) -> tuple[int, int]:
    """Feed the checker deliberately wrong outputs; returns how many were
    counted as failed, and how many there were."""
    bad = runner.corruptions()
    counted = sum(runner.check(i, out) is not None for i, out in bad)
    return counted, len(bad)


def environment(pkg) -> str:
    return (
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"q {pkg.DEFAULT_Q}"
    )


def end_to_end(args, runner, warm: Phase, setups: list[float]):
    phase = run_units(runner, warm.end, seconds=args.seconds, align=window_units(runner))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    windows = phase.windows
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (statistics.median(w.units_per_s for w in windows), "1/s"),
        "unit_p50_us": (statistics.median(w.p50_us for w in windows), "us"),
        "unit_p99_us": (statistics.median(w.p99_us for w in windows), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"setup_s is the median of {len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups),
        f"units_per_s, unit_p50_us and unit_p99_us are medians over {len(windows)} windows "
        f"of {window_units(runner)} units ({phase.units} units in all); each window's p99 "
        f"has {window_units(runner) // 100} units beyond it",
        f"whole run: {phase.units_per_s:.2f} units/s",
    ]
    return metrics, notes, [warm, phase]


def traced(args, pkg, runner, warm: Phase):
    untraced = run_units(runner, warm.end, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    notes = probe_counts(pkg, tracer)
    tracer.reset()
    start = -(-untraced.end // runner.cycle) * runner.cycle
    phase = run_units(
        runner, start, seconds=args.seconds / 2, align=runner.cycle, tracer=tracer
    )
    metrics = tracer.metrics(phase.units)
    metrics["trace.overhead_frac"] = (untraced.units_per_s / phase.units_per_s - 1, "ratio")
    notes.append(f"traced {phase.units} units, whole cycles of {runner.cycle}")
    return metrics, notes, [warm, untraced, phase]


def probe_counts(pkg, tracer: Tracer) -> list[str]:
    """Op counts of one random-guess trial, and of is_fresh on the newest
    of 20 accepted sessions (its match is the one before it, so the scan
    for it covers every session), printed for reference."""
    tracer.reset()
    pkg.ecksim.run_random_guess_adversary(pkg.Variant.HARDENED, 0)
    c = tracer.calls
    trial = (
        f"probe random-guess trial: is_prime {c['group.is_prime']}, "
        f"hash_to_group {c['oracles.hash_to_group']}, session scalars "
        f"{c['oracles.bound_scalar'] + c['oracles.transcript_scalar']}, pair {c['group.pair']}, "
        f"KDF {c['oracles.derive_key_bound'] + c['oracles.derive_key_plain']}, "
        f"session_id {c['protocol.session_id']}"
    )
    world = pkg.World(0)
    world.add_party("alice")
    world.add_party("bob")
    handles = [h for _ in range(10) for h in pkg.ecksim.run_honest_exchange(world, "alice", "bob")]
    tracer.reset()
    world.is_fresh(handles[-1])
    return [trial, f"probe is_fresh among {len(handles)} accepted sessions: "
            f"{tracer.sessions_scanned} session_id calls"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("seconds must be at least 1")
    # keeps every derived CLI seed, seed * 10^7 + unit, below 2^64
    args.seed %= SEED_MODULUS
    try:
        pkg = load_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        build(pkg, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setups = [] if args.trace else [time_setup(args) for _ in range(SETUP_REPS)]
    runner, warm = build(pkg, args.workload, args.seed)
    if args.trace:
        metrics, notes, phases = traced(args, pkg, runner, warm)
    else:
        metrics, notes, phases = end_to_end(args, runner, warm, setups)
    counted, corrupted = self_test(runner)
    attempted = sum(phase.units for phase in phases)
    failed = sum(phase.failed for phase in phases)
    failures = [phase.first_failure for phase in phases if phase.first_failure]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {environment(pkg)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:14.6f} {unit}")
    # failed_frac is no JSON metric: it is 0 on correct code, and the result
    # line carries it as failed / attempted
    print(f"{'failed_frac':<44} {failed / attempted:14.6f} ratio ({failed} of {attempted})")
    for note in notes + failures:
        print(note)
    print(f"checker self-test: {counted} of {corrupted} corrupted outputs counted as failed")
    result = {
        "correct": failed == 0 and counted == corrupted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

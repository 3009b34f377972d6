"""The benchmark's workloads check every output against raw-exponent
references; one short pass of each puts those checks in the test suite.
A lazily derived key that reached a checked output as None, or any other
wrong key, verdict or transcript, fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

import idak
import idak.cli  # noqa: F401  (the cli-attacks workload drives it)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling reference.py as a top-level module;
    # nothing is written under bench/, not even a bytecode cache
    sys.path.insert(0, str(BENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return module.WORKLOADS


@pytest.mark.parametrize(
    "name,units",
    [("eck-calibration", None), ("cli-attacks", None), ("crowded-world", 200)],
)
def test_workload_outputs_pass_their_checks(workloads, name, units):
    """One cycle of units (the first 200 of crowded-world's epoch 0) passes
    the workload's own check, and every corrupted output is caught."""
    runner = workloads[name](idak, 1)
    runner.start_cycle(0)
    failures = []
    for i in range(units or runner.cycle):
        try:
            out = runner.run(i)
        except Exception as exc:  # the checker reports a raising unit
            out = exc
        reason = runner.check(i, out)
        if reason is not None:
            failures.append((i, reason))
    assert failures == []
    bad = runner.corruptions()
    assert bad
    assert [runner.check(i, out) is not None for i, out in bad] == [True] * len(bad)

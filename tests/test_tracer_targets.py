"""The per-layer tracer of the benchmark wraps package functions by name;
a rename or deletion in the package would break `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_name_resolves():
    """Each `function` entry is a callable of its idak module, and each
    `Class.method` entry is defined on the class itself, where the tracer
    looks it up."""
    missing = []
    for module, targets in load_targets().items():
        home = importlib.import_module(f"idak.{module}")
        for target in targets:
            cls_name, _, attr = target.rpartition(".")
            if cls_name:
                found = attr in vars(getattr(home, cls_name, object))
            else:
                found = callable(getattr(home, attr, None))
            if not found:
                missing.append(f"{module}.{target}")
    assert missing == []

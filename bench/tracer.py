"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced function with a wrapper that counts
calls and measures self time, meaning the wrapper's span minus the spans
of traced functions it called. Module-level functions are rebound under
every name an `idak` module holds them by; `KGC` and `World` methods are
replaced on the class. Nothing is installed unless tracing is asked for.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter_ns

# layer module -> traced functions; "Class.method" entries are wrapped on
# the class, and "Class.__init__" is reported as the class name
TARGETS = {
    "group": ("pair", "is_prime"),
    "oracles": (
        "hash_to_group",
        "transcript_scalar",
        "bound_scalar",
        "derive_key_plain",
        "derive_key_bound",
        "key_digest",
    ),
    "kgc": ("KGC.__init__", "KGC.extract"),
    "protocol": (
        "start_session",
        "complete_session",
        "session_id",
        "sessions_match",
        "transcript_record",
    ),
    "ecksim": (
        "World.__init__",
        "World.activate",
        "World.deliver",
        "World.matching_session",
        "World.is_fresh",
        "World.eph_reveal",
        "World.key_reveal",
        "World.private_reveal",
        "World.adv_extract",
        "World.test",
        "World.guess",
        "World.experiment_report",
    ),
    "attacks": (
        "run_uks",
        "run_master_key_break",
        "run_kci_attempt",
        "run_dlog_extract_adversary",
    ),
    "cli": ("main", "build_parser"),
}

FRESH = "ecksim.is_fresh"
SESSION_ID = "protocol.session_id"


def layer_name(module: str, target: str) -> str:
    """Metric prefix of a traced function: `<module>.<function>`."""
    cls, _, method = target.rpartition(".")
    return f"{module}.{cls if method == '__init__' else method}"


TRACED = tuple(layer_name(m, t) for m, targets in TARGETS.items() for t in targets)


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_ns = dict.fromkeys(TRACED, 0)
        # session_id calls made while an is_fresh span is open
        self.sessions_scanned = 0
        self._fresh_open = 0
        # one entry per open span: nanoseconds covered by its child spans
        self._child_ns: list[int] = []

    def reset(self) -> None:
        for name in TRACED:
            self.calls[name] = 0
            self.self_ns[name] = 0
        self.sessions_scanned = 0

    @contextlib.contextmanager
    def excluded(self):
        """Leave the calls made inside this block out of the counts."""
        calls, self_ns, scanned = dict(self.calls), dict(self.self_ns), self.sessions_scanned
        try:
            yield
        finally:
            self.calls.update(calls)
            self.self_ns.update(self_ns)
            self.sessions_scanned = scanned

    def _wrap(self, name: str, fn):
        calls, self_ns, child_ns = self.calls, self.self_ns, self._child_ns
        tracer = self

        def traced(*args, **kwargs):
            if name == SESSION_ID and tracer._fresh_open:
                tracer.sessions_scanned += 1
            elif name == FRESH:
                tracer._fresh_open += 1
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - start
                self_ns[name] += span - child_ns.pop()
                calls[name] += 1
                if child_ns:
                    child_ns[-1] += span
                if name == FRESH:
                    tracer._fresh_open -= 1

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "idak" or n.startswith("idak.")]
        for module, targets in TARGETS.items():
            home = sys.modules[f"idak.{module}"]
            for target in targets:
                name = layer_name(module, target)
                cls_name, _, attr = target.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def metrics(self, units: int) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls_per_unit"] = (self.calls[name] / units, "count")
            out[f"{name}.self_us_per_unit"] = (self.self_ns[name] / 1000 / units, "us")
        fresh_calls = self.calls[FRESH]
        out["ecksim.is_fresh.sessions_scanned"] = (
            self.sessions_scanned / fresh_calls if fresh_calls else 0.0,
            "count",
        )
        return out

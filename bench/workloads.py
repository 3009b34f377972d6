"""The benchmark's three workloads.

Each workload is a runner over a stream of numbered units, grouped in
cycles of `cycle` units. The harness calls `start_cycle(c)` before unit
c * cycle, times `run(i)` alone, then hands the output (or the exception
it raised) to `check(i, out)`, which returns None or the reason the
output is wrong. Only `run` is timed. Every cycle issues exactly the same
package calls, so op counts per unit over whole cycles repeat exactly.
`corruptions()` returns deliberately wrong outputs for the checker
self-test.

Runners reach package functions through their modules at call time, so
the traced run sees calls through the names it rebinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import types

import reference

VARIANTS = ("original", "hardened")
# unit i of a run with seed n uses experiment or CLI seed n * SEED_STRIDE + i
SEED_STRIDE = 10_000_000
_GOLDEN = 0.6180339887498949


def _flip_hex(text: str) -> str:
    return ("0" if text[0] != "0" else "1") + text[1:]


def check_experiment(report: dict, adversary: str, variant: str, seed: int) -> str | None:
    """An eCK experiment report of one honest alice/bob run: the test
    session's transcript must equal the raw-exponent reference, and the
    verdict must be the one the adversary is calibrated to get."""
    _, x, y = reference.draws(seed, 3)
    expected_session = {
        "owner": "alice",
        "peer": "bob",
        "role": "initiator",
        "transcript": [reference.element_hex("alice", x), reference.element_hex("bob", y)],
    }
    if (report.get("adversary"), report.get("variant"), report.get("seed")) != (
        adversary,
        variant,
        seed,
    ):
        return "report names the wrong adversary, variant or seed"
    if report.get("test_session") != expected_session:
        return "test session transcript differs from the reference"
    verdict, bit, guess = report.get("verdict"), report.get("hidden_bit"), report.get("guess")
    fresh = {"fresh": True, "violated_clause": None}
    if adversary == "random-guess":
        if verdict not in ("win", "lose") or (verdict == "win") != (guess == bit):
            return f"random-guess verdict {verdict!r} is invalid or disagrees with the bits"
        if report.get("freshness") != fresh:
            return "random-guess test session is not fresh"
    elif adversary == "dlog-extract":
        if verdict != "win" or guess != bit or report.get("freshness") != fresh:
            return f"dlog-extract verdict {verdict!r} is not a fresh win"
    elif verdict != "invalid" or report.get("freshness") != {
        "fresh": False,
        "violated_clause": "1",
    }:
        return f"key-reveal-violator verdict {verdict!r} is not invalid under clause 1"
    return None


class EckCalibration:
    """One eCK experiment on a fresh World per unit, rotating three
    calibrated adversaries over both variants and consecutive seeds."""

    ADVERSARIES = (
        ("random-guess", "ecksim", "run_random_guess_adversary"),
        ("dlog-extract", "attacks", "run_dlog_extract_adversary"),
        ("key-reveal-violator", "ecksim", "run_key_reveal_violator"),
    )
    cycle = 6
    warm_units = 60

    def __init__(self, pkg: types.ModuleType, seed: int) -> None:
        self.base = seed * SEED_STRIDE
        self.kinds = [
            (adversary, getattr(pkg, module), fn, variant, pkg.Variant(variant))
            for variant in VARIANTS
            for adversary, module, fn in self.ADVERSARIES
        ]
        self.samples: dict[int, tuple[int, dict]] = {}

    def start_cycle(self, c: int) -> None:
        pass

    def run(self, i: int) -> dict:
        _, module, fn, _, variant = self.kinds[i % self.cycle]
        return getattr(module, fn)(variant, self.base + i)

    def check(self, i: int, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {out!r}"
        adversary, _, _, variant, _ = self.kinds[i % self.cycle]
        reason = check_experiment(out, adversary, variant, self.base + i)
        if reason is None:
            self.samples.setdefault(i % self.cycle, (i, out))
        return reason

    def corruptions(self) -> list[tuple[int, dict]]:
        bad = []
        for i, report in sorted(self.samples.values(), key=lambda sample: sample[0]):
            wrong = {"win": "invalid", "lose": "invalid", "invalid": "lose"}[report["verdict"]]
            bad.append((i, dict(report, verdict=wrong)))
        return bad


class CliAttacks:
    """One in-process `idak.cli.main(argv)` call per unit, output captured
    in memory, rotating the scripted attacks over both variants and
    consecutive seeds."""

    COMMANDS = ("handshake", "uks", "mkbreak", "kci", "dlog-adv", "freshness-table")
    cycle = 12
    warm_units = 24

    def __init__(self, pkg: types.ModuleType, seed: int) -> None:
        self.cli = pkg.cli
        self.base = seed * SEED_STRIDE
        self.kinds = [(command, variant) for variant in VARIANTS for command in self.COMMANDS]
        self.samples: dict[int, tuple[int, tuple]] = {}

    def argv(self, i: int) -> list[str]:
        command, variant = self.kinds[i % self.cycle]
        return [command, "--variant", variant, "--seed", str(self.base + i)]

    def start_cycle(self, c: int) -> None:
        pass

    def run(self, i: int) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.cli.main(self.argv(i))
        return status, out.getvalue(), err.getvalue()

    def check(self, i: int, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {out!r}"
        status, stdout, stderr = out
        if status != 0 or stderr.count("\n") != 1:
            return f"exit status {status} or summary {stderr!r} is not one line"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document"
        command, variant = self.kinds[i % self.cycle]
        reason = getattr(self, "_check_" + command.replace("-", "_"))(doc, variant, self.base + i)
        if reason is None:
            self.samples.setdefault(i % self.cycle, (i, doc))
        return reason

    @staticmethod
    def _check_handshake(doc: dict, variant: str, seed: int) -> str | None:
        alpha, x, y = reference.draws(seed, 3)
        want = reference.key_digest(reference.session_key(variant, alpha, "alice", "bob", x, y))
        if not (doc["initiator_accepted"] and doc["responder_accepted"]):
            return "an honest party did not accept"
        if doc["r_initiator"] != reference.element_hex("alice", x) or doc[
            "r_responder"
        ] != reference.element_hex("bob", y):
            return "handshake messages differ from the reference"
        if doc["initiator_key_digest"] != want or doc["responder_key_digest"] != want:
            return "honest key digest differs from the reference"
        return None

    @staticmethod
    def _check_uks(doc: dict, variant: str, seed: int) -> str | None:
        # draw order: master key, alice's scalar, eve's scalar, bob's scalar
        alpha, x_a, x_e, x_b = reference.draws(seed, 4)
        key_a = reference.session_key(variant, alpha, "alice", "bob", x_a, x_b)
        key_b = reference.session_key(variant, alpha, "eve", "bob", x_e, x_b)
        alice, bob = doc["parties"]
        if (alice["believed_peer"], bob["believed_peer"]) != ("bob", "eve"):
            return "uks peer beliefs differ from the script"
        if (alice["key_digest"], bob["key_digest"]) != (
            reference.key_digest(key_a),
            reference.key_digest(key_b),
        ):
            return "uks key digests differ from the reference"
        if doc["success"] != (key_a == key_b):
            return "uks success flag disagrees with the reference keys"
        return None

    @staticmethod
    def _check_mkbreak(doc: dict, variant: str, seed: int) -> str | None:
        alpha, x, y = reference.draws(seed, 3)
        want = reference.key_digest(reference.session_key(variant, alpha, "alice", "bob", x, y))
        if doc["success"] is not True:
            return "mkbreak did not succeed"
        if [p["key_digest"] for p in doc["parties"]] != [want, want]:
            return "mkbreak honest key digests differ from the reference"
        return None

    @staticmethod
    def _check_kci(doc: dict, variant: str, seed: int) -> str | None:
        alpha, x_a, x_b = reference.draws(seed, 3)
        want = reference.key_digest(
            reference.session_key("original", alpha, "alice", "bob", x_a, x_b)
        )
        cells = [
            (cell["x_choice"], cell["corrupt_b"], cell["report"]["success"])
            for cell in doc["cells"]
        ]
        expected = [
            ("random_element", False, False),
            ("random_element", True, False),
            ("identity_point_of_b", False, False),
            ("identity_point_of_b", True, True),
        ]
        if cells != expected:
            return "kci matrix is not exactly the identity-point cell with bob corrupted"
        if any(cell["report"]["parties"][1]["key_digest"] != want for cell in doc["cells"]):
            return "kci honest responder key digest differs from the reference"
        return None

    @staticmethod
    def _check_dlog_adv(doc: dict, variant: str, seed: int) -> str | None:
        return check_experiment(doc, "dlog-extract", variant, seed)

    @staticmethod
    def _check_freshness_table(doc: dict, variant: str, seed: int) -> str | None:
        rows = doc["rows"]
        if len(rows) != 80 or sum(row["matching_session_exists"] for row in rows) != 64:
            return f"freshness table has {len(rows)} rows, not 64 matched and 16 unmatched"
        if len({(row["matching_session_exists"], tuple(row["queries"])) for row in rows}) != 80:
            return "freshness table repeats a row"
        for row in rows:
            want = reference.freshness_of_atoms(row["matching_session_exists"], row["queries"])
            if (row["fresh"], row["violated_clause"]) != want:
                return f"freshness row {row['queries']} differs from the clause formula"
        return None

    def corruptions(self) -> list[tuple[int, tuple]]:
        bad = []
        for i, doc in sorted(self.samples.values(), key=lambda sample: sample[0]):
            doc = json.loads(json.dumps(doc))
            command, _ = self.kinds[i % self.cycle]
            if command == "handshake":
                doc["initiator_key_digest"] = _flip_hex(doc["initiator_key_digest"])
            elif command == "freshness-table":
                doc["rows"][5]["fresh"] = not doc["rows"][5]["fresh"]
            elif command == "kci":
                doc["cells"][0]["report"]["success"] = True
            elif command == "mkbreak":
                doc["success"] = False
            elif command == "uks":
                doc["parties"][1]["key_digest"] = _flip_hex(doc["parties"][1]["key_digest"])
            else:  # dlog-adv
                doc["verdict"] = "lose"
            bad.append((i, (0, json.dumps(doc), "summary\n")))
        return bad


class CrowdedWorld:
    """Reads and writes against one World grown to GROW_EXCHANGES honest
    exchanges among PARTIES parties.

    Each epoch of EPOCH_UNITS operations repeats the pattern PATTERN:
    R is an is_fresh read, W a reveal (ephemeral, session key or private
    key, in the order REVEALS), I a new honest exchange. A fresh world is
    grown outside the timed window at the start of every epoch, so the
    sessions an epoch adds stay at 5% of the population however fast the
    operations run. Every epoch replays the same schedule of targets on a
    differently seeded world, so op counts repeat exactly per epoch. Every
    party is honest: the adversary registers no identity here. Verdicts
    are checked against the clause formula over the reveals this runner
    issued, and revealed values against the raw-exponent reference.
    """

    PARTIES = tuple(f"p{k:02d}" for k in range(16))
    GROW_EXCHANGES = 2000
    PATTERN = "RRWRRIRRWR"
    REVEALS = ("eph", "key", "eph", "key", "eph", "key", "eph", "key", "eph", "private")
    EPOCH_UNITS = 1000
    cycle = EPOCH_UNITS
    warm_units = 20

    def __init__(self, pkg: types.ModuleType, seed: int) -> None:
        self.pkg = pkg
        self.seed = seed
        self.world = None
        self.last: dict[str, int] = {}
        self.schedule = self._schedule(random.Random(f"crowded-world/{seed}"))

    def _grow(self, epoch: int) -> None:
        pkg = self.pkg
        self.world = None
        world_seed = self.seed * SEED_STRIDE + epoch
        rng = random.Random(f"crowded-world/{self.seed}/{epoch}")
        world = pkg.World(world_seed, pkg.Variant.HARDENED)
        for party in self.PARTIES:
            world.add_party(party)
        # index k of these lists is the k-th session opened; sessions come in
        # initiator/responder pairs, so the matching session of k is k ^ 1
        self.handles: list[int] = []
        self.owners: list[str] = []
        for _ in range(self.GROW_EXCHANGES):
            a, b = rng.sample(self.PARTIES, 2)
            self.handles.extend(pkg.ecksim.run_honest_exchange(world, a, b))
            self.owners += (a, b)
        self.world = world
        self.key_revealed: set[int] = set()
        self.eph_revealed: set[int] = set()
        self.corrupted: set[str] = set()
        opened = len(self.owners) + 2 * sum(op[0] == "I" for op in self.schedule)
        self.alpha, *self.scalars = reference.draws(world_seed, 1 + opened)

    def _schedule(self, rng: random.Random) -> list[tuple]:
        # Targets follow Weyl sequences from random offsets: every seed then
        # spreads its reads evenly over the population, and the latency
        # quantiles, which depend on where a target sits in the session list,
        # vary little from seed to seed.
        offsets = [rng.random() for _ in range(3)]

        def spread(stream: int, k: int, size: int) -> int:
            return int((offsets[stream] + k * _GOLDEN) % 1.0 * size)

        ops: list[tuple] = []
        count = 2 * self.GROW_EXCHANGES
        touched: list[int] = []
        reads = writes = 0
        for k in range(self.EPOCH_UNITS):
            kind = self.PATTERN[k % len(self.PATTERN)]
            if kind == "R":
                # every other read lands on a revealed session or its partner
                if reads % 2 and touched:
                    ops.append(("R", touched[spread(0, reads, len(touched))]))
                else:
                    ops.append(("R", spread(1, reads, count)))
                reads += 1
            elif kind == "W":
                reveal = self.REVEALS[writes % len(self.REVEALS)]
                if reveal == "private":
                    ops.append(("private", rng.choice(self.PARTIES)))
                else:
                    idx = spread(2, writes, count)
                    touched += (idx, idx ^ 1)
                    ops.append((reveal, idx))
                writes += 1
            else:
                ops.append(("I", *rng.sample(self.PARTIES, 2)))
                count += 2
        return ops

    def start_cycle(self, epoch: int) -> None:
        self._grow(epoch)

    def run(self, i: int):
        op = self.schedule[i % self.EPOCH_UNITS]
        kind, world = op[0], self.world
        if kind == "R":
            return world.is_fresh(self.handles[op[1]])
        if kind == "eph":
            return world.eph_reveal(self.handles[op[1]])
        if kind == "key":
            return world.key_reveal(self.handles[op[1]])
        if kind == "private":
            return world.private_reveal(op[1])
        return self.pkg.ecksim.run_honest_exchange(world, op[1], op[2])

    def expected_verdict(self, idx: int) -> tuple[bool, str | None]:
        star = idx ^ 1
        return reference.freshness(
            idx in self.key_revealed,
            star in self.key_revealed,
            self.owners[idx] in self.corrupted,
            self.owners[star] in self.corrupted,
            idx in self.eph_revealed,
            star in self.eph_revealed,
            matched=True,
        )

    def expected_key(self, idx: int) -> bytes:
        init = idx & ~1
        return reference.session_key(
            "hardened",
            self.alpha,
            self.owners[init],
            self.owners[init + 1],
            self.scalars[init],
            self.scalars[init + 1],
        )

    def check(self, i: int, out) -> str | None:
        op = self.schedule[i % self.EPOCH_UNITS]
        kind = op[0]
        # the model records every reveal issued, even one that raised
        if kind == "eph":
            self.eph_revealed.add(op[1])
        elif kind == "key":
            self.key_revealed.add(op[1])
        elif kind == "private":
            self.corrupted.add(op[1])
        if isinstance(out, Exception):
            return f"{kind} raised {out!r}"
        self.last[kind] = i
        if kind == "R":
            want = self.expected_verdict(op[1])
            if (out.fresh, out.violated_clause) != want:
                return f"is_fresh said {(out.fresh, out.violated_clause)}, clause formula {want}"
        elif kind == "eph":
            if out != self.scalars[op[1]]:
                return "revealed ephemeral scalar differs from the reference draw"
        elif kind == "key":
            if out != self.expected_key(op[1]):
                return "revealed session key differs from the reference"
        elif kind == "private":
            if out.identity != op[1]:
                return "private reveal returned another identity's keys"
        else:
            new = tuple(out)
            if len(set(new)) != 2:
                return f"new exchange returned handles {new!r}"
            self.handles.extend(new)
            self.owners += (op[1], op[2])
        return None

    def corruptions(self) -> list[tuple[int, object]]:
        bad = []
        if "R" in self.last:
            i = self.last["R"]
            fresh, clause = self.expected_verdict(self.schedule[i % self.EPOCH_UNITS][1])
            bad.append((i, types.SimpleNamespace(fresh=not fresh, violated_clause=clause)))
        if "key" in self.last:
            i = self.last["key"]
            key = self.expected_key(self.schedule[i % self.EPOCH_UNITS][1])
            bad.append((i, bytes([key[0] ^ 1]) + key[1:]))
        if "eph" in self.last:
            i = self.last["eph"]
            bad.append((i, self.scalars[self.schedule[i % self.EPOCH_UNITS][1]] + 1))
        return bad


WORKLOADS = {
    "eck-calibration": EckCalibration,
    "crowded-world": CrowdedWorld,
    "cli-attacks": CliAttacks,
}

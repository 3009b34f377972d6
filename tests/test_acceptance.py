"""Acceptance gate: one test per criterion, run with `pytest -v` so the
runner prints a pass/fail line for each. Every expected value comes from
an independent route: raw-exponent key recomputation, the clause-level
freshness reference, or byte comparison of repeated runs.

Each test also prints its elapsed time (visible with -s or on failure);
the stated runtime expectations are generous on this backend.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from idak import (
    DEFAULT_Q,
    KGC,
    GroupParams,
    Role,
    Variant,
    XChoice,
    complete_session,
    freshness_truth_table,
    pair,
    random_scalar,
    run_dlog_extract_adversary,
    run_key_reveal_violator,
    run_kci_attempt,
    run_master_key_break,
    run_random_guess_adversary,
    run_uks,
    start_session,
)
from idak.errors import CapabilityError

from conftest import reference_freshness, reference_session_key

VARIANTS = (Variant.ORIGINAL, Variant.HARDENED)


class _Timer:
    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        status = "FAIL" if exc[0] else "PASS"
        print(f"acceptance: {self.label}: {status} in {elapsed:.2f}s")
        return False


def test_criterion_1_key_agreement_against_exponent_oracle():
    """1000 seeded honest runs per variant: both keys equal and equal to
    the raw-exponent recomputation."""
    with _Timer("1 key agreement"):
        for variant in VARIANTS:
            for seed in range(1000):
                rng = random.Random(seed)
                kgc = KGC(rng, GroupParams(DEFAULT_Q), master_key_reveal=True)
                alice = kgc.extract("alice")
                bob = kgc.extract("bob")
                a_sess, r_a = start_session(alice, "bob", Role.INITIATOR, variant, rng)
                b_sess, r_b = start_session(bob, "alice", Role.RESPONDER, variant, rng)
                complete_session(b_sess, r_a)
                complete_session(a_sess, r_b)
                assert a_sess.key == b_sess.key
                assert a_sess.key == reference_session_key(
                    variant.value,
                    DEFAULT_Q,
                    1,
                    kgc.reveal_master_key(),
                    "alice",
                    "bob",
                    a_sess.x,
                    b_sess.x,
                )


def test_criterion_2_pairing_laws():
    """Bilinearity, symmetry, non-degeneracy: 1000 seeded trials each."""
    with _Timer("2 pairing laws"):
        params = GroupParams(DEFAULT_Q)
        g, q = params.g, params.q
        rng = random.Random(2)
        for _ in range(1000):
            x, y, c = (random_scalar(rng, params) for _ in range(3))
            assert pair(g**x, g**y) == pair(g, g) ** (x * y)
            assert pair((g**x) ** c, g**y) == pair(g**x, g**y) ** c
        for _ in range(1000):
            x, y = random_scalar(rng, params), random_scalar(rng, params)
            assert pair(g**x, g**y) == pair(g**y, g**x)
        for _ in range(1000):
            x, y = random_scalar(rng, params), random_scalar(rng, params)
            assert not pair(g**x, g**y).is_identity
        assert pair(g, g) == params.gt


def test_criterion_3_misbinding_differential():
    """The scripted misbinding fails on both variants at the default q,
    1000 of 1000 seeds each, so it does not separate them. Original: bob
    ends convinced the peer is eve, and the factual key relationship is
    recorded (the keys do not coincide, so the honest success predicate
    stays false). Hardened, which also binds both identities into the
    s-values and the identities and the ordered transcript into the key
    derivation: success false with distinct keys as well. What the
    hardening does stop is key replication by role confusion, in
    test_ecksim.py::test_role_swap_replicates_only_the_original_key."""
    with _Timer("3 misbinding differential"):
        for seed in range(1000):
            report = run_uks(Variant.ORIGINAL, seed)
            alice, bob = report.parties
            assert alice.accepted and bob.accepted
            assert bob.believed_peer == "eve" != alice.identity
            assert alice.believed_peer == "bob"
            assert alice.key_digest and bob.key_digest  # relationship recorded
            assert alice.key_digest != bob.key_digest
            assert report.success is False
            assert any("no shared key exists" in e for e in report.events)
        for seed in range(1000):
            report = run_uks(Variant.HARDENED, seed)
            assert report.success is False
            assert report.parties[0].key_digest != report.parties[1].key_digest
        # recorded behavior is reproducible
        assert run_uks(Variant.ORIGINAL, 0).to_json() == run_uks(Variant.ORIGINAL, 0).to_json()


def test_criterion_4_master_key_break():
    """Passive reconstruction succeeds for both variants on 1000 seeds
    each, and the script refuses without the reveal capability."""
    with _Timer("4 master-key break"):
        for variant in VARIANTS:
            for seed in range(1000):
                assert run_master_key_break(variant, seed).success
        with pytest.raises(CapabilityError):
            run_master_key_break(Variant.ORIGINAL, 0, master_key_reveal=False)


def test_criterion_5_kci_matrix():
    """Exactly the (identity point, corrupt responder) cell succeeds;
    the other three cells fail on all 1000 seeds each. The succeeding
    cell corrupts bob, so it is impersonation with bob's own key, not
    KCI: the game judges alice's session unfresh under clause 3b."""
    with _Timer("5 kci matrix"):
        for x_choice in XChoice:
            for corrupt_b in (False, True):
                expected = x_choice is XChoice.IDENTITY_POINT_OF_B and corrupt_b
                for seed in range(1000):
                    report = run_kci_attempt(seed, x_choice, corrupt_b)
                    assert report.success is expected, (x_choice, corrupt_b, seed)


def test_criterion_6_freshness_truth_table():
    """Implementation verdicts equal the clause-level reference on every
    enumerated combination."""
    with _Timer("6 freshness truth table"):
        rows = freshness_truth_table()
        assert len(rows) == 80
        for row in rows:
            fresh, clause = reference_freshness(
                row["matching_session_exists"], set(row["queries"])
            )
            assert (row["fresh"], row["violated_clause"]) == (fresh, clause), row


def test_criterion_7_eck_calibration():
    """Random guessing wins half the time, the discrete-log adversary
    wins always on a fresh test session, and a clause-1 violator is
    judged invalid every time."""
    with _Timer("7 eck calibration"):
        wins = sum(
            run_random_guess_adversary(Variant.HARDENED, seed)["verdict"] == "win"
            for seed in range(10_000)
        )
        assert 0.48 <= wins / 10_000 <= 0.52, wins
        for seed in range(10_000):
            report = run_dlog_extract_adversary(Variant.HARDENED, seed)
            assert report["verdict"] == "win"
            assert report["freshness"]["fresh"] is True
        for seed in range(1000):
            assert run_key_reveal_violator(Variant.HARDENED, seed)["verdict"] == "invalid"


CLI_CASES = [
    ["handshake", "--seed", "3"],
    ["uks", "--variant", "original", "--seed", "7"],
    ["mkbreak", "--variant", "hardened", "--seed", "11"],
    ["kci", "--seed", "5"],
    ["dlog-adv", "--seed", "2"],
    ["eck-batch", "--seed", "0", "--trials", "25"],
    ["freshness-table", "--seed", "1"],
]


def test_criterion_8_cli_determinism():
    """Every command, rerun with identical flags, emits identical bytes."""
    with _Timer("8 cli determinism"):
        for argv in CLI_CASES:
            outputs = []
            for _ in range(2):
                result = subprocess.run(
                    [sys.executable, "-m", "idak", *argv], capture_output=True
                )
                assert result.returncode == 0, result.stderr
                outputs.append(result.stdout)
            assert outputs[0] == outputs[1], argv
            json.loads(outputs[0])  # and it parses

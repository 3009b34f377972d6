"""Attack scripts: recorded facts, honest success predicates, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import (
    FreshnessVerdict,
    PartyRecord,
    Role,
    Variant,
    XChoice,
    kci_success,
    master_key_break_success,
    misbinding_success,
    run_dlog_extract_adversary,
    run_kci_attempt,
    run_master_key_break,
    run_uks,
)
from idak import attacks
from idak.ecksim import two_party_world
from idak.errors import CapabilityError, ParameterError
from idak.group import random_scalar
from idak.oracles import hash_to_group, key_digest

from conftest import reference_one_sided_key, reference_session_key

VARIANTS = (Variant.ORIGINAL, Variant.HARDENED)


@pytest.mark.parametrize("variant", VARIANTS)
def test_uks_records_the_confusion(variant):
    """Both parties accept, bob names eve, alice names bob."""
    report = run_uks(variant, 7)
    alice, bob = report.parties
    assert (alice.identity, alice.believed_peer) == ("alice", "bob")
    assert (bob.identity, bob.believed_peer) == ("bob", "eve")
    assert alice.accepted and bob.accepted
    assert bob.believed_peer != alice.identity


@pytest.mark.parametrize("variant", VARIANTS)
def test_uks_keys_do_not_coincide(variant):
    """Under the literal interception steps the two honest keys involve
    different identity points and transcripts, so they differ; the
    narrative records that no shared key came out of the confusion."""
    for seed in range(100):
        report = run_uks(variant, seed)
        alice, bob = report.parties
        assert alice.key_digest != bob.key_digest
        assert report.success is False
    assert any("no shared key exists" in event for event in report.events)


@pytest.mark.parametrize("variant", VARIANTS)
def test_uks_adversary_knows_bobs_key_not_alices(variant):
    """The adversary completes its own eve-session honestly with bob, so
    it holds bob's key; alice's key stays out of reach."""
    report = run_uks(variant, 7)
    alice, bob = report.parties
    eve_key = next(
        e.split(":", 1)[1] for e in report.adversary_knowledge if e.startswith("session_key_with_bob_digest:")
    )
    assert eve_key == bob.key_digest
    assert alice.key_digest not in "".join(report.adversary_knowledge)


def test_uks_reports_reproducible():
    assert run_uks(Variant.ORIGINAL, 3).to_json() == run_uks(Variant.ORIGINAL, 3).to_json()
    assert run_uks(Variant.ORIGINAL, 3).to_json() != run_uks(Variant.ORIGINAL, 4).to_json()


def test_misbinding_predicate_is_pure():
    """The predicate fires exactly on key coincidence plus mismatched
    belief, checked on synthetic records."""
    coincide = [
        PartyRecord("alice", "bob", True, "d1"),
        PartyRecord("bob", "eve", True, "d1"),
    ]
    assert misbinding_success(coincide)
    assert not misbinding_success(
        [PartyRecord("alice", "bob", True, "d1"), PartyRecord("bob", "eve", True, "d2")]
    )
    assert not misbinding_success(
        [PartyRecord("alice", "bob", True, "d1"), PartyRecord("bob", "alice", True, "d1")]
    )
    assert not misbinding_success(
        [PartyRecord("alice", "bob", True, "d1"), PartyRecord("bob", "eve", False, "d1")]
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_master_key_break_succeeds(variant):
    for seed in range(100):
        report = run_master_key_break(variant, seed)
        assert report.success
        alice, bob = report.parties
        assert alice.key_digest == bob.key_digest
        recomputed = next(
            e.split(":", 1)[1]
            for e in report.adversary_knowledge
            if e.startswith("recomputed_key_digest:")
        )
        assert recomputed == alice.key_digest


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    q=st.sampled_from([5, 7, 13, 101, 1_000_003]),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_transcript_key_matches_one_sided_reference(variant, q, seed, data):
    """The mkbreak candidate, rebuilt from the master key and the public
    transcript, is alice's initiator key over (R_A, R_in) by the one-sided
    reference, for any scalar of hers and any element in bob's place."""
    world = two_party_world(seed, variant, q, master_key_reveal=True)
    alpha = world.kgc.reveal_master_key()
    x = data.draw(st.integers(1, q - 1), label="x")
    r_in = data.draw(st.integers(1, q - 1), label="r_in")
    g = world.params.g
    r_init, r_resp = hash_to_group(world.params, "alice") ** x, g**r_in
    d_bob = hash_to_group(world.params, "bob") ** alpha
    got = attacks._transcript_key(world, r_init, r_resp, d_bob, r_resp**alpha)
    assert got == reference_one_sided_key(
        variant.value, q, alpha, "alice", "bob", "initiator", x, r_in
    )


def test_master_key_break_requires_capability():
    with pytest.raises(CapabilityError):
        run_master_key_break(Variant.HARDENED, 7, master_key_reveal=False)


def test_master_key_break_success_recomputed():
    report = run_master_key_break(Variant.ORIGINAL, 5)
    assert master_key_break_success(report.parties, report.adversary_knowledge) is report.success


KCI_CELLS = [
    (XChoice.RANDOM_ELEMENT, False, False),
    (XChoice.RANDOM_ELEMENT, True, False),
    (XChoice.IDENTITY_POINT_OF_B, False, False),
    (XChoice.IDENTITY_POINT_OF_B, True, True),
]


@pytest.mark.parametrize("x_choice,corrupt_b,expected", KCI_CELLS)
def test_kci_matrix(x_choice, corrupt_b, expected):
    for seed in range(100):
        report = run_kci_attempt(seed, x_choice, corrupt_b)
        assert report.success is expected, (x_choice, corrupt_b, seed)
        assert report.variant == "original"
        assert kci_success(report.parties, report.adversary_knowledge) is report.success


def test_kci_candidate_matches_victim_key_in_winning_cell():
    report = run_kci_attempt(7, XChoice.IDENTITY_POINT_OF_B, True)
    candidate = next(
        e.split(":", 1)[1]
        for e in report.adversary_knowledge
        if e.startswith("candidate_key_digest:")
    )
    assert candidate == report.parties[0].key_digest
    assert "private_key:bob" in report.adversary_knowledge


def test_succeeding_kci_cell_is_not_fresh():
    """The one succeeding KCI cell corrupts bob, so it impersonates bob with
    bob's own key, which is not KCI. Replayed in a World, the same draws
    give alice the same key, and her session fails clause 3b: no matching
    session, and the peer is corrupted."""
    for seed in range(20):
        world = two_party_world(seed, Variant.ORIGINAL)
        world.private_reveal("alice")
        world.private_reveal("bob")
        h_a, r_a = world.activate("alice", "bob", Role.INITIATOR)
        h_b, _ = world.activate("bob", "alice", Role.RESPONDER)
        world.deliver(h_b, r_a)
        world.deliver(h_a, hash_to_group(world.params, "bob"))
        assert world.is_fresh(h_a) == FreshnessVerdict(False, "3b")
        report = run_kci_attempt(seed, XChoice.IDENTITY_POINT_OF_B, True)
        assert report.success
        assert report.parties[0].key_digest == key_digest(world.session(h_a).key)


def kci_cell_on_its_own_world(seed, x_choice, corrupt_b):
    """Reference for one kci cell: its script replayed step by step, in its
    own order, on a world of its own. The winning cell's candidate is
    alice's key, which the cell asserts it reconstructs."""
    world = two_party_world(seed, Variant.ORIGINAL)
    world.private_reveal("alice")
    events = ["adversary revealed alice's long-term key"]
    knowledge = ["private_key:alice"]
    if corrupt_b:
        world.private_reveal("bob")
        knowledge.append("private_key:bob")
        events.append("adversary revealed bob's long-term key as well")
    h_a, r_a = world.activate("alice", "bob", Role.INITIATOR)
    h_b, _ = world.activate("bob", "alice", Role.RESPONDER)
    world.deliver(h_b, r_a)
    events.append("alice's opening message reached bob; bob responded and accepted")
    if x_choice is XChoice.IDENTITY_POINT_OF_B:
        x_sub = hash_to_group(world.params, "bob")
        events.append("adversary replaced bob's response with bob's identity point")
    else:
        x_sub = world.params.g ** random_scalar(world.rng, world.params)
        events.append(f"adversary replaced bob's response with a random element {x_sub.hex()}")
    world.deliver(h_a, x_sub)
    events.append("alice accepted the substituted response, believing it came from bob")
    wins = x_choice is XChoice.IDENTITY_POINT_OF_B and corrupt_b
    if wins:
        knowledge.append(f"candidate_key_digest:{key_digest(world.session(h_a).key)}")
        events.append("adversary computed a candidate key from bob's private key")
    else:
        events.append(
            "no candidate computable: the substituted element's master-key power "
            "is out of the adversary's reach"
        )
    parties = []
    for handle in (h_a, h_b):
        session = world.session(handle)
        parties.append(
            {
                "id": session.owner,
                "believed_peer": session.peer,
                "accepted": True,
                "key_digest": key_digest(session.key),
            }
        )
    return {
        "attack": "kci",
        "variant": "original",
        "seed": seed,
        "parties": parties,
        "adversary_knowledge": knowledge,
        "success": wins,
        "events": events,
    }


@pytest.mark.parametrize("x_choice", XChoice)
def test_kci_cells_of_one_choice_share_a_world(x_choice):
    """run_kci_cells runs both cells of an x_choice on one world, since
    bob's reveal draws nothing and changes no session; each report, and
    the one-cell run_kci_attempt built on it, equals the cell's script
    replayed on a world of its own, over seeds 0-199."""
    for seed in range(200):
        cells = attacks.run_kci_cells(seed, x_choice)
        assert len(cells) == 2
        for corrupt_b, report in zip((False, True), cells):
            want = kci_cell_on_its_own_world(seed, x_choice, corrupt_b)
            assert report.to_json() == want, (seed, corrupt_b)
            assert run_kci_attempt(seed, x_choice, corrupt_b).to_json() == want


@pytest.mark.parametrize("q", [5, 7])
def test_uks_small_q_success_is_a_kdf0_collision(q):
    """At small q the scripted misbinding can succeed on the original
    variant, by chance: KDF0 hashes the shared value alone, and alice's
    shared value (her run with bob) and bob's (his run with eve) collide
    among q target-group elements (11/64 of runs at q = 5). So success is
    exactly the equality of the two reference keys, drawn in the script's
    order (master key, alice, eve, bob). The hardened KDF hashes the
    identities and the transcript, so there it never succeeds."""
    successes = 0
    for seed in range(200):
        rng = random.Random(seed)
        alpha, x_alice, x_eve, x_bob = (rng.randrange(1, q) for _ in range(4))
        alice_key = reference_session_key("original", q, 1, alpha, "alice", "bob", x_alice, x_bob)
        bob_key = reference_session_key("original", q, 1, alpha, "eve", "bob", x_eve, x_bob)
        report = run_uks(Variant.ORIGINAL, seed, q)
        assert report.success is (alice_key == bob_key), seed
        successes += report.success
        assert run_uks(Variant.HARDENED, seed, q).success is False
    assert successes > 0


def test_kci_no_candidate_without_inputs():
    report = run_kci_attempt(7, XChoice.IDENTITY_POINT_OF_B, False)
    assert not any(e.startswith("candidate_key_digest:") for e in report.adversary_knowledge)
    assert "private_key:bob" not in report.adversary_knowledge


def test_kci_reports_reproducible():
    a = run_kci_attempt(9, XChoice.RANDOM_ELEMENT, True).to_json()
    b = run_kci_attempt(9, XChoice.RANDOM_ELEMENT, True).to_json()
    assert a == b


@pytest.mark.parametrize(
    "x_choice,corrupt_b",
    [("random_element", False), ("identity_point_of_b", True), (XChoice.RANDOM_ELEMENT, 1)],
)
def test_kci_rejects_wrong_typed_choices(monkeypatch, x_choice, corrupt_b):
    """A string x_choice used to run the random-element branch silently;
    it, and a corrupt_b that is not a bool, fail before the world is built."""
    monkeypatch.setattr(attacks, "two_party_world", None)
    with pytest.raises(ParameterError):
        run_kci_attempt(0, x_choice, corrupt_b)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dlog_adversary_always_wins_fresh(variant):
    for seed in range(100):
        report = run_dlog_extract_adversary(variant, seed)
        assert report["verdict"] == "win"
        assert report["freshness"] == {"fresh": True, "violated_clause": None}
        kinds = [record["query"] for record in report["query_log"]]
        assert kinds == ["Extract", "Test", "Guess"]
        assert report["query_log"][0]["identity"] == "eve"


def test_attack_report_schema():
    report = run_uks(Variant.HARDENED, 0).to_json()
    assert set(report) == {
        "attack",
        "variant",
        "seed",
        "parties",
        "adversary_knowledge",
        "success",
        "events",
    }
    assert set(report["parties"][0]) == {"id", "believed_peer", "accepted", "key_digest"}
    assert all(isinstance(e, str) for e in report["events"])
    assert all(isinstance(e, str) for e in report["adversary_knowledge"])

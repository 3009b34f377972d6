"""Scripted adversary programs against the protocol.

Four scripts: an identity-misbinding interception against both variants,
a passive break using a revealed master key, a key-compromise
impersonation attempt matrix, and a discrete-log adversary that plays
the distinguishing game using the toy backend's exponent visibility.

Each report records the facts: who accepted, believing which peer, with
which key digest, and what the adversary harvested. The success flag is
recomputed from those records by a per-attack predicate; the scripts
never assert success free-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .ecksim import World, run_honest_exchange, two_party_world
from .errors import require
from .group import DEFAULT_Q, GElem, dlog, pair, random_scalar
from .oracles import derive_key, hash_to_group, key_digest, session_hashes
from .protocol import Role, Variant, complete_session, start_session

_RECOMPUTED = "recomputed_key_digest:"
_CANDIDATE = "candidate_key_digest:"
_new = object.__new__


@dataclass(frozen=True)
class PartyRecord:
    identity: str
    believed_peer: str
    accepted: bool
    key_digest: str | None

    def to_json(self) -> dict:
        return {
            "id": self.identity,
            "believed_peer": self.believed_peer,
            "accepted": self.accepted,
            "key_digest": self.key_digest,
        }


@dataclass
class AttackReport:
    attack: str
    variant: str
    seed: int
    parties: list[PartyRecord]
    adversary_knowledge: list[str]
    success: bool
    events: list[str]

    def to_json(self) -> dict:
        return {
            "attack": self.attack,
            "variant": self.variant,
            "seed": self.seed,
            "parties": [p.to_json() for p in self.parties],
            "adversary_knowledge": list(self.adversary_knowledge),
            "success": self.success,
            "events": list(self.events),
        }


def _party_record(world: World, handle: int) -> PartyRecord:
    """A party's record, read from the state of its session in the world.
    The key is read once, and the record is filled directly: the frozen
    dataclass's __init__ would set each field through object.__setattr__."""
    session = world.session(handle)
    key = session.key
    record = _new(PartyRecord)
    vars(record).update(
        identity=session.owner,
        believed_peer=session.peer,
        accepted=session.r_in is not None,
        key_digest=key_digest(key) if key else None,
    )
    return record


def _transcript_key(
    world: World, r_init: GElem, r_resp: GElem, d_resp: GElem, r_resp_alpha: GElem
) -> bytes:
    """Alice's key with bob over (r_init, r_resp), rebuilt without her private
    key: d_resp and r_resp_alpha are the master-key powers of bob's identity
    point and of r_resp, so pair(d_resp^s_r * r_resp_alpha, r_init * H(alice)^s_i)
    is her shared value, and every other input of the derivation is public."""
    bound = world.variant is Variant.HARDENED
    s_init, s_resp, kdf_input = session_hashes(bound, "alice", "bob", r_init, r_resp)
    a_base = hash_to_group(world.params, "alice")
    shared = pair(d_resp**s_resp * r_resp_alpha, r_init * a_base**s_init)
    return derive_key(kdf_input, shared)


def _digest_knowledge(knowledge: list[str], prefix: str) -> str | None:
    for entry in knowledge:
        if entry.startswith(prefix):
            return entry[len(prefix):]
    return None


def misbinding_success(parties: list[PartyRecord]) -> bool:
    """True unknown key share: both accepted, the responder names someone
    other than the real initiator, yet the two keys coincide."""
    initiator, responder = parties
    return (
        initiator.accepted
        and responder.accepted
        and responder.believed_peer != initiator.identity
        and initiator.believed_peer == responder.identity
        and initiator.key_digest == responder.key_digest
    )


def master_key_break_success(parties: list[PartyRecord], knowledge: list[str]) -> bool:
    """The recomputed key digest matches what both honest parties hold."""
    recomputed = _digest_knowledge(knowledge, _RECOMPUTED)
    return recomputed is not None and all(
        p.accepted and p.key_digest == recomputed for p in parties
    )


def kci_success(parties: list[PartyRecord], knowledge: list[str]) -> bool:
    """Some computable candidate equals the impersonated-to party's key."""
    victim = parties[0]
    candidate = _digest_knowledge(knowledge, _CANDIDATE)
    return candidate is not None and victim.accepted and candidate == victim.key_digest


def run_uks(variant: Variant, seed: int, q: int = DEFAULT_Q) -> AttackReport:
    """Identity-misbinding interception.

    The adversary registers its own identity eve, intercepts alice's
    opening message to bob, opens its own session to bob as eve with a
    fresh element, and relays bob's response back to alice. Both honest
    parties accept; bob is convinced the peer is eve. The report records
    whether the two honest keys actually coincide, which is what would
    turn the confusion into a shared-key misbinding.
    """
    world = two_party_world(seed, variant, q)
    events: list[str] = []

    eve = world.adv_extract("eve")
    events.append("adversary registered identity eve and obtained its private key")

    h_a, r_a = world.activate("alice", "bob", Role.INITIATOR)
    events.append(f"alice opened a session to bob, sending {r_a.hex()}")
    events.append("adversary intercepted alice's message; bob never sees it")

    # eve's session belongs to the adversary, so it runs outside the world
    e_sess, r_e = start_session(eve, "bob", Role.INITIATOR, variant, world.rng)
    events.append(f"adversary opened its own session to bob as eve, sending {r_e.hex()}")

    h_b, r_b = world.activate("bob", "eve", Role.RESPONDER)
    events.append(f"bob, believing the peer is eve, responded with {r_b.hex()}")
    world.deliver(h_b, r_e)
    events.append("bob accepted, convinced the session is with eve")

    world.deliver(h_a, r_b)
    events.append("adversary relayed bob's response to alice; alice accepted, believing bob")

    complete_session(e_sess, r_b)
    knowledge = [
        "private_key:eve",
        "ephemeral_scalar:eve_session",
        f"session_key_with_bob_digest:{key_digest(e_sess.key)}",
    ]

    parties = [_party_record(world, h_a), _party_record(world, h_b)]
    if parties[0].key_digest == parties[1].key_digest:
        events.append("alice and bob hold the same key under mismatched peer beliefs")
    else:
        events.append(
            "alice's key differs from bob's key: the peer confusion stands, but no "
            "shared key exists between alice and bob"
        )
    return AttackReport(
        "uks", variant.value, seed, parties, knowledge, misbinding_success(parties), events
    )


def run_master_key_break(
    variant: Variant,
    seed: int,
    q: int = DEFAULT_Q,
    master_key_reveal: bool = True,
) -> AttackReport:
    """Passive break with the master key.

    A purely observing adversary holding the master secret rebuilds the
    shared pairing value of any honest run from its public transcript:
    pair(resp_base^s_r * r_resp, r_init * init_base^s_i) raised to the
    master key equals the honest shared value, and the public
    transcript supplies everything else the key derivation consumes.
    With master_key_reveal left off, the script refuses to run.
    """
    world = two_party_world(seed, variant, q, master_key_reveal)
    h_a, h_b = run_honest_exchange(world, "alice", "bob")
    events = ["alice and bob completed an honest run; adversary only observed the wire"]

    alpha = world.kgc.reveal_master_key()
    events.append("adversary obtained the master key through the reveal capability")

    init = world.session(h_a)
    b_base = hash_to_group(world.params, "bob")
    candidate = _transcript_key(world, init.r_out, init.r_in, b_base**alpha, init.r_in**alpha)
    events.append("adversary recomputed the session key from the public transcript alone")

    knowledge = [
        f"master_key:{alpha}",
        f"{_RECOMPUTED}{key_digest(candidate)}",
    ]
    parties = [_party_record(world, h_a), _party_record(world, h_b)]
    success = master_key_break_success(parties, knowledge)
    return AttackReport(
        "master-key-break", variant.value, seed, parties, knowledge, success, events
    )


class XChoice(Enum):
    RANDOM_ELEMENT = "random_element"
    IDENTITY_POINT_OF_B = "identity_point_of_b"


def run_kci_attempt(
    seed: int, x_choice: XChoice, corrupt_b: bool, q: int = DEFAULT_Q
) -> AttackReport:
    """One cell of `run_kci_cells`; a non-bool corrupt_b fails before any world is built."""
    require(corrupt_b, bool, "corrupt_b")
    return run_kci_cells(seed, x_choice, q)[corrupt_b]


def run_kci_cells(seed: int, x_choice: XChoice, q: int = DEFAULT_Q) -> list[AttackReport]:
    """Key-compromise impersonation attempt against the original variant:
    the reports of cells (x_choice, False) and (x_choice, True), in order.

    The adversary holds alice's long-term key and tries to impersonate
    bob to her: it lets alice's opening message through but replaces
    bob's response with a substitute X. Alice's key then involves X
    paired against material only bob's private key can reproduce, so the
    adversary's candidate computation needs X raised to the master key.
    The one substitution that makes that term available is X = bob's
    identity point, whose master-key power is exactly bob's private key,
    and only when bob is corrupted too. So the one cell whose `success`
    is true corrupts bob: that is impersonation with bob's own key, not
    KCI, and the game judges alice's session unfresh under clause 3b
    (no matching session, peer corrupted). With bob uncorrupted no cell
    succeeds, so Wang's KCI claim stands here. The script records
    candidates only in branches whose inputs the adversary actually holds.
    Both cells share one world: they differ only in bob's reveal, which
    draws nothing and changes no session. An x_choice that is not an
    XChoice is rejected before the world is built.
    """
    # a string x_choice would silently run the random-element branch
    require(x_choice, XChoice, "x_choice")
    variant = Variant.ORIGINAL
    world = two_party_world(seed, variant, q)
    group = world.params
    world.private_reveal("alice")
    bob = world.private_reveal("bob")
    h_a, r_a = world.activate("alice", "bob", Role.INITIATOR)
    h_b, _ = world.activate("bob", "alice", Role.RESPONDER)
    world.deliver(h_b, r_a)
    events = ["alice's opening message reached bob; bob responded and accepted"]
    if x_choice is XChoice.IDENTITY_POINT_OF_B:
        x_sub = hash_to_group(group, "bob")
        events.append("adversary replaced bob's response with bob's identity point")
    else:
        x_sub = group.g ** random_scalar(world.rng, group)
        events.append(f"adversary replaced bob's response with a random element {x_sub.hex()}")
    world.deliver(h_a, x_sub)
    events.append("alice accepted the substituted response, believing it came from bob")

    parties = [_party_record(world, h_a), _party_record(world, h_b)]
    reports = []
    for corrupt_b in (False, True):
        knowledge = ["private_key:alice"]
        cell_events = ["adversary revealed alice's long-term key"]
        if corrupt_b:
            knowledge.append("private_key:bob")
            cell_events.append("adversary revealed bob's long-term key as well")
        cell_events += events
        if x_choice is XChoice.IDENTITY_POINT_OF_B and corrupt_b:
            # X = bob's identity point, so X to the master key is bob's private
            # key, and the candidate needs nothing the adversary lacks.
            candidate = _transcript_key(world, r_a, x_sub, bob.private_key, bob.private_key)
            knowledge.append(f"{_CANDIDATE}{key_digest(candidate)}")
            cell_events.append("adversary computed a candidate key from bob's private key")
        else:
            cell_events.append(
                "no candidate computable: the substituted element's master-key power "
                "is out of the adversary's reach"
            )
        success = kci_success(parties, knowledge)
        reports.append(
            AttackReport("kci", variant.value, seed, parties[:], knowledge, success, cell_events)
        )
    return reports


def run_dlog_extract_adversary(
    variant: Variant,
    seed: int,
    q: int = DEFAULT_Q,
) -> dict:
    """Distinguishing adversary exploiting the toy backend's transparent
    exponents.

    It passively observes one honest run, registers a throwaway identity
    to obtain a (base, private) pair, divides their discrete logs to
    recover the master key, rebuilds the session key from the public
    transcript, and answers the test query with certainty. The only
    logged queries are the extraction, the test, and the guess, so the
    test session stays fresh and the verdict is a win.
    """
    world = two_party_world(seed, variant, q)
    h_init, _ = run_honest_exchange(world, "alice", "bob")

    eve = world.adv_extract("eve")
    alpha = dlog(eve.private_key) * pow(dlog(eve.public_key), -1, q) % q

    init = world.session(h_init)
    b_base = hash_to_group(world.params, "bob")
    candidate = _transcript_key(world, init.r_out, init.r_in, b_base**alpha, init.r_in**alpha)

    answer = world.test(h_init)
    world.guess(0 if answer == candidate else 1)
    return world.experiment_report("dlog-extract")

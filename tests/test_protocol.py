"""Exchange state machine: agreement, validation, matching, references."""

import dataclasses
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import (
    DEFAULT_Q,
    KGC,
    GroupParams,
    Role,
    Variant,
    complete_session,
    dlog,
    key_digest,
    pair,
    session_id,
    sessions_match,
    start_session,
    transcript_record,
    transcript_scalar,
)
from idak import oracles, protocol
from idak.errors import (
    EmptyIdentityError,
    GroupMismatchError,
    InvalidElementError,
    ParameterError,
    SessionStateError,
)

from conftest import reference_handshake_key, reference_one_sided_key, reference_session_key

VARIANTS = (Variant.ORIGINAL, Variant.HARDENED)


def handshake(variant, seed, q=DEFAULT_Q, initiator="alice", responder="bob"):
    rng = random.Random(seed)
    kgc = KGC(rng, GroupParams(q), master_key_reveal=True)
    init_keys = kgc.extract(initiator)
    resp_keys = kgc.extract(responder)
    a_sess, r_a = start_session(init_keys, responder, Role.INITIATOR, variant, rng)
    b_sess, r_b = start_session(resp_keys, initiator, Role.RESPONDER, variant, rng)
    complete_session(b_sess, r_a)
    complete_session(a_sess, r_b)
    return kgc, a_sess, b_sess, a_sess.key, b_sess.key


@pytest.mark.parametrize("variant", VARIANTS)
def test_honest_agreement_and_exponent_reference(variant):
    """Both sides agree, and the key equals the raw-exponent reference."""
    for seed in range(50):
        kgc, a_sess, b_sess, key_a, key_b = handshake(variant, seed)
        assert key_a == key_b
        expected = reference_session_key(
            variant.value,
            DEFAULT_Q,
            1,
            kgc.reveal_master_key(),
            "alice",
            "bob",
            a_sess.x,
            b_sess.x,
        )
        assert key_a == expected


@pytest.mark.parametrize(
    "variant,digest_hex",
    [
        (Variant.HARDENED, "9d23e40b0b4f65080ad00d6ef41b042ece880258e3d57478c89b6c9cb4b217f0"),
        (Variant.ORIGINAL, "134460e36ec822b93cc1d6d2e5d17362cf65e3c84753c65f65d9fd7049b3e408"),
    ],
)
def test_frozen_handshake_anchor(variant, digest_hex):
    # frozen from the raw-hashlib reference replay of seed 7
    _, _, _, key_a, _ = handshake(variant, 7)
    assert key_digest(key_a) == digest_hex
    assert key_a == reference_handshake_key(variant.value, 7, DEFAULT_Q)


def test_start_session_shape():
    rng = random.Random(4)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    session, r_out = start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
    assert session.r_in is None
    assert session.key is None
    assert not r_out.is_identity
    assert dlog(r_out) == dlog(alice.public_key) * session.x % DEFAULT_Q
    with pytest.raises(EmptyIdentityError):
        start_session(alice, "", Role.INITIATOR, Variant.HARDENED, rng)


@pytest.mark.parametrize(
    "peer,variant",
    [(5, Variant.HARDENED), ("bob", "original"), ("\ud800", Variant.HARDENED)],
    ids=["int-peer", "str-variant", "surrogate-peer"],
)
def test_start_session_rejects_wrong_typed_inputs(peer, variant):
    """A peer that is not a str (it used to fail only at completion, with
    AttributeError), a peer UTF-8 cannot encode (the session used to accept
    and fail on its key read) or a variant that is not a Variant (a string
    used to run the hardened arithmetic) fails before the ephemeral draw."""
    rng = random.Random(4)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    state = rng.getstate()
    with pytest.raises(ParameterError):
        start_session(alice, peer, Role.INITIATOR, variant, rng)
    assert rng.getstate() == state


def test_start_session_rejects_non_identity_keys():
    """The session takes its owner and group from the key material, so
    anything but an IdentityKey, the group parameters included, fails
    before the ephemeral draw."""
    rng = random.Random(4)
    state = rng.getstate()
    for keys in (None, "alice", GroupParams(101)):
        with pytest.raises(ParameterError):
            start_session(keys, "bob", Role.INITIATOR, Variant.HARDENED, rng)
    assert rng.getstate() == state


def test_a_checked_peer_is_found_in_the_frame_memo(monkeypatch):
    """start_session encodes a peer once: later sessions to the same peer
    find it in the `_frame` memo. A peer that fails is never memoised, so
    it fails again, with the error that names it as the peer."""
    rng = random.Random(4)
    alice = KGC(rng, GroupParams(DEFAULT_Q)).extract("alice")
    oracles._frame.cache_clear()
    encoded = []
    real = oracles._identity_bytes
    monkeypatch.setattr(oracles, "_identity_bytes", lambda *a: encoded.append(a) or real(*a))
    for _ in range(3):
        start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
    assert encoded == [("bob",)]
    for _ in range(2):
        with pytest.raises(EmptyIdentityError, match="^peer must be a nonempty string$"):
            start_session(alice, "", Role.INITIATOR, Variant.HARDENED, rng)
    assert oracles._frame.cache_info().currsize == 1


def accepted_pair(variant, seed, q):
    """An honest alice/bob exchange completed on both sides, keys unread."""
    rng = random.Random(seed)
    kgc = KGC(rng, GroupParams(q), master_key_reveal=True)
    alice, bob = kgc.extract("alice"), kgc.extract("bob")
    a_sess, r_a = start_session(alice, "bob", Role.INITIATOR, variant, rng)
    b_sess, r_b = start_session(bob, "alice", Role.RESPONDER, variant, rng)
    complete_session(b_sess, r_a)
    complete_session(a_sess, r_b)
    return kgc, a_sess, b_sess


@pytest.mark.parametrize("q", [101, DEFAULT_Q])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("first", ["initiator", "responder"])
def test_key_is_derived_on_first_read(monkeypatch, first, variant, q):
    """Each key equals the raw-exponent reference whichever side is read
    first. An Active session's key is None and hashes nothing, the repr
    never shows the raw key, and reading a key changes no equality."""
    real_digest, real_pair = oracles._digest, protocol.pair
    calls = []
    monkeypatch.setattr(oracles, "_digest", lambda data: calls.append(data) or real_digest(data))
    monkeypatch.setattr(protocol, "pair", lambda a, b: calls.append(b"pair") or real_pair(a, b))
    rng = random.Random(3)
    kgc = KGC(rng, GroupParams(q))
    alice = kgc.extract("alice")
    active, _ = start_session(alice, "bob", Role.INITIATOR, variant, rng)
    calls.clear()
    assert active.key is None
    with pytest.raises(InvalidElementError):
        complete_session(active, kgc.params.g**0)
    assert active.key is None
    assert calls == []

    for seed in range(10):
        kgc, a_sess, b_sess = accepted_pair(variant, seed, q)
        twin_a, twin_b = accepted_pair(variant, seed, q)[1:]
        assert (a_sess, b_sess) == (twin_a, twin_b)
        want = reference_session_key(
            variant.value, q, 1, kgc.reveal_master_key(), "alice", "bob", a_sess.x, b_sess.x
        )
        order = (a_sess, b_sess) if first == "initiator" else (b_sess, a_sess)
        assert [session.key for session in order] == [want, want]
        assert (a_sess, b_sess) == (twin_a, twin_b)
        for session in (a_sess, b_sess):
            assert want.hex() not in repr(session)
            assert repr(want) not in repr(session)
            assert repr(session) == repr(twin_a if session is a_sess else twin_b)


# "eve" is the peer a UKS adversary has a session name; the rest are
# non-ASCII, so UTF-8 framing and lengths in bytes are exercised
_IDENTITIES = st.sampled_from(["alice", "bob", "eve", "ælfrēd", "李雷", "fox🦊"])


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    q=st.sampled_from([5, 7, 13, 101, DEFAULT_Q]),
    owner=_IDENTITIES,
    peer=_IDENTITIES,
    role=st.sampled_from(list(Role)),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_any_accepted_session_matches_one_sided_reference(
    variant, q, owner, peer, role, seed, data
):
    """A session that accepted any non-identity element, tampered or from
    no session at all, derives the key the one-sided raw-exponent
    reference computes from the owner's scalar and that element's
    exponent: both roles and variants, small and default q, any pair of
    identities, the owner itself as peer included."""
    rng = random.Random(seed)
    kgc = KGC(rng, GroupParams(q), master_key_reveal=True)
    session, _ = start_session(kgc.extract(owner), peer, role, variant, rng)
    r_in = data.draw(st.integers(1, q - 1), label="r_in")
    complete_session(session, kgc.params.g**r_in)
    alpha = kgc.reveal_master_key()
    want = reference_one_sided_key(
        variant.value, q, alpha, owner, peer, role.value, session.x, r_in
    )
    assert session.key == want


def test_ephemeral_collisions_only_repeat_the_element():
    """One owner, many sessions: equal scalars force equal outgoing
    elements, and at q = 1000003 a 10k batch does collide."""
    rng = random.Random(13)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    sessions = [
        start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
        for _ in range(10_000)
    ]
    by_x = {}
    collisions = 0
    for session, r_out in sessions:
        if session.x in by_x:
            collisions += 1
            assert by_x[session.x] == r_out
        else:
            by_x[session.x] = r_out
    assert collisions > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_sigma_equals_master_key_form(variant):
    """The owner-side shared value equals the transcript-only form raised
    to h * master: recomputing the key that way reproduces it exactly."""
    for seed in range(25):
        kgc, a_sess, b_sess, key_a, _ = handshake(variant, seed)
        group = kgc.params
        alpha = kgc.reveal_master_key()
        r_a, r_b = a_sess.r_out, b_sess.r_out
        alice = kgc.extract("alice")
        bob = kgc.extract("bob")
        bound = variant is Variant.HARDENED
        s_init, s_resp, kdf_input = oracles.session_hashes(bound, "alice", "bob", r_a, r_b)
        shared = pair(bob.public_key**s_resp * r_b, r_a * alice.public_key**s_init) ** (
            group.h * alpha
        )
        assert oracles.derive_key(kdf_input, shared) == key_a


def test_hardened_binds_identities():
    """Same transcript, different believed peer, different key: 1000 runs."""
    rng = random.Random(5)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    bob = kgc.extract("bob")
    for _ in range(1000):
        a1, r1 = start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
        a2 = dataclasses.replace(a1, peer="carol")
        b_sess, r_b = start_session(bob, "alice", Role.RESPONDER, Variant.HARDENED, rng)
        complete_session(a1, r_b)
        complete_session(a2, r_b)
        assert a1.key != a2.key


def test_original_ignores_believed_peer_only_in_scalars():
    """The original variant's s-values skip identities, but the pairing
    still involves the peer's base point, so the keys differ anyway."""
    variant = Variant.ORIGINAL
    rng = random.Random(6)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    a1, _ = start_session(alice, "bob", Role.INITIATOR, variant, rng)
    a2 = dataclasses.replace(a1, peer="carol")
    r_b = kgc.params.g**77
    complete_session(a1, r_b)
    complete_session(a2, r_b)
    assert a1.key != a2.key


def test_complete_rejects_identity_element():
    rng = random.Random(9)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    session, _ = start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
    with pytest.raises(InvalidElementError):
        complete_session(session, kgc.params.g**0)
    assert session.r_in is None  # rejected input leaves it usable
    complete_session(session, kgc.params.g**3)
    assert session.r_in == kgc.params.g**3


def test_complete_rejects_foreign_group():
    rng = random.Random(9)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    session, _ = start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
    with pytest.raises(GroupMismatchError):
        complete_session(session, GroupParams(101).g**3)
    with pytest.raises(InvalidElementError):
        complete_session(session, kgc.params.gt**3)
    assert session.r_in is None


def test_neighbouring_orders_do_not_mix():
    """Elements of q = 101 and q = 103 never combine, whatever the route."""
    p101, p103 = GroupParams(101), GroupParams(103)
    with pytest.raises(GroupMismatchError):
        p101.g * p103.g
    with pytest.raises(GroupMismatchError):
        pair(p101.g, p103.g)
    with pytest.raises(GroupMismatchError):
        transcript_scalar(p101.g**2, p103.g**3)
    rng = random.Random(4)
    kgc = KGC(rng, p101)
    alice = kgc.extract("alice")
    session, _ = start_session(alice, "bob", Role.INITIATOR, Variant.ORIGINAL, rng)
    with pytest.raises(GroupMismatchError):
        complete_session(session, p103.g**3)
    assert session.r_in is None


def test_complete_twice_fails():
    _, a_sess, _, _, _ = handshake(Variant.HARDENED, 1)
    rng = random.Random(0)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    with pytest.raises(SessionStateError):
        complete_session(a_sess, kgc.params.g**5)


def test_session_id_and_matching():
    _, a_sess, b_sess, _, _ = handshake(Variant.HARDENED, 2)
    sid_a, sid_b = session_id(a_sess), session_id(b_sess)
    assert sid_a[3:] == sid_b[3:]  # initiator message first on both sides
    assert sessions_match(sid_a, sid_b)
    assert sessions_match(sid_b, sid_a)
    assert not sessions_match(sid_a, sid_a)


def test_session_id_requires_acceptance():
    rng = random.Random(3)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    session, _ = start_session(kgc.extract("alice"), "bob", Role.INITIATOR, Variant.HARDENED, rng)
    with pytest.raises(SessionStateError):
        session_id(session)


def test_misdirected_sessions_do_not_match():
    """Bob answering eve's interception does not match alice's session,
    even though one element is shared between the transcripts."""
    variant = Variant.ORIGINAL
    rng = random.Random(10)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice, bob, eve = (kgc.extract(n) for n in ("alice", "bob", "eve"))
    a_sess, r_a = start_session(alice, "bob", Role.INITIATOR, variant, rng)
    e_sess, r_e = start_session(eve, "bob", Role.INITIATOR, variant, rng)
    b_sess, r_b = start_session(bob, "eve", Role.RESPONDER, variant, rng)
    complete_session(b_sess, r_e)
    complete_session(a_sess, r_b)
    complete_session(e_sess, r_b)
    assert not sessions_match(session_id(a_sess), session_id(b_sess))
    assert sessions_match(session_id(e_sess), session_id(b_sess))


def test_tampered_transcripts_do_not_match():
    rng = random.Random(14)
    kgc = KGC(rng, GroupParams(DEFAULT_Q))
    alice = kgc.extract("alice")
    bob = kgc.extract("bob")
    a_sess, r_a = start_session(alice, "bob", Role.INITIATOR, Variant.HARDENED, rng)
    b_sess, r_b = start_session(bob, "alice", Role.RESPONDER, Variant.HARDENED, rng)
    complete_session(b_sess, r_a)
    complete_session(a_sess, r_b * kgc.params.g)
    assert not sessions_match(session_id(a_sess), session_id(b_sess))


def test_transcript_record_carries_digests_not_keys():
    _, a_sess, b_sess, key_a, _ = handshake(Variant.HARDENED, 7)
    record = transcript_record(a_sess, b_sess)
    assert record["initiator_accepted"] and record["responder_accepted"]
    assert record["initiator_key_digest"] == record["responder_key_digest"]
    assert key_a.hex() not in str(record)


def test_readme_library_example_runs():
    """README's python block runs as written, so the documented API
    cannot drift from the code."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})

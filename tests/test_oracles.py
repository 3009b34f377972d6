"""Hash oracle shaping, domain separation, and framing injectivity."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idak import (
    DEFAULT_Q,
    GroupParams,
    bound_scalar,
    derive_key_bound,
    derive_key_plain,
    dlog,
    hash_to_group,
    key_digest,
    transcript_scalar,
)
from idak import oracles
from idak.errors import EmptyIdentityError, GroupMismatchError

from conftest import reference_identity_exponent

identities = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=12
)

TAGS = (b"H1G", b"PI0", b"PI1", b"KDF", b"KDF0")


def test_hash_to_group_frozen_anchor(big):
    # frozen from the raw-hashlib reference: sha256(b"H1G"+b"alice") shaped into [1, q-1]
    assert dlog(hash_to_group(big, "alice")) == 185305
    assert dlog(hash_to_group(big, "bob")) == 21955


@given(identity=identities)
def test_hash_to_group_matches_reference(identity):
    params = GroupParams(DEFAULT_Q)
    assert dlog(hash_to_group(params, identity)) == reference_identity_exponent(
        identity, DEFAULT_Q
    )


def test_hash_to_group_memo_is_keyed_by_order():
    """Interleaving orders per identity catches a memo keyed by identity alone;
    the second pass reads every exponent back from the memo."""
    groups = [GroupParams(q) for q in (101, 1009, DEFAULT_Q)]
    names = [f"user-{i}" for i in range(200)] + ["alice", "bob", "ève", "李"]
    for _ in range(2):
        for identity in names:
            for params in groups:
                elem = hash_to_group(params, identity)
                assert elem.params is params
                assert dlog(elem) == reference_identity_exponent(identity, params.q)
    assert oracles._identity_exponent.cache_info().maxsize == oracles._MEMO_SIZE


def test_hash_to_group_never_identity(big):
    rng = random.Random(8)
    for _ in range(1000):
        identity = f"party-{rng.randrange(10**9)}"
        elem = hash_to_group(big, identity)
        assert not elem.is_identity
        assert 1 <= dlog(elem) <= big.q - 1


def test_hash_to_group_determinism(big):
    assert hash_to_group(big, "alice") == hash_to_group(big, "alice")
    assert hash_to_group(big, "alice") != hash_to_group(big, "bob")


def test_transcript_scalar_frozen_anchor(p101):
    assert transcript_scalar(p101.g**2, p101.g**3) == 50
    assert transcript_scalar(p101.g**3, p101.g**2) == 4


def test_bound_scalar_frozen_anchor(p101):
    assert bound_scalar("alice", "bob", p101.g**2, p101.g**3) == 29


def test_scalar_order_sensitivity(big):
    rng = random.Random(21)
    r1 = big.g ** rng.randrange(1, big.q)
    r2 = big.g ** rng.randrange(1, big.q)
    assert transcript_scalar(r1, r2) != transcript_scalar(r2, r1)
    assert bound_scalar("alice", "bob", r1, r2) != bound_scalar("bob", "alice", r1, r2)


def test_scalar_range(big):
    rng = random.Random(12)
    for _ in range(500):
        r1 = big.g ** rng.randrange(1, big.q)
        r2 = big.g ** rng.randrange(1, big.q)
        assert 1 <= transcript_scalar(r1, r2) <= big.q - 1
        assert 1 <= bound_scalar("a", "b", r1, r2) <= big.q - 1


def test_framing_defeats_identity_splitting(p101):
    """("AB","C") and ("A","BC") concatenate identically unframed; the
    length prefix must keep them apart."""
    r1, r2 = p101.g**2, p101.g**3
    assert bound_scalar("AB", "C", r1, r2) != bound_scalar("A", "BC", r1, r2)
    assert derive_key_bound("AB", "C", r1, r2, p101.gt**5) != derive_key_bound(
        "A", "BC", r1, r2, p101.gt**5
    )


def test_framing_injective_over_small_alphabet():
    """Exhaustive: no two distinct identity pairs share a framed encoding."""
    names = ["a", "b", "ab", "ba", "aa", "aab", "abb", "bb"]
    frame = lambda s: len(s.encode()).to_bytes(4, "big") + s.encode()
    seen = {}
    for id1 in names:
        for id2 in names:
            blob = frame(id1) + frame(id2)
            assert blob not in seen, f"collision: {(id1, id2)} vs {seen[blob]}"
            seen[blob] = (id1, id2)


def test_domain_separation_on_seeded_corpus():
    """For any fixed input, the five tag-prefixed oracles disagree."""
    rng = random.Random(77)
    for _ in range(100):
        blob = rng.randbytes(rng.randrange(1, 64))
        digests = {hashlib.sha256(tag + blob).digest() for tag in TAGS}
        assert len(digests) == len(TAGS)


def test_key_derivation_shapes(big):
    shared = big.gt**12345
    bound = derive_key_bound("alice", "bob", big.g**2, big.g**3, shared)
    plain = derive_key_plain(shared)
    assert len(bound) == 32 and len(plain) == 32
    assert bound != plain
    assert derive_key_plain(shared) == plain


def test_key_derivation_identity_sensitivity(big):
    shared = big.gt**999
    r1, r2 = big.g**4, big.g**9
    base = derive_key_bound("alice", "bob", r1, r2, shared)
    assert derive_key_bound("alice", "carol", r1, r2, shared) != base
    assert derive_key_bound("carol", "bob", r1, r2, shared) != base


def test_key_derivation_avalanche(big):
    """Nearby shared values never collide over 1000 seeded trials."""
    rng = random.Random(31)
    r1, r2 = big.g**4, big.g**9
    for _ in range(1000):
        e = rng.randrange(1, big.q - 1)
        assert derive_key_bound("a", "b", r1, r2, big.gt**e) != derive_key_bound(
            "a", "b", r1, r2, big.gt ** (e + 1)
        )
        assert derive_key_plain(big.gt**e) != derive_key_plain(big.gt ** (e + 1))


def test_distinct_shared_values_distinct_plain_keys(big):
    rng = random.Random(41)
    keys = {}
    for _ in range(1000):
        e = rng.randrange(0, big.q)
        keys[e] = derive_key_plain(big.gt**e)
    assert len(set(keys.values())) == len(keys)


def test_empty_identity_rejected(big):
    with pytest.raises(EmptyIdentityError):
        hash_to_group(big, "")
    with pytest.raises(EmptyIdentityError):
        bound_scalar("", "bob", big.g**2, big.g**3)
    with pytest.raises(EmptyIdentityError):
        derive_key_bound("alice", "", big.g**2, big.g**3, big.gt**5)


def test_oracles_reject_mixed_groups(p101, big):
    with pytest.raises(GroupMismatchError):
        transcript_scalar(p101.g**2, big.g**3)
    with pytest.raises(GroupMismatchError):
        bound_scalar("a", "b", big.g**2, p101.g**3)


def test_key_digest_is_stable_hex():
    d = key_digest(b"\x00" * 32)
    assert d == hashlib.sha256(b"\x00" * 32).hexdigest()
    assert len(d) == 64

"""Key generation center: setup, extraction, capability gate."""

import random

import pytest

from idak import (
    DEFAULT_Q,
    KGC,
    GroupParams,
    IdentityKey,
    Role,
    Variant,
    dlog,
    hash_to_group,
    pair,
    start_session,
)
from idak.errors import (
    CapabilityError,
    EmptyIdentityError,
    GroupMismatchError,
    InvalidElementError,
    ParameterError,
)


def make_kgc(seed=7, q=101, **kw):
    return KGC(random.Random(seed), GroupParams(q), **kw)


def test_setup_deterministic():
    k1 = make_kgc(master_key_reveal=True)
    k2 = make_kgc(master_key_reveal=True)
    assert k1.reveal_master_key() == k2.reveal_master_key()
    assert k1.extract("alice") == k2.extract("alice")


def test_master_key_range_and_spread():
    values = set()
    for seed in range(500):
        values.add(make_kgc(seed=seed, master_key_reveal=True).reveal_master_key())
    assert all(1 <= a <= 100 for a in values)
    assert len(values) > 80  # 500 draws over 100 residues should cover most


def test_extract_idempotent():
    kgc = make_kgc()
    first = kgc.extract("alice")
    assert kgc.extract("alice") == first


# at q = 101, "eve78" hashes to alice's identity point
_NAMES = ("alice", "bob", "eve", "eve78", "a", "\u00e9", "\u2028", "x" * 300, *(f"p{k}" for k in range(40)))


@pytest.mark.parametrize("q", [5, 7, 101, DEFAULT_Q])
def test_extract_builds_what_the_public_constructor_builds(q):
    """KGC.extract skips IdentityKey's checks; every key it returns passes
    them and equals the key the public constructor builds from the same
    fields, over master keys that cover every alpha at q = 5 and 7."""
    for seed in range(20):
        kgc = make_kgc(seed=seed, q=q)
        for name in _NAMES:
            keys = kgc.extract(name)
            assert type(keys) is IdentityKey
            assert IdentityKey(keys.identity, keys.public_key, keys.private_key) == keys
        if q == 101:
            assert kgc.extract("eve78").private_key == kgc.extract("alice").private_key


def test_extract_rejects_non_str_identity():
    """An identity that is not a str fails with ParameterError (it used to
    be AttributeError from hashing), and so does a str UTF-8 cannot encode
    (it used to be UnicodeEncodeError); an empty one keeps its
    EmptyIdentityError."""
    kgc = make_kgc()
    for identity in (7, b"alice", ["alice"], "\ud800", "bob\udfff"):
        with pytest.raises(ParameterError):
            kgc.extract(identity)
    with pytest.raises(EmptyIdentityError):
        kgc.extract("")


def test_extract_consistency_with_master_key():
    kgc = make_kgc(q=1_000_003, master_key_reveal=True)
    alpha = kgc.reveal_master_key()
    for name in ("alice", "bob", "eve"):
        keys = kgc.extract(name)
        assert keys.public_key == hash_to_group(kgc.params, name)
        assert dlog(keys.private_key) == dlog(keys.public_key) * alpha % 1_000_003
        # pairing-consistency without touching alpha's representation
        g = kgc.params.g
        assert pair(keys.private_key, g) == pair(keys.public_key, g) ** alpha


def test_adversary_extraction_is_unrestricted():
    """The KGC applies no policy: an adversary's identity extracts fine."""
    kgc = make_kgc()
    kgc.extract("alice")
    eve = kgc.extract("eve")
    assert eve.private_key == eve.public_key ** make_kgc(master_key_reveal=True).reveal_master_key()


def test_reveal_gate():
    with pytest.raises(CapabilityError):
        make_kgc().reveal_master_key()
    assert isinstance(make_kgc(master_key_reveal=True).reveal_master_key(), int)


@pytest.mark.parametrize("gate", ["no", 1, None])
def test_master_key_gate_must_be_a_bool(gate):
    """KGC(..., master_key_reveal="no") used to hand out the master key;
    a gate that is not a bool fails before the master key is drawn."""
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ParameterError):
        KGC(rng, GroupParams(101), master_key_reveal=gate)
    assert rng.getstate() == state


def test_kgc_rejects_non_group_params():
    """An int order where the GroupParams belong used to fail with
    AttributeError; it fails before the master key is drawn."""
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ParameterError):
        KGC(rng, 101)
    assert rng.getstate() == state


def test_identity_key_checks_its_material():
    """Key material is checked where it is made: points of two groups fail
    with GroupMismatchError, a non-element or an identity no oracle can
    hash with ParameterError. Such keys used to start a session that
    accepted, and its first key read raised or was wrong. An
    identity-element public or private key fails with InvalidElementError:
    it used to open sessions whose outgoing element every honest peer
    rejects, and whose keys hash the constant shared value gt^0."""
    p101, p103 = GroupParams(101), GroupParams(103)
    with pytest.raises(GroupMismatchError):
        IdentityKey("alice", p101.g**3, p103.g**5)
    one = p101.g**0
    for public, private in ((one, one), (one, p101.g**5), (p101.g**3, one)):
        with pytest.raises(InvalidElementError):
            IdentityKey("mallory", public, private)
    for public, private in ((3, p101.g), (p101.g, p101.gt**2), (p101.g, None)):
        with pytest.raises(ParameterError):
            IdentityKey("alice", public, private)
    for identity in (7, "\ud800"):
        with pytest.raises(ParameterError):
            IdentityKey(identity, p101.g**3, p101.g**5)
    with pytest.raises(EmptyIdentityError):
        IdentityKey("", p101.g**3, p101.g**5)
    keys = IdentityKey("alice", p101.g**3, p101.g**5)
    session, _ = start_session(keys, "bob", Role.INITIATOR, Variant.HARDENED, random.Random(1))
    assert session.r_out.params == p101

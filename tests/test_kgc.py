"""Key generation center: setup, extraction, capability gate."""

import random

import pytest

from idak import KGC, GroupParams, dlog, hash_to_group, pair
from idak.errors import CapabilityError, EmptyIdentityError, ParameterError


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
    assert kgc.extract("alice") is first


def test_extract_rejects_non_str_identity():
    """An identity that is not a str fails with ParameterError (it used to
    be AttributeError from hashing) before the registry is written; an
    empty one keeps its EmptyIdentityError."""
    kgc = make_kgc()
    for identity in (7, b"alice", ["alice"]):
        with pytest.raises(ParameterError):
            kgc.extract(identity)
    with pytest.raises(EmptyIdentityError):
        kgc.extract("")
    assert kgc._registry == {}


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

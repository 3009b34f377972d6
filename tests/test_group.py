"""Group laws, pairing properties, serialization, and the toy oracles."""

import dataclasses
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import (
    DEFAULT_Q,
    GElem,
    GroupParams,
    GTElem,
    ParameterError,
    dbdh_check,
    dlog,
    pair,
    random_scalar,
)
from idak import group
from idak.errors import GroupMismatchError, IdakError
from idak.group import is_prime

exponents = st.integers(min_value=0, max_value=100)
scalars = st.integers(min_value=-300, max_value=300)


def test_default_order_is_prime():
    assert is_prime(DEFAULT_Q)
    assert DEFAULT_Q == 1_000_003


@pytest.mark.parametrize("n,expected", [(2, True), (101, True), (1, False), (91, False), (561, False)])
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


def test_params_validation():
    with pytest.raises(ParameterError):
        GroupParams(100)
    with pytest.raises(ParameterError):
        GroupParams(3)
    with pytest.raises(ParameterError):
        GroupParams(2**64 + 13)  # prime, but wider than the 8-byte encoding
    # inside the package's hierarchy, and still caught by `except ValueError`
    assert issubclass(ParameterError, IdakError)
    assert issubclass(ParameterError, ValueError)


@pytest.mark.parametrize("validated_first", [False, True], ids=["cold", "after-valid"])
def test_non_int_order_rejected(monkeypatch, validated_first):
    """A non-int order fails with ParameterError, and stays rejected once an
    equal int order has passed validation in the same process."""
    monkeypatch.setattr(group, "_validated_orders", set())
    if validated_first:
        GroupParams(DEFAULT_Q)
    for q in (float(DEFAULT_Q), str(DEFAULT_Q), "101", None, True):
        with pytest.raises(ParameterError):
            GroupParams(q)


def test_failed_orders_are_never_cached(monkeypatch):
    monkeypatch.setattr(group, "_validated_orders", set())
    calls = []
    monkeypatch.setattr(group, "is_prime", lambda n: calls.append(n) or is_prime(n))
    for _ in range(3):
        with pytest.raises(ParameterError):
            GroupParams(1001)  # 7 * 11 * 13
    assert calls == [1001] * 3
    GroupParams(1009)
    GroupParams(1009)
    assert calls == [1001] * 3 + [1009]


def test_width_is_checked_before_primality(monkeypatch):
    """An order wider than the encoding is refused without Miller-Rabin,
    which takes seconds on an order of a thousand digits."""

    def refuse(n):
        raise AssertionError("is_prime ran")

    monkeypatch.setattr(group, "_validated_orders", set())
    monkeypatch.setattr(group, "is_prime", refuse)
    with pytest.raises(ParameterError, match="encoding width"):
        GroupParams(2**64 + 13)


def test_generators(p101):
    assert dlog(p101.g) == 1
    assert dlog(p101.gt) == 1
    assert pair(p101.g, p101.g) == p101.gt


def test_pair_small_case(p101):
    assert pair(p101.g**2, p101.g**3) == p101.gt**6


def test_elem_arithmetic(p101):
    g = p101.g
    assert g**2 * g**3 == g**5
    assert (g**7) ** 50 == g**47  # 350 mod 101
    assert (g**0).is_identity
    assert g**101 == g**0


@given(x=exponents, y=exponents, c=scalars)
def test_bilinearity(x, y, c):
    """pair(a^c, b) = pair(a, b^c) = pair(a, b)^c on the toy backend."""
    params = GroupParams(101)
    a, b = params.g**x, params.g**y
    assert pair(a**c, b) == pair(a, b) ** c
    assert pair(a, b**c) == pair(a, b) ** c


@given(x=exponents, y=exponents)
def test_pairing_symmetry(x, y):
    params = GroupParams(101)
    assert pair(params.g**x, params.g**y) == pair(params.g**y, params.g**x)


def test_bilinearity_bulk_seeded(big):
    """Exponent-product oracle over 1000 seeded draws at the default order."""
    rng = random.Random(2024)
    for _ in range(1000):
        x, y = random_scalar(rng, big), random_scalar(rng, big)
        assert pair(big.g**x, big.g**y).exp == x * y % big.q


def test_non_degeneracy(big):
    rng = random.Random(99)
    for _ in range(1000):
        x, y = random_scalar(rng, big), random_scalar(rng, big)
        assert not pair(big.g**x, big.g**y).is_identity


def test_pair_rejects_mismatched_groups(p101, big):
    with pytest.raises(GroupMismatchError):
        pair(p101.g, big.g)
    with pytest.raises(GroupMismatchError):
        p101.g * big.g


def test_elem_types_do_not_mix(p101):
    with pytest.raises(TypeError):
        p101.g * p101.gt
    with pytest.raises(TypeError):
        pair(p101.g, p101.gt)


@pytest.mark.parametrize("scalar", [1.5, 2.0])
def test_non_integer_exponent_rejected(p101, scalar):
    with pytest.raises(TypeError):
        p101.g**scalar
    with pytest.raises(TypeError):
        p101.gt**scalar
    with pytest.raises(TypeError):
        GElem(p101, scalar)
    with pytest.raises(TypeError):
        GTElem(p101, scalar)


@pytest.mark.parametrize("cls", [GElem, GTElem])
def test_elements_are_frozen_and_slotted(p101, cls):
    elem = cls(p101, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        elem.exp = 8
    assert not hasattr(elem, "__dict__")
    assert elem.exp == 7
    assert hash(elem) == hash(cls(p101, 7))


@pytest.mark.parametrize("cls", [GElem, GTElem])
def test_public_constructor_reduces(p101, cls):
    assert cls(p101, 101 + 5).exp == 5
    assert cls(p101, -1).exp == 100
    assert cls(p101, -101 * 3 - 2).exp == 99


def test_equal_params_objects_combine():
    a, b = GroupParams(101), GroupParams(101)
    assert a is not b
    assert a.g**2 * b.g**3 == a.g**5
    assert pair(a.g**2, b.g**3) == b.gt**6
    assert dbdh_check(a.g**2, b.g**3, a.g**4, b.gt**24)


def test_random_scalar_determinism(p101):
    draws1 = [random_scalar(random.Random(5), p101) for _ in range(1)]
    draws2 = [random_scalar(random.Random(5), p101) for _ in range(1)]
    assert draws1 == draws2


def test_random_scalar_range_and_coverage(p101):
    rng = random.Random(1)
    seen = {random_scalar(rng, p101) for _ in range(10_000)}
    assert min(seen) >= 1 and max(seen) <= 100
    assert seen == set(range(1, 101))  # every nonzero residue shows up


def test_dlog_round_trip(big):
    assert dlog(big.g**5) == 5
    assert dlog(big.g**0) == 0
    rng = random.Random(3)
    for _ in range(100):
        x = random_scalar(rng, big)
        assert dlog(big.g**x) == x


def test_serialize_known_bytes(p101):
    assert (p101.g**5).to_bytes() == b"\x00" * 7 + b"\x05"


def assert_canonical_encoding(elem):
    """8 bytes, big-endian, reading back as the element's exponent."""
    data = elem.to_bytes()
    assert len(data) == 8
    assert int.from_bytes(data, "big") == elem.exp


@given(x=exponents)
def test_serialize_round_trip(x):
    params = GroupParams(101)
    assert_canonical_encoding(params.g**x)
    assert_canonical_encoding(params.gt**x)


def test_serialize_round_trip_bulk(big):
    rng = random.Random(11)
    for _ in range(1000):
        assert_canonical_encoding(big.g ** random_scalar(rng, big))


def test_dbdh_check(big):
    rng = random.Random(17)
    for _ in range(100):
        x, y, z = (random_scalar(rng, big) for _ in range(3))
        good = big.gt ** (x * y * z)
        assert dbdh_check(big.g**x, big.g**y, big.g**z, good)
        assert not dbdh_check(big.g**x, big.g**y, big.g**z, good * big.gt)


def test_dbdh_check_rejects_mismatched_groups(p101, big):
    with pytest.raises(GroupMismatchError):
        dbdh_check(p101.g, p101.g, big.g, p101.gt)
    with pytest.raises(GroupMismatchError):
        dbdh_check(p101.g, p101.g, p101.g, big.gt)


def test_group_params_json(big):
    assert big.to_json() == {"q": "1000003", "h": "1", "width": "8"}


@settings(max_examples=25)
@given(x=exponents, y=exponents, z=exponents)
def test_pairing_is_associative_with_mul(x, y, z):
    """pair(a*b, c) = pair(a,c) * pair(b,c): bilinearity in the first slot."""
    params = GroupParams(101)
    a, b, c = params.g**x, params.g**y, params.g**z
    assert pair(a * b, c) == pair(a, c) * pair(b, c)


@pytest.mark.parametrize("q", [5, 7, 13, 101, 1_000_003, 2**20 + 2, 2**61 - 1, 2**16])
def test_random_scalar_replays_randrange_on_an_exact_random(q):
    """On an exact random.Random, random_scalar makes the getrandbits
    calls of randrange(1, q) itself: the same draws, and the generator
    left in the same state. At q = 2**20 + 2 about half of the 21-bit
    draws are rejected; 2**61 - 1 is a 61-bit prime; at 2**16, q - 1 is
    a bit shorter than q. Only q is read, so an order GroupParams would
    refuse can stand in a namespace."""
    params = types.SimpleNamespace(q=q)
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = [random_scalar(ours, params) for _ in range(8)]
        assert drawn == [theirs.randrange(1, q) for _ in range(8)]
        assert ours.getstate() == theirs.getstate()

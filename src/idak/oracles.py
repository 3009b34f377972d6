"""Random oracles used by the protocol: hash-to-group, transcript
scalars, and key derivation.

Every oracle runs sha256 over a tag-prefixed input, so no two oracles can
agree on any input:

    H1G   identity -> non-identity element of G
    PI0   ordered message pair -> scalar in [1, q-1]
    PI1   identities + ordered message pair -> scalar in [1, q-1]
    KDF   identities + transcript + shared value -> 32-byte key
    KDF0  shared value -> 32-byte key

Identity strings are UTF-8 encoded and framed with a 4-byte big-endian
length prefix wherever two of them meet, keeping the encoding injective.
Scalars come out as 1 + (digest mod (q-1)) and therefore never hit zero.

The H1G exponent of each (identity, q) and the framing of each identity
are memoised in bounded LRU caches of _MEMO_SIZE entries, so a party's
identity point is hashed once however many sessions it completes.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .errors import EmptyIdentityError, GroupMismatchError
from .group import GElem, GroupParams, GTElem, same_params

DIGEST = "sha256"  # the hash in _digest, named in the handshake JSON
KEY_BYTES = 32

_TAG_HASH_TO_GROUP = b"H1G"
_TAG_SCALAR_PLAIN = b"PI0"
_TAG_SCALAR_BOUND = b"PI1"
_TAG_KDF_BOUND = b"KDF"
_TAG_KDF_PLAIN = b"KDF0"

_MEMO_SIZE = 1024  # entries per identity cache; a miss only costs one more hash


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _identity_bytes(identity: str) -> bytes:
    if not identity:
        raise EmptyIdentityError("identity must be a nonempty string")
    return identity.encode("utf-8")


@lru_cache(maxsize=_MEMO_SIZE)
def _frame(identity: str) -> bytes:
    raw = _identity_bytes(identity)
    return len(raw).to_bytes(4, "big") + raw


def _to_scalar(digest_bytes: bytes, q: int) -> int:
    return 1 + int.from_bytes(digest_bytes, "big") % (q - 1)


@lru_cache(maxsize=_MEMO_SIZE)
def _identity_exponent(identity: str, q: int) -> int:
    return _to_scalar(_digest(_TAG_HASH_TO_GROUP + _identity_bytes(identity)), q)


def hash_to_group(group: GroupParams, identity: str) -> GElem:
    """Map an identity to g^(1 + (D(tag || id) mod (q-1))), never the identity element."""
    return GElem._reduced(group, _identity_exponent(identity, group.q))


def _same_group(r_first: GElem, r_second: GElem) -> GroupParams:
    if not same_params(r_first.params, r_second.params):
        raise GroupMismatchError("transcript elements from different group instantiations")
    return r_first.params


def transcript_scalar(r_first: GElem, r_second: GElem) -> int:
    """Scalar hash of an ordered message pair. Order matters: swapping
    the arguments is a different oracle input."""
    params = _same_group(r_first, r_second)
    data = _TAG_SCALAR_PLAIN + r_first.to_bytes() + r_second.to_bytes()
    return _to_scalar(_digest(data), params.q)


def bound_scalar(
    id_first: str,
    id_second: str,
    r_first: GElem,
    r_second: GElem,
) -> int:
    """Scalar hash binding both identities to the ordered message pair."""
    params = _same_group(r_first, r_second)
    data = (
        _TAG_SCALAR_BOUND
        + _frame(id_first)
        + _frame(id_second)
        + r_first.to_bytes()
        + r_second.to_bytes()
    )
    return _to_scalar(_digest(data), params.q)


def derive_key_bound(
    id_first: str,
    id_second: str,
    r_first: GElem,
    r_second: GElem,
    shared: GTElem,
) -> bytes:
    """32-byte session key over identities, transcript, and shared value."""
    data = (
        _TAG_KDF_BOUND
        + _frame(id_first)
        + _frame(id_second)
        + r_first.to_bytes()
        + r_second.to_bytes()
        + shared.to_bytes()
    )
    return _digest(data)


def derive_key_plain(shared: GTElem) -> bytes:
    """32-byte session key from the shared value alone."""
    return _digest(_TAG_KDF_PLAIN + shared.to_bytes())


def key_digest(key: bytes) -> str:
    """Hex commitment to a session key, safe to place in transcripts and
    reports without exposing the key itself."""
    return hashlib.sha256(key).hexdigest()

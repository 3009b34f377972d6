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
length prefix wherever two of them meet, keeping the encoding injective;
a str that UTF-8 cannot encode is refused (`require_identity`). Scalars
come out as 1 + (digest mod (q-1)) and therefore never hit zero.

One set of private encoders lays out the PI0, PI1 and KDF inputs from
framed identities and encoded elements. The package turns a transcript
into a key only through `session_hashes`, which computes the two
s-values and the KDF input in one pass, encoding each element and
framing each identity once, and `derive_key`, which completes that
input with the shared value. The single-oracle functions
(`transcript_scalar`, `bound_scalar`, `derive_key_plain`,
`derive_key_bound`) are built on the same encoders and stay as the
reference definition of each oracle, for the tests and the
benchmark's tracer.

The H1G exponent of each (identity, q) and the framing of each identity
are memoised in bounded LRU caches of _MEMO_SIZE entries, so a party's
identity point is hashed once however many sessions it completes.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from .errors import EmptyIdentityError, GroupMismatchError, IdakError, ParameterError, require
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


def _identity_bytes(identity: str, name: str = "identity") -> bytes:
    if not identity:
        raise EmptyIdentityError(f"{name} must be a nonempty string")
    try:
        return identity.encode("utf-8")
    except UnicodeEncodeError:
        # a lone surrogate, such as "\ud800", is a str with no UTF-8 form
        raise ParameterError(f"{name} {identity!r} has no UTF-8 encoding") from None


def require_identity(identity: object, name: str) -> None:
    """Raise unless identity is a nonempty str that UTF-8 encodes: a
    ParameterError for another type or an unencodable str, an
    EmptyIdentityError for "". Identities are checked this way where
    they enter, so no oracle fails on one later. A str is looked up in
    the `_frame` memo first, which holds only identities that passed, so
    one checked before costs a cache hit; any other value, and a str
    that fails, is checked in full for the error naming `name`."""
    if type(identity) is str:
        try:
            _frame(identity)
            return
        except IdakError:
            pass
    require(identity, str, name)
    _identity_bytes(identity, name)


@lru_cache(maxsize=_MEMO_SIZE)
def _frame(identity: str) -> bytes:
    raw = _identity_bytes(identity)
    return len(raw).to_bytes(4, "big") + raw


def _scalar(data: bytes, q: int) -> int:
    """The oracle scalar of a tagged input: 1 + (D(data) mod (q-1))."""
    return 1 + int.from_bytes(_digest(data), "big") % (q - 1)


@lru_cache(maxsize=_MEMO_SIZE)
def _identity_exponent(identity: str, q: int) -> int:
    return _scalar(_TAG_HASH_TO_GROUP + _identity_bytes(identity), q)


def hash_to_group(group: GroupParams, identity: str) -> GElem:
    """Map an identity to g^(1 + (D(tag || id) mod (q-1))), never the identity element."""
    return GElem._reduced(group, _identity_exponent(identity, group.q))


def _same_group(r_first: GElem, r_second: GElem) -> GroupParams:
    if r_first.params is not r_second.params and not same_params(r_first.params, r_second.params):
        raise GroupMismatchError("transcript elements from different group instantiations")
    return r_first.params


# The encoders below are the one byte layout of the scalar and KDF inputs.
# They take identities already framed and elements already encoded, so a
# caller that hashes one transcript several times encodes it once.


def _plain_scalar_input(e_first: bytes, e_second: bytes) -> bytes:
    return _TAG_SCALAR_PLAIN + e_first + e_second


def _bound_scalar_input(f_first: bytes, f_second: bytes, e_first: bytes, e_second: bytes) -> bytes:
    return _TAG_SCALAR_BOUND + f_first + f_second + e_first + e_second


def _bound_kdf_input(f_init: bytes, f_resp: bytes, e_init: bytes, e_resp: bytes) -> bytes:
    """KDF input up to the shared value, whose encoding completes it."""
    return _TAG_KDF_BOUND + f_init + f_resp + e_init + e_resp


def transcript_scalar(r_first: GElem, r_second: GElem) -> int:
    """Scalar hash of an ordered message pair. Order matters: swapping
    the arguments is a different oracle input."""
    q = _same_group(r_first, r_second).q
    return _scalar(_plain_scalar_input(r_first.to_bytes(), r_second.to_bytes()), q)


def bound_scalar(
    id_first: str,
    id_second: str,
    r_first: GElem,
    r_second: GElem,
) -> int:
    """Scalar hash binding both identities to the ordered message pair."""
    q = _same_group(r_first, r_second).q
    data = _bound_scalar_input(
        _frame(id_first), _frame(id_second), r_first.to_bytes(), r_second.to_bytes()
    )
    return _scalar(data, q)


def derive_key(kdf_input: bytes, shared: GTElem) -> bytes:
    """32-byte session key: the digest of a KDF input completed by the
    shared value's encoding."""
    return _digest(kdf_input + shared.to_bytes())


def derive_key_bound(
    id_first: str,
    id_second: str,
    r_first: GElem,
    r_second: GElem,
    shared: GTElem,
) -> bytes:
    """32-byte session key over identities, transcript, and shared value."""
    kdf_input = _bound_kdf_input(
        _frame(id_first), _frame(id_second), r_first.to_bytes(), r_second.to_bytes()
    )
    return derive_key(kdf_input, shared)


def derive_key_plain(shared: GTElem) -> bytes:
    """32-byte session key from the shared value alone."""
    return derive_key(_TAG_KDF_PLAIN, shared)


def session_hashes(
    bound: bool,
    id_init: str,
    id_resp: str,
    r_init: GElem,
    r_resp: GElem,
) -> tuple[int, int, bytes]:
    """Both s-values of an ordered transcript, (initiator, responder), and
    the KDF input that `derive_key` completes with the shared value, in
    one pass: each element is encoded once and, when bound, each identity
    framed once. The bytes are those of transcript_scalar or bound_scalar
    (both orders) and of derive_key_plain or derive_key_bound."""
    q = _same_group(r_init, r_resp).q
    e_init, e_resp = r_init.to_bytes(), r_resp.to_bytes()
    if not bound:
        return (
            _scalar(_plain_scalar_input(e_init, e_resp), q),
            _scalar(_plain_scalar_input(e_resp, e_init), q),
            _TAG_KDF_PLAIN,
        )
    f_init, f_resp = _frame(id_init), _frame(id_resp)
    return (
        _scalar(_bound_scalar_input(f_init, f_resp, e_init, e_resp), q),
        _scalar(_bound_scalar_input(f_resp, f_init, e_resp, e_init), q),
        _bound_kdf_input(f_init, f_resp, e_init, e_resp),
    )


def key_digest(key: bytes) -> str:
    """Hex commitment to a session key, safe to place in transcripts and
    reports without exposing the key itself."""
    return hashlib.sha256(key).hexdigest()

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

The package turns a transcript into a key only through
`session_hashes`, the one place the PI0, PI1 and KDF inputs are laid
out, which computes the two s-values and the KDF input in one pass,
encoding each element and framing each identity once, and
`derive_key`, which completes that input with the shared value. The
single-oracle functions (`transcript_scalar`, `bound_scalar`,
`derive_key_plain`, `derive_key_bound`) read their values from those
two and stay for the tests and the benchmark's tracer.

The H1G exponent of each (identity, q), the framing of each identity and
the framed PI1 and KDF prefixes of each ordered pair of identities are
memoised in bounded LRU caches of _MEMO_SIZE entries, so a party's
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


@lru_cache(maxsize=_MEMO_SIZE)
def _pair_prefixes(id_init: str, id_resp: str) -> tuple[bytes, bytes, bytes]:
    """The PI1 prefixes of the initiator's and the responder's s-value and the KDF prefix."""
    f_init, f_resp = _frame(id_init), _frame(id_resp)
    pi1, kdf = _TAG_SCALAR_BOUND, _TAG_KDF_BOUND
    return pi1 + f_init + f_resp, pi1 + f_resp + f_init, kdf + f_init + f_resp


@lru_cache(maxsize=_MEMO_SIZE)
def _identity_exponent(identity: str, q: int) -> int:
    """The H1G exponent of an identity: 1 + (D(tag || id) mod (q-1))."""
    data = _TAG_HASH_TO_GROUP + _identity_bytes(identity)
    return 1 + int.from_bytes(_digest(data), "big") % (q - 1)


def hash_to_group(group: GroupParams, identity: str) -> GElem:
    """Map an identity to g^(1 + (D(tag || id) mod (q-1))), never the identity element."""
    return GElem._reduced(group, _identity_exponent(identity, group.q))


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
    framed once. This is the one layout of the PI0, PI1 and KDF inputs;
    the single-oracle functions below read theirs from it."""
    params = r_init.params
    if r_resp.params is not params and not same_params(r_resp.params, params):
        raise GroupMismatchError("transcript elements from different group instantiations")
    # each s-value is 1 + (D(input) mod (q-1)), as H1G's exponent, written
    # out here so a key read runs no helper frame per hash
    modulus = params.q - 1
    e_init, e_resp = r_init.to_bytes(), r_resp.to_bytes()
    if not bound:
        return (
            1 + int.from_bytes(_digest(_TAG_SCALAR_PLAIN + e_init + e_resp), "big") % modulus,
            1 + int.from_bytes(_digest(_TAG_SCALAR_PLAIN + e_resp + e_init), "big") % modulus,
            _TAG_KDF_PLAIN,
        )
    pi_init, pi_resp, kdf = _pair_prefixes(id_init, id_resp)
    return (
        1 + int.from_bytes(_digest(pi_init + e_init + e_resp), "big") % modulus,
        1 + int.from_bytes(_digest(pi_resp + e_resp + e_init), "big") % modulus,
        kdf + e_init + e_resp,
    )


def derive_key(kdf_input: bytes, shared: GTElem) -> bytes:
    """32-byte session key: the digest of a KDF input completed by the
    shared value's encoding."""
    return _digest(kdf_input + shared.to_bytes())


def transcript_scalar(r_first: GElem, r_second: GElem) -> int:
    """Scalar hash of an ordered message pair. Order matters: swapping
    the arguments is a different oracle input."""
    return session_hashes(False, "", "", r_first, r_second)[0]


def bound_scalar(
    id_first: str,
    id_second: str,
    r_first: GElem,
    r_second: GElem,
) -> int:
    """Scalar hash binding both identities to the ordered message pair."""
    return session_hashes(True, id_first, id_second, r_first, r_second)[0]


def derive_key_bound(
    id_first: str,
    id_second: str,
    r_first: GElem,
    r_second: GElem,
    shared: GTElem,
) -> bytes:
    """32-byte session key over identities, transcript, and shared value."""
    return derive_key(session_hashes(True, id_first, id_second, r_first, r_second)[2], shared)


def derive_key_plain(shared: GTElem) -> bytes:
    """32-byte session key from the shared value alone."""
    return derive_key(_TAG_KDF_PLAIN, shared)


def key_digest(key: bytes) -> str:
    """Hex commitment to a session key, safe to place in transcripts and
    reports without exposing the key itself."""
    return hashlib.sha256(key).hexdigest()

"""Two-pass key agreement: session state machine and key computation.

Each party sends one element R = public_key^x for a fresh scalar x.
`start_session` hands the session its owner's key material, once; the
group is the one those keys live in. On receipt of a valid element from
the peer the owner accepts: the protocol has no key confirmation, and
`complete_session` only checks the element and records it as `r_in`,
the one stored fact that marks acceptance. The session key is derived
on its first read through `Session.key` and kept: the owner derives a
shared pairing value and feeds it through the variant's key derivation:

    original   s-values hash the ordered message pair only; the session
               key is a digest of the shared value alone.
    hardened   s-values and the key derivation additionally bind both
               identities, always in initiator-first order.

Writing s_i / s_r for the initiator and responder scalars, the initiator
pairs (peer_base^s_r * r_resp) with private_key^(x + s_i) and the
responder pairs (peer_base^s_i * r_init) with private_key^(x + s_r).
On honest runs both products land on the exponent

    base_init * base_resp * master * (x_init + s_i) * (x_resp + s_r)

so the two sides agree. The toy group's co-factor h is 1, so no power of
it appears in the arithmetic.

Derivation is one pass over the transcript: `oracles.session_hashes`
encodes each element once, takes the framed identities from its memo and
returns both s-values with the KDF input, which `oracles.derive_key`
completes with the shared value. The pairing takes the private key as it
is and one element computed from exponents (the peer's memoised H1G
exponent, r_in's and x + s_own): pairing private_key with
(peer_base^s * r_in)^(x + s_own) is, by bilinearity, the value above. A
read costs three sha256 calls, one pairing and one new source element,
built by `GElem._reduced`, as `start_session` builds R; the hot path
tests `Role` and `Variant` members held in module globals.
It draws nothing from the RNG and cannot fail once `complete_session`
has accepted, because every input was checked where it entered:
`IdentityKey` checks the identity and both key points (`KGC.extract`
builds only keys that pass), `start_session` the peer and
`complete_session` the element. The time of a key's first
read therefore changes no output byte. In the eCK game a key is seen
only through a session-key reveal or the Test query, and most keys are
never read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import GroupMismatchError, InvalidElementError, SessionStateError, require
from .group import GElem, pair, random_scalar, same_params
from .kgc import IdentityKey
from .oracles import _identity_exponent, derive_key, key_digest, require_identity, session_hashes


class Variant(Enum):
    ORIGINAL = "original"
    HARDENED = "hardened"


class Role(Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


@dataclass(slots=True)
class Session:
    """Mutable per-session state owned by exactly one party. The session
    has accepted exactly when r_in is set. Slotted, so a session keeps no
    instance dict (about 40 bytes less per session) and its fields read
    as fast as a dict's."""

    owner: str
    peer: str
    role: Role
    variant: Variant
    x: int
    r_out: GElem
    # the owner's key material and the key once read are neither printed nor
    # compared, so reading a key changes no equality; the key is no init
    # argument, so dataclasses.replace never copies a derived key
    _keys: IdentityKey = field(repr=False, compare=False)
    r_in: GElem | None = None
    _key: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def key(self) -> bytes | None:
        """The session key: None while Active, derived on the first read
        after acceptance and kept for every later read."""
        key = self._key
        if key is None and self.r_in is not None:
            key = self._key = _derive_key(self)
        return key


# value identity of an accepted session: (owner, peer, is_initiator, exponents
# of the initiator's and the responder's messages), comparable within one group
SessionId = tuple[str, str, bool, int, int]

# read as globals: a member read off its enum class is a Python-level lookup
_INITIATOR, _HARDENED = Role.INITIATOR, Variant.HARDENED


def start_session(
    keys: IdentityKey,
    peer: str,
    role: Role,
    variant: Variant,
    rng: random.Random,
) -> tuple[Session, GElem]:
    """Open a session owned by keys.identity: draw the ephemeral scalar in
    the keys' group and produce the outgoing element public_key^x. The
    session keeps the key material and stays Active until completion.
    Keys that are not an IdentityKey, a peer that is not a nonempty str
    UTF-8 can encode, or a role or variant of the wrong type are rejected
    before the draw."""
    # exact classes first, the types every caller in the package passes;
    # require then refuses anything else with its usual error
    if type(keys) is not IdentityKey:
        require(keys, IdentityKey, "keys")
    require_identity(peer, "peer")
    if type(role) is not Role:
        require(role, Role, "role")
    # any other variant would silently run the hardened arithmetic
    if type(variant) is not Variant:
        require(variant, Variant, "variant")
    params = keys.public_key.params
    x = random_scalar(rng, params)
    r_out = GElem._reduced(params, keys.public_key.exp * x % params.q)  # public_key**x
    session = Session(keys.identity, peer, role, variant, x, r_out, keys)
    return session, r_out


def complete_session(session: Session, r_in: GElem) -> None:
    """Accept the peer's element by recording it as session.r_in. Nothing
    is hashed or paired here: the key is derived on the first read of
    `session.key`.

    Validation happens before any state changes, so a rejected element
    leaves the session Active. The element must be a source-group
    element of the session's own group, so the deferred derivation
    cannot fail, and must not be the identity element: that would
    collapse the shared value to a constant.
    """
    if session.r_in is not None:
        raise SessionStateError("session has already accepted")
    if not isinstance(r_in, GElem):
        raise InvalidElementError("incoming message is not a source-group element")
    params = session.r_out.params
    if r_in.params is not params and not same_params(r_in.params, params):
        raise GroupMismatchError("incoming element from a different group instantiation")
    if r_in.exp == 0:  # is_identity, without the property's call
        raise InvalidElementError("identity element rejected as an exchange message")
    session.r_in = r_in


def _derive_key(session: Session) -> bytes:
    """The key of an accepted session, by the arithmetic in the module
    docstring, in one pass: one session_hashes call gives both s-values
    and the KDF input, and the private key is paired with one element
    built from exponents, (peer_base^s_peer * r_in)^(x + s_own), which by
    bilinearity gives the documented shared value. Its inputs were
    checked by IdentityKey, start_session and complete_session."""
    r_in, r_out = session.r_in, session.r_out
    bound = session.variant is _HARDENED
    if session.role is _INITIATOR:
        s_own, s_peer, kdf_input = session_hashes(bound, session.owner, session.peer, r_out, r_in)
    else:
        s_peer, s_own, kdf_input = session_hashes(bound, session.peer, session.owner, r_in, r_out)
    params = r_out.params
    q = params.q
    peer_term = (_identity_exponent(session.peer, q) * s_peer + r_in.exp) % q
    operand = GElem._reduced(params, peer_term * (session.x + s_own) % q)
    return derive_key(kdf_input, pair(session._keys.private_key, operand))


def session_id(session: Session) -> SessionId:
    """SessionId of an accepted session; raises while it is still Active."""
    if session.r_in is None:
        raise SessionStateError("session id is defined only after acceptance")
    initiator = session.role is _INITIATOR
    r_init, r_resp = (session.r_out, session.r_in) if initiator else (session.r_in, session.r_out)
    return (session.owner, session.peer, initiator, r_init.exp, r_resp.exp)


def partner_id(sid: SessionId) -> SessionId:
    """The SessionId of a session matching sid: owner and peer swapped,
    the complementary role, the same ordered transcript."""
    owner, peer, initiator, r_init, r_resp = sid
    return (peer, owner, not initiator, r_init, r_resp)


def sessions_match(a: SessionId, b: SessionId) -> bool:
    """Crosswise match: each names the other as peer, the roles are
    complementary, and both saw the same ordered transcript."""
    return partner_id(a) == b


def transcript_record(initiator: Session, responder: Session) -> dict:
    """JSON-ready record of a completed two-party run. Carries key
    digests, never keys: raw keys appear nowhere in transcripts."""
    return {
        "variant": initiator.variant.value,
        "initiator": initiator.owner,
        "responder": responder.owner,
        "r_initiator": initiator.r_out.hex(),
        "r_responder": responder.r_out.hex(),
        "initiator_accepted": initiator.r_in is not None,
        "responder_accepted": responder.r_in is not None,
        "initiator_key_digest": key_digest(key) if (key := initiator.key) else None,
        "responder_key_digest": key_digest(key) if (key := responder.key) else None,
    }

"""Two-pass key agreement: session state machine and key computation.

Each party sends one element R = public_key^x for a fresh scalar x. On
receipt of a valid element from the peer the owner accepts: the protocol
has no key confirmation, and `complete_session` only checks the element
and records it. The session key is derived on its first read through
`Session.key` and kept: the owner derives a shared pairing value and
feeds it through the variant's key derivation:

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
it appears in the arithmetic. Derivation draws nothing from the RNG and
cannot fail once `complete_session` has accepted, so when a key is read
changes no output byte. In the eCK game a key is seen only through a
session-key reveal or the Test query, and most keys are never read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    EmptyIdentityError,
    GroupMismatchError,
    InvalidElementError,
    ParameterError,
    SessionStateError,
)
from .group import GElem, GroupParams, GTElem, pair, random_scalar, same_params
from .kgc import IdentityKey, check_identity
from .oracles import (
    bound_scalar,
    derive_key_bound,
    derive_key_plain,
    hash_to_group,
    key_digest,
    transcript_scalar,
)


class Variant(Enum):
    ORIGINAL = "original"
    HARDENED = "hardened"


class Role(Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class Status(Enum):
    ACTIVE = "active"
    ACCEPTED = "accepted"


@dataclass
class Session:
    """Mutable per-session state owned by exactly one party."""

    owner: str
    peer: str
    role: Role
    variant: Variant
    x: int
    r_out: GElem
    r_in: GElem | None = None
    status: Status = field(default=Status.ACTIVE)
    # the owner's key material, set on acceptance, and the key once read;
    # neither is printed or compared, so reading a key changes no equality
    _keys: IdentityKey | None = field(default=None, repr=False, compare=False)
    _key: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> bytes | None:
        """The session key: None while Active, derived on the first read
        after acceptance and kept for every later read."""
        key = self._key
        if key is None and self._keys is not None:
            key = self._key = _derive_key(self)
        return key


# value identity of an accepted session: (owner, peer, is_initiator, exponents
# of the initiator's and the responder's messages), comparable within one group
SessionId = tuple[str, str, bool, int, int]


def session_scalars(
    variant: Variant,
    id_init: str,
    id_resp: str,
    r_init: GElem,
    r_resp: GElem,
) -> tuple[int, int]:
    """The (initiator, responder) scalar pair for a transcript. Both
    sides of an honest run compute identical values because the inputs
    are all public."""
    if variant is Variant.ORIGINAL:
        return (
            transcript_scalar(r_init, r_resp),
            transcript_scalar(r_resp, r_init),
        )
    return (
        bound_scalar(id_init, id_resp, r_init, r_resp),
        bound_scalar(id_resp, id_init, r_resp, r_init),
    )


def derive_session_key(
    variant: Variant,
    id_init: str,
    id_resp: str,
    r_init: GElem,
    r_resp: GElem,
    shared: GTElem,
) -> bytes:
    if variant is Variant.ORIGINAL:
        return derive_key_plain(shared)
    return derive_key_bound(id_init, id_resp, r_init, r_resp, shared)


def start_session(
    params: GroupParams,
    keys: IdentityKey,
    peer: str,
    role: Role,
    variant: Variant,
    rng: random.Random,
) -> tuple[Session, GElem]:
    """Open a session: draw the ephemeral scalar and produce the outgoing
    element public_key^x. The session stays Active until completion.
    A peer that is not a nonempty str, or a role or variant of the wrong
    type, is rejected before the draw, and so are parameters that are
    not a GroupParams."""
    if not isinstance(params, GroupParams):
        raise ParameterError(f"params must be a GroupParams, not {type(params).__name__}")
    check_identity(peer)
    if not peer:
        raise EmptyIdentityError("peer identity must be nonempty")
    if not isinstance(role, Role):
        raise ParameterError(f"role must be a Role, not {type(role).__name__}")
    # any other variant would silently run the hardened arithmetic
    if not isinstance(variant, Variant):
        raise ParameterError(f"variant must be a Variant, not {type(variant).__name__}")
    x = random_scalar(rng, params)
    r_out = keys.public_key**x
    session = Session(keys.identity, peer, role, variant, x, r_out)
    return session, r_out


def complete_session(
    session: Session,
    r_in: GElem,
    keys: IdentityKey,
    params: GroupParams,
) -> None:
    """Accept the peer's element. Nothing is hashed or paired here: the
    key is derived on the first read of `session.key`.

    Validation happens before any state changes, so a rejected element
    leaves the session Active. The identity element is rejected: it
    would collapse the shared value to a constant. The session's own
    element and the key material must share the element's group, so the
    deferred derivation cannot fail.
    """
    if session.status is not Status.ACTIVE:
        raise SessionStateError("session has already accepted")
    if keys.identity != session.owner:
        raise ParameterError("key material does not belong to the session owner")
    if not isinstance(r_in, GElem):
        raise InvalidElementError("incoming message is not a source-group element")
    if not same_params(r_in.params, params):
        raise GroupMismatchError("incoming element from a different group instantiation")
    if r_in.is_identity:
        raise InvalidElementError("identity element rejected as an exchange message")
    if not (
        same_params(session.r_out.params, params) and same_params(keys.private_key.params, params)
    ):
        raise GroupMismatchError("session or key material from a different group instantiation")

    session.r_in = r_in
    session._keys = keys
    session.status = Status.ACCEPTED


def _derive_key(session: Session) -> bytes:
    """The key of an accepted session, by the arithmetic in the module
    docstring. Its inputs were checked by complete_session."""
    r_in = session.r_in
    initiator = session.role is Role.INITIATOR
    id_init, id_resp = (session.owner, session.peer) if initiator else (session.peer, session.owner)
    r_init, r_resp = (session.r_out, r_in) if initiator else (r_in, session.r_out)
    s_init, s_resp = session_scalars(session.variant, id_init, id_resp, r_init, r_resp)
    s_own, s_peer = (s_init, s_resp) if initiator else (s_resp, s_init)
    peer_base = hash_to_group(r_in.params, session.peer)
    shared = pair(peer_base**s_peer * r_in, session._keys.private_key ** (session.x + s_own))
    return derive_session_key(session.variant, id_init, id_resp, r_init, r_resp, shared)


def session_id(session: Session) -> SessionId:
    """SessionId of an accepted session; raises while it is still Active."""
    if session.status is not Status.ACCEPTED:
        raise SessionStateError("session id is defined only after acceptance")
    initiator = session.role is Role.INITIATOR
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
        "initiator_accepted": initiator.status is Status.ACCEPTED,
        "responder_accepted": responder.status is Status.ACCEPTED,
        "initiator_key_digest": key_digest(initiator.key) if initiator.key else None,
        "responder_key_digest": key_digest(responder.key) if responder.key else None,
    }

"""Shared fixtures and independent reference oracles.

The reference functions here deliberately avoid the package's group and
oracle code: they work on plain integers with raw hashlib calls, so a
test comparing the two routes actually compares two implementations.
"""

import hashlib
import os
import random
from pathlib import Path

import pytest

from idak import DEFAULT_Q, GroupParams

# the CLI tests start `python -m idak` in a subprocess; give it this
# checkout's src/, as pyproject's pythonpath does for the tests themselves
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def p101() -> GroupParams:
    return GroupParams(101)


@pytest.fixture
def big() -> GroupParams:
    return GroupParams(DEFAULT_Q)


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _scalar(digest: bytes, q: int) -> int:
    return 1 + int.from_bytes(digest, "big") % (q - 1)


def _ser(exp: int) -> bytes:
    return exp.to_bytes(8, "big")


def _frame(identity: str) -> bytes:
    raw = identity.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def reference_identity_exponent(identity: str, q: int) -> int:
    return _scalar(_h(b"H1G" + identity.encode("utf-8")), q)


def _reference_scalars(
    variant: str, q: int, id_init: str, id_resp: str, r_init: int, r_resp: int
) -> tuple[int, int]:
    if variant == "original":
        return (
            _scalar(_h(b"PI0" + _ser(r_init) + _ser(r_resp)), q),
            _scalar(_h(b"PI0" + _ser(r_resp) + _ser(r_init)), q),
        )
    return (
        _scalar(_h(b"PI1" + _frame(id_init) + _frame(id_resp) + _ser(r_init) + _ser(r_resp)), q),
        _scalar(_h(b"PI1" + _frame(id_resp) + _frame(id_init) + _ser(r_resp) + _ser(r_init)), q),
    )


def _reference_kdf(
    variant: str, id_init: str, id_resp: str, r_init: int, r_resp: int, sigma: int
) -> bytes:
    if variant == "original":
        return _h(b"KDF0" + _ser(sigma))
    return _h(
        b"KDF" + _frame(id_init) + _frame(id_resp) + _ser(r_init) + _ser(r_resp) + _ser(sigma)
    )


def reference_session_key(
    variant: str,
    q: int,
    h: int,
    alpha: int,
    id_init: str,
    id_resp: str,
    x_init: int,
    x_resp: int,
) -> bytes:
    """Recompute a session key purely from exponents and raw hashlib."""
    a = reference_identity_exponent(id_init, q)
    b = reference_identity_exponent(id_resp, q)
    r_init, r_resp = a * x_init % q, b * x_resp % q
    s_init, s_resp = _reference_scalars(variant, q, id_init, id_resp, r_init, r_resp)
    sigma = (
        a * b % q * alpha % q * h % q * ((x_init + s_init) % q) % q * ((x_resp + s_resp) % q) % q
    )
    return _reference_kdf(variant, id_init, id_resp, r_init, r_resp, sigma)


def reference_one_sided_key(
    variant: str,
    q: int,
    alpha: int,
    owner: str,
    peer: str,
    role: str,
    x: int,
    r_in: int,
) -> bytes:
    """The key of one session from its owner's side alone: the owner's
    scalar x and the exponent r_in of whatever element it accepted, which
    need not come from the peer. role is "initiator" or "responder". The
    owner pairs its private key H(owner)^alpha with (H(peer)^s_peer * R_in)
    raised to x + s_own, so the shared exponent is
    (peer * s_peer + r_in) * owner * alpha * (x + s_own)."""
    own = reference_identity_exponent(owner, q)
    other = reference_identity_exponent(peer, q)
    r_out = own * x % q
    initiator = role == "initiator"
    if initiator:
        id_init, id_resp, r_init, r_resp = owner, peer, r_out, r_in
    else:
        id_init, id_resp, r_init, r_resp = peer, owner, r_in, r_out
    s_init, s_resp = _reference_scalars(variant, q, id_init, id_resp, r_init, r_resp)
    s_own, s_peer = (s_init, s_resp) if initiator else (s_resp, s_init)
    sigma = (other * s_peer + r_in) % q * (own * alpha % q) % q * ((x + s_own) % q) % q
    return _reference_kdf(variant, id_init, id_resp, r_init, r_resp, sigma)


def reference_handshake_key(variant: str, seed: int, q: int) -> bytes:
    """Replays the documented draw order (master key, initiator scalar,
    responder scalar) and hands off to the exponent-level reference."""
    rng = random.Random(seed)
    alpha = rng.randrange(1, q)
    x = rng.randrange(1, q)
    y = rng.randrange(1, q)
    return reference_session_key(variant, q, 1, alpha, "alice", "bob", x, y)


def reference_freshness(matched: bool, queries: set[str]) -> tuple[bool, str | None]:
    """Direct transcription of the freshness definition as a boolean
    formula over query atoms, checked clause by clause."""
    if "SessionKeyReveal(sid)" in queries or (matched and "SessionKeyReveal(sid*)" in queries):
        return False, "1"
    if matched:
        if "PrivateKeyReveal(owner)" in queries and "EphemeralKeyReveal(sid)" in queries:
            return False, "2a"
        if "PrivateKeyReveal(peer)" in queries and "EphemeralKeyReveal(sid*)" in queries:
            return False, "2b"
    else:
        if "PrivateKeyReveal(owner)" in queries and "EphemeralKeyReveal(sid)" in queries:
            return False, "3a"
        if "PrivateKeyReveal(peer)" in queries:
            return False, "3b"
    return True, None

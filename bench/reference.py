"""Independent references for checking the benchmark's outputs.

Nothing here imports the package. Keys are recomputed from plain
integers (the toy group stores every element as an exponent mod q) and
raw hashlib calls, replaying the documented RNG draw orders; freshness
verdicts come from a clause-by-clause transcription of the eCK rule.
"""

from __future__ import annotations

import hashlib
import random

Q = 1_000_003
WIDTH = 8

_identity_exponents: dict[str, int] = {}


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _scalar(digest: bytes, q: int) -> int:
    return 1 + int.from_bytes(digest, "big") % (q - 1)


def _ser(exp: int) -> bytes:
    return exp.to_bytes(WIDTH, "big")


def _frame(identity: str) -> bytes:
    raw = identity.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def identity_exponent(identity: str, q: int = Q) -> int:
    """Exponent of the hash-to-group image of an identity."""
    key = f"{q}/{identity}"
    if key not in _identity_exponents:
        _identity_exponents[key] = _scalar(_h(b"H1G" + identity.encode("utf-8")), q)
    return _identity_exponents[key]


def element_hex(identity: str, x: int, q: int = Q) -> str:
    """Hex encoding of the message public_key(identity)^x."""
    return _ser(identity_exponent(identity, q) * x % q).hex()


def session_key(
    variant: str, alpha: int, id_init: str, id_resp: str, x_init: int, x_resp: int, q: int = Q
) -> bytes:
    """Session key of a run whose messages are H(id_init)^x_init and
    H(id_resp)^x_resp, as the initiator computes it (co-factor 1)."""
    a = identity_exponent(id_init, q)
    b = identity_exponent(id_resp, q)
    r_init, r_resp = a * x_init % q, b * x_resp % q
    if variant == "original":
        s_init = _scalar(_h(b"PI0" + _ser(r_init) + _ser(r_resp)), q)
        s_resp = _scalar(_h(b"PI0" + _ser(r_resp) + _ser(r_init)), q)
    else:
        s_init = _scalar(
            _h(b"PI1" + _frame(id_init) + _frame(id_resp) + _ser(r_init) + _ser(r_resp)), q
        )
        s_resp = _scalar(
            _h(b"PI1" + _frame(id_resp) + _frame(id_init) + _ser(r_resp) + _ser(r_init)), q
        )
    sigma = a * b % q * alpha % q * ((x_init + s_init) % q) % q * ((x_resp + s_resp) % q) % q
    if variant == "original":
        return _h(b"KDF0" + _ser(sigma))
    return _h(
        b"KDF" + _frame(id_init) + _frame(id_resp) + _ser(r_init) + _ser(r_resp) + _ser(sigma)
    )


def key_digest(key: bytes) -> str:
    return hashlib.sha256(key).hexdigest()


def draws(seed: int, count: int, q: int = Q) -> list[int]:
    """The first `count` scalars drawn from a run seeded with `seed`:
    master key first, then one ephemeral scalar per opened session."""
    rng = random.Random(seed)
    return [rng.randrange(1, q) for _ in range(count)]


def freshness(
    key_revealed: bool,
    star_key_revealed: bool,
    owner_corrupted: bool,
    peer_corrupted: bool,
    eph_revealed: bool,
    star_eph_revealed: bool,
    matched: bool,
) -> tuple[bool, str | None]:
    """The eCK freshness rule as a formula over reveal atoms, checked
    clause by clause in the order 1, 2a/3a, 2b/3b."""
    if key_revealed or (matched and star_key_revealed):
        return False, "1"
    if matched:
        if owner_corrupted and eph_revealed:
            return False, "2a"
        if peer_corrupted and star_eph_revealed:
            return False, "2b"
    else:
        if owner_corrupted and eph_revealed:
            return False, "3a"
        if peer_corrupted:
            return False, "3b"
    return True, None


def freshness_of_atoms(matched: bool, queries: list[str]) -> tuple[bool, str | None]:
    """Freshness of a truth-table row, named by its query atoms."""
    atoms = set(queries)
    return freshness(
        "SessionKeyReveal(sid)" in atoms,
        "SessionKeyReveal(sid*)" in atoms,
        "PrivateKeyReveal(owner)" in atoms,
        "PrivateKeyReveal(peer)" in atoms,
        "EphemeralKeyReveal(sid)" in atoms,
        "EphemeralKeyReveal(sid*)" in atoms,
        matched,
    )

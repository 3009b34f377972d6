"""Key generation center: master-secret setup and identity key extraction."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapabilityError, ParameterError
from .group import GElem, GroupParams, random_scalar
from .oracles import hash_to_group


@dataclass(frozen=True)
class IdentityKey:
    """One identity's key material. public_key is the hash-to-group image
    of the identity; private_key is that point raised to the master secret."""

    identity: str
    public_key: GElem
    private_key: GElem


class KGC:
    """Holds the master secret and answers extraction requests.

    Extraction is deliberately unauthenticated: anyone, an adversary
    included, may register any identity and receive its private key.
    That is a protocol assumption, not an oversight, and several attack
    scripts depend on it. The master secret leaves the object only
    through reveal_master_key, which must be enabled at construction.
    """

    def __init__(
        self,
        rng: random.Random,
        group: GroupParams,
        master_key_reveal: bool = False,
    ) -> None:
        # checked before the master key is drawn
        if not isinstance(group, GroupParams):
            raise ParameterError(f"group must be a GroupParams, not {type(group).__name__}")
        check_master_key_reveal(master_key_reveal)
        self.params = group
        self._alpha = random_scalar(rng, self.params)
        self._master_key_reveal = master_key_reveal
        self._registry: dict[str, IdentityKey] = {}

    def extract(self, identity: str) -> IdentityKey:
        """Register an identity and return its key pair. Idempotent: the
        same identity always maps to the same material."""
        check_identity(identity)
        existing = self._registry.get(identity)
        if existing is not None:
            return existing
        base = hash_to_group(self.params, identity)
        key = IdentityKey(identity, base, base**self._alpha)
        self._registry[identity] = key
        return key

    def reveal_master_key(self) -> int:
        """Hand the master secret to the caller. Gated: the KGC must have
        been built with master_key_reveal=True, otherwise this refuses."""
        if not self._master_key_reveal:
            raise CapabilityError("master-key reveal is not enabled on this KGC")
        return self._alpha


def check_identity(identity: object) -> None:
    """Raise ParameterError unless identity is a str. Anything else fails
    deep in hashing or as unhashable, or, as a peer, only once the session
    completes; an empty string is left to the callers' own errors, an
    unknown party or EmptyIdentityError where it is hashed."""
    if not isinstance(identity, str):
        raise ParameterError(f"identity must be a str, not {type(identity).__name__}")


def check_master_key_reveal(enabled: object) -> None:
    """Raise ParameterError unless the master-key gate is a bool: any other
    truthy value, the string "no" included, would open it."""
    if type(enabled) is not bool:
        raise ParameterError(f"master_key_reveal must be a bool, not {type(enabled).__name__}")

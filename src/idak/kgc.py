"""Key generation center: master-secret setup and identity key extraction."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapabilityError, GroupMismatchError, InvalidElementError, require
from .group import GElem, GroupParams, random_scalar, same_params
from .oracles import _identity_exponent, require_identity


@dataclass(frozen=True)
class IdentityKey:
    """One identity's key material. public_key is the hash-to-group image
    of the identity; private_key is that point raised to the master secret.
    Built only from a nonempty, UTF-8-encodable identity and two
    non-identity elements of one group: ParameterError, GroupMismatchError
    or InvalidElementError otherwise. KGC.extract builds keys that pass
    these checks without running them."""

    identity: str
    public_key: GElem
    private_key: GElem

    def __post_init__(self) -> None:
        # a session reads these only when its key is first read, after it
        # accepted; checked here, a bad point cannot surface that late
        require_identity(self.identity, "identity")
        require(self.public_key, GElem, "public_key")
        require(self.private_key, GElem, "private_key")
        if not same_params(self.public_key.params, self.private_key.params):
            raise GroupMismatchError("public and private key from different group instantiations")
        # an identity-element public key sends the identity element, which
        # every peer rejects; an identity-element private key pairs to gt^0
        if self.public_key.is_identity or self.private_key.is_identity:
            raise InvalidElementError("identity element rejected as key material")


class KGC:
    """Holds the master secret and answers extraction requests.

    Extraction is deliberately unauthenticated: anyone, an adversary
    included, may name any identity and receive its private key.
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
        # checked before the master key is drawn; any truthy non-bool gate,
        # the string "no" included, would open it
        if type(group) is not GroupParams:
            require(group, GroupParams, "group")
        if type(master_key_reveal) is not bool:
            require(master_key_reveal, bool, "master_key_reveal")
        self.params = group
        self._alpha = random_scalar(rng, self.params)
        self._master_key_reveal = master_key_reveal

    def extract(self, identity: str) -> IdentityKey:
        """Return an identity's key pair, a pure function of the master
        secret and the identity: the same identity always gets equal
        material. An empty identity, or one UTF-8 cannot encode, is
        refused by the H1G hash.

        Both points are built from the identity's memoised H1G exponent e,
        as g^e (hash_to_group's point) and g^(e * alpha), without rerunning
        IdentityKey's checks, which could not fail here: the identity has
        passed `require` and the hash, and e and alpha lie in [1, q) for a
        prime q, so both are non-identity points of self.params."""
        if type(identity) is not str:
            require(identity, str, "identity")
        params = self.params
        exponent = _identity_exponent(identity, params.q)
        key = object.__new__(IdentityKey)
        vars(key).update(
            identity=identity,
            public_key=GElem._reduced(params, exponent),
            private_key=GElem._reduced(params, exponent * self._alpha % params.q),
        )
        return key

    def reveal_master_key(self) -> int:
        """Hand the master secret to the caller. Gated: the KGC must have
        been built with master_key_reveal=True, otherwise this refuses."""
        if not self._master_key_reveal:
            raise CapabilityError("master-key reveal is not enabled on this KGC")
        return self._alpha

"""Toy symmetric bilinear group with exponent-transparent elements.

Both the source group G and the target group GT are presented through the
exponents of a fixed generator in a prime-order group: an element stores
the exponent e, the pairing multiplies exponents mod q, and the discrete
logarithm is therefore available for free as a test oracle (`dlog`).
Bilinearity, symmetry and non-degeneracy hold exactly; hardness is
deliberately absent, which is what makes the attack harness checkable.

Each group order is validated once per process: `GroupParams` keeps the
orders that passed its full check and skips Miller-Rabin for them after.
Elements are slotted frozen dataclasses. Group operations reduce their
exponent once and build the result without rerunning the public
constructor's checks. `random_scalar` makes randrange's own getrandbits
draws on an exact `random.Random` and calls any other rng's randrange,
whose answer it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from .errors import GroupMismatchError, ParameterError, require

DEFAULT_Q = 1_000_003  # smallest prime above 10**6; keeps exponents cheap to audit

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# orders that passed GroupParams' full check; a failed check adds nothing
_validated_orders: set[int] = set()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    """Public parameters of the toy group: the prime order q, plus the
    fixed co-factor h and byte width of the canonical element encoding."""

    q: int
    h: ClassVar[int] = 1
    width: ClassVar[int] = 8

    def __post_init__(self) -> None:
        # checked first: 1000003.0 would otherwise be found in the int set
        if type(self.q) is not int:
            require(self.q, int, "group order")
        if self.q in _validated_orders:
            return
        # the width first: Miller-Rabin on a many-digit order costs seconds
        if self.q > 1 << (8 * self.width):
            raise ParameterError("group order does not fit the encoding width")
        if self.q <= 3 or not is_prime(self.q):
            raise ParameterError(f"group order must be a prime above 3, got {self.q}")
        _validated_orders.add(self.q)

    @property
    def g(self) -> GElem:
        """Canonical generator of G."""
        return GElem(self, 1)

    @property
    def gt(self) -> GTElem:
        """Canonical generator of GT, the pairing of g with itself."""
        return GTElem(self, 1)

    def to_json(self) -> dict[str, str]:
        # decimal strings keep 64-bit values safe for any JSON consumer
        return {"q": str(self.q), "h": str(self.h), "width": str(self.width)}


def same_params(a: GroupParams, b: GroupParams) -> bool:
    """Whether two parameter sets describe one group: the same object, or equal."""
    return a is b or a == b


def _require_int(exp: object) -> int:
    if not isinstance(exp, int):
        raise TypeError(f"exponent must be an int, not {type(exp).__name__}")
    return exp


@dataclass(frozen=True, slots=True)
class _Elem:
    params: GroupParams
    exp: int

    def __post_init__(self) -> None:
        _require_int(self.exp)
        object.__setattr__(self, "exp", self.exp % self.params.q)

    @classmethod
    def _reduced(cls, params: GroupParams, exp: int):
        """Build from an int exponent already in [0, q), skipping the
        public constructor's check and reduction."""
        elem = _new(cls)
        _set_params(elem, params)
        _set_exp(elem, exp)
        return elem

    def _require_same_group(self, other: _Elem) -> None:
        if self.__class__ is not other.__class__:
            raise TypeError(
                f"cannot combine {self.__class__.__name__} with {other.__class__.__name__}"
            )
        if not same_params(self.params, other.params):
            raise GroupMismatchError("elements belong to different group instantiations")

    def __mul__(self, other: _Elem) -> _Elem:
        self._require_same_group(other)
        return self._reduced(self.params, (self.exp + other.exp) % self.params.q)

    def __pow__(self, scalar: int) -> _Elem:
        if type(scalar) is not int:
            _require_int(scalar)
        params = self.params
        elem = _new(self.__class__)
        _set_params(elem, params)
        _set_exp(elem, self.exp * scalar % params.q)
        return elem

    @property
    def is_identity(self) -> bool:
        return self.exp == 0

    def to_bytes(self) -> bytes:
        return self.exp.to_bytes(self.params.width, "big")

    def hex(self) -> str:
        return self.to_bytes().hex()


# slot setters, bound once: _Elem._reduced, `**` and `pair`, on every group
# operation's path, and protocol's key derivation build through them
_new = object.__new__
_set_params = _Elem.params.__set__
_set_exp = _Elem.exp.__set__


class GElem(_Elem):
    """Element of the source group G, stored as its exponent."""

    __slots__ = ()


class GTElem(_Elem):
    """Element of the target group GT, stored as its exponent."""

    __slots__ = ()


def pair(a: GElem, b: GElem) -> GTElem:
    """The bilinear map: on exponent representations it multiplies
    exponents mod q, so pair(g^x, g^y) = gt^(x*y) by construction."""
    if not isinstance(a, GElem) or not isinstance(b, GElem):
        raise TypeError("pair expects two source-group elements")
    params = a.params
    if b.params is not params and not same_params(params, b.params):
        raise GroupMismatchError("pairing operands from different group instantiations")
    elem = _new(GTElem)
    _set_params(elem, params)
    _set_exp(elem, a.exp * b.exp % params.q)
    return elem


def random_scalar(rng: random.Random, params: GroupParams) -> int:
    """Uniform nonzero scalar in [1, q): randrange(1, q)'s own getrandbits
    draws on an exact random.Random, any other rng's randrange(1, q),
    refused unless it is an int (TypeError) in [1, q) (ParameterError)."""
    if type(rng) is not random.Random:
        scalar = _require_int(rng.randrange(1, params.q))
        if not 0 < scalar < params.q:
            raise ParameterError(f"randrange(1, {params.q}) returned {scalar}")
        return scalar
    n = params.q - 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:  # rejection, as randrange's _randbelow
        r = rng.getrandbits(k)
    return 1 + r


def dlog(elem: GElem | GTElem) -> int:
    """Discrete log to the canonical generator. The toy backend exposes
    it for free; it exists purely as a test and adversary oracle."""
    return elem.exp


def dbdh_check(x_elem: GElem, y_elem: GElem, z_elem: GElem, candidate: GTElem) -> bool:
    """Decide whether candidate = gt^(x*y*z) for the given g^x, g^y, g^z.

    Makes the decisional pairing problem trivially decidable, which is
    the point of the toy backend: tests can tell real keys from random.
    """
    for e in (y_elem, z_elem):
        if not same_params(x_elem.params, e.params):
            raise GroupMismatchError("mixed group instantiations in decision check")
    if not same_params(x_elem.params, candidate.params):
        raise GroupMismatchError("candidate from a different group instantiation")
    q = x_elem.params.q
    return candidate.exp == x_elem.exp * y_elem.exp % q * z_elem.exp % q

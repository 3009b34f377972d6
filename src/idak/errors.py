"""Exception types shared across the package, and the boundary type check."""


class IdakError(Exception):
    """Base class for every package-specific error."""


class GroupMismatchError(IdakError):
    """Operands belong to different group instantiations."""


class EmptyIdentityError(IdakError):
    """Identity strings must be nonempty."""


class InvalidElementError(IdakError):
    """A received protocol message or a key point is not an acceptable
    group element."""


class ParameterError(IdakError, ValueError):
    """A parameter is out of range or of the wrong kind: a group order that
    is not a usable prime, or an argument that `require` refuses."""


class SessionStateError(IdakError):
    """The session is not in the state this operation requires."""


class CapabilityError(IdakError):
    """An adversary capability was exercised without being enabled."""


class QueryError(IdakError):
    """An adversary query named an unknown session or identity, or broke
    the experiment's query discipline (double Test, Guess before Test)."""


def require(value: object, kind: type, name: str) -> None:
    """Raise ParameterError unless value is a kind. int and bool must match
    exactly, so True is no int and 1 no bool; any other kind is an
    isinstance test. Arguments are checked this way before they are used,
    so a wrong type fails here rather than deep in hashing or as a silently
    wrong branch, and before any RNG draw."""
    exact = kind is int or kind is bool
    if (type(value) is not kind) if exact else not isinstance(value, kind):
        # "an XChoice": the letter is read "ex"
        article = "an" if kind.__name__[0] in "AEIOUXaeiou" else "a"
        got = type(value).__name__
        raise ParameterError(f"{name} must be {article} {kind.__name__}, not {got}")

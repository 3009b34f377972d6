"""Exception types shared across the package."""


class IdakError(Exception):
    """Base class for every package-specific error."""


class GroupMismatchError(IdakError):
    """Operands belong to different group instantiations."""


class EmptyIdentityError(IdakError):
    """Identity strings must be nonempty."""


class InvalidElementError(IdakError):
    """A received protocol message is not an acceptable group element."""


class ParameterError(IdakError, ValueError):
    """A parameter is out of range or of the wrong kind: a group order that
    is not a usable prime, group parameters, a role, variant or KCI choice
    of the wrong type, an identity that is not a str, a seed that is not an
    int, a master-key gate that is not a bool, or key material that belongs
    to another party."""


class SessionStateError(IdakError):
    """The session is not in the state this operation requires."""


class CapabilityError(IdakError):
    """An adversary capability was exercised without being enabled."""


class QueryError(IdakError):
    """An adversary query named an unknown session or identity, or broke
    the experiment's query discipline (double Test, Guess before Test)."""

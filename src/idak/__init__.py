"""Identity-based key agreement over a toy bilinear group, plus the
adversary harness that exercises it.

Layers, bottom up: `group` (exponent-transparent bilinear pairing),
`oracles` (domain-separated sha256), `kgc` (master key and extraction),
`protocol` (two-pass exchange in two variants), `ecksim` (adversarial
network and the distinguishing game), `attacks` (scripted adversaries),
`cli` (JSON-emitting command-line front end).

Everything here is a research harness over a deliberately breakable
group; nothing in this package protects real traffic.
"""

from . import errors
from .attacks import (
    AttackReport,
    PartyRecord,
    XChoice,
    kci_success,
    master_key_break_success,
    misbinding_success,
    run_dlog_extract_adversary,
    run_kci_attempt,
    run_master_key_break,
    run_uks,
)
from .ecksim import (
    FreshnessVerdict,
    Outcome,
    QueryKind,
    QueryRecord,
    World,
    freshness_truth_table,
    run_honest_exchange,
    run_key_reveal_violator,
    run_random_guess_adversary,
)
from .errors import ParameterError
from .group import (
    DEFAULT_Q,
    GElem,
    GroupParams,
    GTElem,
    dbdh_check,
    dlog,
    is_prime,
    pair,
    random_scalar,
)
from .kgc import KGC, IdentityKey
from .oracles import (
    DIGEST,
    KEY_BYTES,
    bound_scalar,
    derive_key_bound,
    derive_key_plain,
    hash_to_group,
    key_digest,
    transcript_scalar,
)
from .protocol import (
    Role,
    Session,
    SessionId,
    Variant,
    complete_session,
    session_id,
    sessions_match,
    start_session,
    transcript_record,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "DEFAULT_Q",
    "DIGEST",
    "FreshnessVerdict",
    "GElem",
    "GTElem",
    "GroupParams",
    "IdentityKey",
    "KEY_BYTES",
    "KGC",
    "Outcome",
    "ParameterError",
    "PartyRecord",
    "QueryKind",
    "QueryRecord",
    "Role",
    "Session",
    "SessionId",
    "Variant",
    "World",
    "XChoice",
    "bound_scalar",
    "complete_session",
    "dbdh_check",
    "derive_key_bound",
    "derive_key_plain",
    "dlog",
    "errors",
    "freshness_truth_table",
    "hash_to_group",
    "is_prime",
    "kci_success",
    "key_digest",
    "master_key_break_success",
    "misbinding_success",
    "pair",
    "random_scalar",
    "run_dlog_extract_adversary",
    "run_honest_exchange",
    "run_kci_attempt",
    "run_key_reveal_violator",
    "run_master_key_break",
    "run_random_guess_adversary",
    "run_uks",
    "session_id",
    "sessions_match",
    "start_session",
    "transcript_record",
    "transcript_scalar",
]

"""Adversarial network simulation and the distinguishing experiment.

The adversary owns the wire. Sessions only ever complete through
`deliver`, with whatever element the adversary chooses to hand over, and
`deliver` returns nothing: keys stay inside the world unless a reveal
query or the Test query reads them, and only a read derives a key.
Reveal queries (ephemeral scalar, long-term key, session key, extraction
of fresh identities) are appended to a query log; the freshness rule is
a pure function of that log and of which sessions accepted over which
transcripts. `World` keeps five indexes in step with that state, all
keyed by plain values (handles, names, exponents and transcripts), so a
verdict costs a few lookups however many sessions and queries there are.
`deliver` resolves each session's match as it accepts: `_cells` keeps,
per conversation (the initiator's owner and peer and the ordered
transcript), a one-item cell per role holding that role's smallest
accepted handle, and `_match` points each accepted handle at the other
role's cell. Sessions of one conversation either share a `SessionId` or
hold each other's `protocol.partner_id`, so that item is the match sid*,
whichever side accepts first, replays included; `is_fresh` and
`matching_session` read it by handle and build no session id. A session
has accepted exactly when its `r_in` is set, and then its handle is in
`_match`. Two sets of handles, the sessions whose key (`_key_revealed`)
and whose ephemeral scalar (`_eph_revealed`) was revealed, and one set
of identity points, the H1G exponents of the corrupted identities at the
world's q (`_corrupted`), are updated in `_record`, the one place the
log grows, and emptied with the log in `_clear_queries`. Transcript
exponents suffice as the match key because `complete_session` rejects
elements of another group before anything is indexed.

Freshness of a completed session sid with owner A and intended peer B,
writing sid* for its matching session when one exists, fails exactly
when one of these holds:

    1    the session key of sid or sid* was revealed
    2a   (sid* exists) A's long-term key and sid's ephemeral both revealed
    2b   (sid* exists) B corrupted and sid*'s ephemeral revealed
    3a   (no sid*)     A's long-term key and sid's ephemeral both revealed
    3b   (no sid*)     B corrupted at all

A party is corrupted once the log names its identity point: its long-term
key was revealed, or the adversary extracted the identity itself or any
other name that hashes to the same point, and so holds the same private
key. Corruption follows key material, not names, as in the eCK model;
the KGC still extracts colliding names. eCK requires an honest peer, and
a peer whose key the adversary registered is not one.

The test/guess pair plays real-or-random: `test` flips a hidden bit and
returns either the real session key or 32 uniform bytes; `guess` wins
only when the bit is named correctly AND the test session is still fresh
at guess time, so reveals made after the test query still disqualify it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import QueryError, SessionStateError, require
from .group import DEFAULT_Q, GElem, GroupParams
from .kgc import KGC, IdentityKey
from .oracles import KEY_BYTES, _identity_exponent
from .protocol import (
    Role,
    Session,
    Variant,
    complete_session,
    start_session,
)


class QueryKind(Enum):
    EPHEMERAL_KEY_REVEAL = "EphemeralKeyReveal"
    PRIVATE_KEY_REVEAL = "PrivateKeyReveal"
    SESSION_KEY_REVEAL = "SessionKeyReveal"
    EXTRACT = "Extract"
    TEST = "Test"
    GUESS = "Guess"


# module names for the kinds and roles: reading a member off the enum class
# costs a Python-level lookup, a global does not. _record routes on the first
# two kinds, World builds every QueryRecord from them with `_new_record`, and
# deliver and run_honest_exchange test and pass the roles
_EPHEMERAL = QueryKind.EPHEMERAL_KEY_REVEAL
_SESSION_KEY = QueryKind.SESSION_KEY_REVEAL
_PRIVATE_KEY = QueryKind.PRIVATE_KEY_REVEAL
_EXTRACT = QueryKind.EXTRACT
_TEST = QueryKind.TEST
_GUESS = QueryKind.GUESS
_INITIATOR, _RESPONDER = Role.INITIATOR, Role.RESPONDER


class QueryRecord(NamedTuple):
    """One logged adversary query: a NamedTuple, so it is immutable and
    cheap to build on every reveal. A PrivateKeyReveal or Extract record
    keeps the name the adversary used."""

    kind: QueryKind
    session: int | None = None
    identity: str | None = None
    bit: int | None = None

    def to_json(self) -> dict:
        record: dict = {"query": self.kind.value}
        if self.session is not None:
            record["session"] = self.session
        if self.identity is not None:
            record["identity"] = self.identity
        if self.bit is not None:
            record["bit"] = self.bit
        return record


# `_new_record(QueryRecord, (kind, session, identity, bit))` builds a record
# in C, at a little over half the cost of the class call, whose generated
# __new__ is a Python function; every field is passed, in field order
_new_record = tuple.__new__


@dataclass(frozen=True)
class FreshnessVerdict:
    fresh: bool
    violated_clause: str | None = None

    def to_json(self) -> dict:
        return {"fresh": self.fresh, "violated_clause": self.violated_clause}


# the six verdicts is_fresh returns; frozen, so every caller may share them
_FRESH = FreshnessVerdict(True)
_CLAUSE_1 = FreshnessVerdict(False, "1")
_CLAUSE_2A = FreshnessVerdict(False, "2a")
_CLAUSE_2B = FreshnessVerdict(False, "2b")
_CLAUSE_3A = FreshnessVerdict(False, "3a")
_CLAUSE_3B = FreshnessVerdict(False, "3b")
VERDICTS = (_FRESH, _CLAUSE_1, _CLAUSE_2A, _CLAUSE_2B, _CLAUSE_3A, _CLAUSE_3B)


class Outcome(Enum):
    WIN = "win"
    LOSE = "lose"
    INVALID = "invalid"


class World:
    """One experiment instance: a KGC, honest parties, their sessions,
    and the adversary's query log. Deterministic given (seed, script)."""

    def __init__(
        self,
        seed: int,
        variant: Variant = Variant.HARDENED,
        q: int = DEFAULT_Q,
        master_key_reveal: bool = False,
    ) -> None:
        # exact classes first, as in start_session
        if type(variant) is not Variant:
            require(variant, Variant, "variant")
        # random.Random(None) seeds from OS entropy, and the report's "seed"
        # must replay the world: only a plain int is taken
        if type(seed) is not int:
            require(seed, int, "seed")
        # the KGC checks the gate too, but only after the RNG exists
        if type(master_key_reveal) is not bool:
            require(master_key_reveal, bool, "master_key_reveal")
        self.seed = seed
        self.variant = variant
        self.rng = random.Random(seed)
        self.kgc = KGC(self.rng, GroupParams(q), master_key_reveal=master_key_reveal)
        self.params: GroupParams = self.kgc.params
        self.log: list[QueryRecord] = []
        # indexes over self.log, filled by _record: the handles of sessions
        # whose key / ephemeral scalar was revealed, and the identity points
        # (H1G exponents) that a PrivateKeyReveal or Extract record corrupted;
        # and over the accepted sessions, filled by deliver: _cells and
        # _match, as the module docstring describes
        self._key_revealed: set[int] = set()
        self._eph_revealed: set[int] = set()
        self._corrupted: set[int] = set()
        self._cells: dict[tuple[str, str, int, int], tuple[list, list]] = {}
        self._match: dict[int, list[int | None]] = {}
        self._parties: dict[str, IdentityKey] = {}
        self._sessions: dict[int, Session] = {}
        self._next_handle = 1
        self._test_handle: int | None = None
        self._test_bit: int | None = None
        self._guess_bit: int | None = None
        self._outcome: Outcome | None = None

    # -- party and session management -------------------------------------

    def add_party(self, identity: str) -> None:
        """Register an honest party. Not an adversary query, not logged."""
        self._parties[identity] = self.kgc.extract(identity)

    def activate(self, owner: str, peer: str, role: Role) -> tuple[int, GElem]:
        """Open a session at a registered party, returning its handle and
        the outgoing element (which the adversary may or may not deliver)."""
        # start_session checks the peer
        if type(owner) is not str:
            require(owner, str, "owner")
        keys = self._parties.get(owner) or self._party_keys(owner)  # which raises if unknown
        session, r_out = start_session(keys, peer, role, self.variant, self.rng)
        handle = self._next_handle
        self._next_handle += 1
        self._sessions[handle] = session
        return handle, r_out

    def deliver(self, handle: int, element: GElem) -> None:
        """Hand an element of the adversary's choice to a session. The
        session accepts (or rejects); nothing is returned, and the key is
        derived only if a reveal or the Test query reads it."""
        # session() without its call for a known int handle; it raises for any other
        session = (self._sessions.get(handle) if type(handle) is int else None) or self.session(handle)
        complete_session(session, element)
        # the conversation key; of its cells, [0] holds responders, [1] initiators
        initiator = session.role is _INITIATOR
        if initiator:
            key = (session.owner, session.peer, session.r_out.exp, element.exp)
        else:
            key = (session.peer, session.owner, element.exp, session.r_out.exp)
        cells = self._cells.get(key)
        if cells is None:
            # the conversation's first acceptance: its role's cell starts with it
            cells = self._cells[key] = ([None], [handle]) if initiator else ([handle], [None])
        elif cells[initiator][0] is None or cells[initiator][0] > handle:
            # sessions may accept out of creation order; the smallest handle wins
            cells[initiator][0] = handle
        self._match[handle] = cells[not initiator]

    def matching_session(self, handle: int) -> int | None:
        """Handle of the accepted session matching crosswise, or None.
        When several accepted sessions share the partner's id (replayed
        transcripts), the smallest handle, the first created, wins. Raises
        SessionStateError while the session is still Active."""
        if type(handle) is not int or handle not in self._match:
            self.session(handle)  # QueryError for an unknown or non-int handle
            raise SessionStateError("only an accepted session has a match or a freshness verdict")
        return self._match[handle][0]

    def session(self, handle: int) -> Session:
        # bool and float handles would otherwise find the int key they equal
        if type(handle) is not int:
            raise QueryError(f"session handle must be an int, not {type(handle).__name__}")
        try:
            return self._sessions[handle]
        except KeyError:
            raise QueryError(f"unknown session handle {handle}") from None

    def _record(self, record: QueryRecord) -> None:
        """Append to the query log and keep the freshness indexes in step."""
        self.log.append(record)
        # identity tests, not hashing: an enum hash is a Python-level call;
        # Test and Guess records enter no index
        kind = record.kind
        if kind is _EPHEMERAL:
            self._eph_revealed.add(record.session)
        elif kind is _SESSION_KEY:
            self._key_revealed.add(record.session)
        # only PrivateKeyReveal and Extract records carry an identity
        elif record.identity is not None:
            self._corrupted.add(_identity_exponent(record.identity, self.params.q))

    def _clear_queries(self) -> None:
        """Empty the query log and the indexes _record keeps over it, so the
        next queries are judged as if they were the first. Sessions, keys
        and the RNG are left as they are, and so is the Test and Guess
        state: only for worlds that have issued neither."""
        self.log.clear()
        self._key_revealed.clear()
        self._eph_revealed.clear()
        self._corrupted.clear()

    def _party_keys(self, identity: str) -> IdentityKey:
        try:
            return self._parties[identity]
        except KeyError:
            raise QueryError(f"unknown party {identity!r}") from None

    # -- adversary reveal queries ------------------------------------------

    def eph_reveal(self, handle: int) -> int:
        """Reveal a session's ephemeral scalar."""
        session = (self._sessions.get(handle) if type(handle) is int else None) or self.session(handle)
        self._record(_new_record(QueryRecord, (_EPHEMERAL, handle, None, None)))
        return session.x

    def key_reveal(self, handle: int) -> bytes:
        """Reveal an accepted session's key."""
        session = (self._sessions.get(handle) if type(handle) is int else None) or self.session(handle)
        if session.r_in is None:
            raise SessionStateError("session key exists only after acceptance")
        self._record(_new_record(QueryRecord, (_SESSION_KEY, handle, None, None)))
        return session.key

    def private_reveal(self, identity: str) -> IdentityKey:
        """Reveal a registered party's long-term key material."""
        if type(identity) is not str:
            require(identity, str, "identity")
        keys = self._parties.get(identity) or self._party_keys(identity)
        self._record(_new_record(QueryRecord, (_PRIVATE_KEY, None, identity, None)))
        return keys

    def adv_extract(self, identity: str) -> IdentityKey:
        """Let the adversary register its own identity with the KGC and
        collect the key material. Logged as an extraction, which corrupts
        the identity point: no session whose peer hashes to it is fresh."""
        require(identity, str, "identity")
        if identity in self._parties:
            raise QueryError(f"{identity!r} is already a registered party")
        keys = self.kgc.extract(identity)
        self._record(_new_record(QueryRecord, (_EXTRACT, None, identity, None)))
        return keys

    # -- freshness ----------------------------------------------------------

    def is_fresh(self, handle: int) -> FreshnessVerdict:
        """Evaluate the freshness rule for an accepted session against the
        current query log. Clauses are checked in order 1, 2a/3a, 2b/3b
        and the first violated one is reported.

        The match sid* is one int-keyed read of the session's cell; the
        clauses then test handles in the two reveal sets (key, ephemeral)
        and identity points in the corrupted set: the owner's from its key
        material, the peer's memoised H1G exponent, each fetched only when
        its clause can still fire. The verdict is one of six constants."""
        if type(handle) is not int or handle not in self._match:
            self.matching_session(handle)  # raises: unknown, non-int or Active handle
        star = self._match[handle][0]
        keys, ephemerals, corrupted = self._key_revealed, self._eph_revealed, self._corrupted

        # star is None without a match, and None is in neither handle set
        if handle in keys or star in keys:
            return _CLAUSE_1
        if handle in ephemerals and self._sessions[handle]._keys.public_key.exp in corrupted:
            return _CLAUSE_3A if star is None else _CLAUSE_2A
        if (star is None or star in ephemerals) and (
            _identity_exponent(self._sessions[handle].peer, self.params.q) in corrupted
        ):
            return _CLAUSE_3B if star is None else _CLAUSE_2B
        return _FRESH

    # -- the distinguishing game --------------------------------------------

    def test(self, handle: int) -> bytes:
        """Flip the hidden bit and answer with the real session key (bit 0)
        or 32 uniform bytes (bit 1). Allowed once per experiment."""
        if self._test_handle is not None:
            raise QueryError("only one test query is allowed")
        session = self.session(handle)
        if session.r_in is None:
            raise SessionStateError("only an accepted session can be tested")
        self._test_handle = handle
        self._test_bit = self.rng.getrandbits(1)
        self._record(_new_record(QueryRecord, (_TEST, handle, None, None)))
        if self._test_bit == 0:
            return session.key
        return self.rng.randbytes(KEY_BYTES)

    def guess(self, bit: int) -> Outcome:
        """Commit to a bit. Wins only on a correct bit AND a test session
        that is fresh right now; an unfresh test session invalidates the
        experiment whatever the bit says."""
        if self._test_handle is None:
            raise QueryError("guess requires a prior test query")
        if self._outcome is not None:
            raise QueryError("only one guess is allowed")
        if type(bit) is not int or bit not in (0, 1):
            raise QueryError("guess bit must be the int 0 or 1")
        self._guess_bit = bit
        self._record(_new_record(QueryRecord, (_GUESS, None, None, bit)))
        verdict = self.is_fresh(self._test_handle)
        if not verdict.fresh:
            self._outcome = Outcome.INVALID
        elif bit == self._test_bit:
            self._outcome = Outcome.WIN
        else:
            self._outcome = Outcome.LOSE
        return self._outcome

    def experiment_report(self, adversary: str) -> dict:
        """JSON-ready record of a finished experiment."""
        test_session = None
        freshness = None
        if self._test_handle is not None:
            session = self.session(self._test_handle)
            ends = [session.r_out.hex(), session.r_in.hex()]
            test_session = {
                "owner": session.owner,
                "peer": session.peer,
                "role": session.role.value,
                "transcript": ends if session.role is _INITIATOR else ends[::-1],
            }
            freshness = self.is_fresh(self._test_handle).to_json()
        return {
            "seed": self.seed,
            "variant": self.variant.value,
            "adversary": adversary,
            "query_log": [record.to_json() for record in self.log],
            "test_session": test_session,
            "hidden_bit": self._test_bit,
            "guess": self._guess_bit,
            "verdict": self._outcome.value if self._outcome else None,
            "freshness": freshness,
        }


def two_party_world(
    seed: int,
    variant: Variant,
    q: int = DEFAULT_Q,
    master_key_reveal: bool = False,
) -> World:
    """A World with the honest parties alice and bob registered."""
    world = World(seed, variant, q, master_key_reveal)
    world.add_party("alice")
    world.add_party("bob")
    return world


def run_honest_exchange(world: World, initiator: str, responder: str) -> tuple[int, int]:
    """Faithful delivery in both directions; returns the two handles."""
    h_init, r_init = world.activate(initiator, responder, _INITIATOR)
    h_resp, r_resp = world.activate(responder, initiator, _RESPONDER)
    world.deliver(h_resp, r_init)
    world.deliver(h_init, r_resp)
    return h_init, h_resp


def play_random_guess(world: World) -> Outcome:
    """Honest alice-bob run, test on alice's session, then a coin-flip guess."""
    world.test(run_honest_exchange(world, "alice", "bob")[0])
    return world.guess(world.rng.getrandbits(1))


def run_random_guess_adversary(variant: Variant, seed: int, q: int = DEFAULT_Q) -> dict:
    """Calibration probe: `play_random_guess`, reported. Over many seeds
    the win rate must sit at one half."""
    world = two_party_world(seed, variant, q)
    play_random_guess(world)
    return world.experiment_report("random-guess")


def run_key_reveal_violator(variant: Variant, seed: int, q: int = DEFAULT_Q) -> dict:
    """Calibration probe for clause 1: reveal the test session's key after
    the test query, then guess the bit correctly. The reveal must turn
    even a correct guess into an invalid experiment."""
    world = two_party_world(seed, variant, q)
    h_init, _ = run_honest_exchange(world, "alice", "bob")
    answer = world.test(h_init)
    real_key = world.key_reveal(h_init)
    world.guess(0 if answer == real_key else 1)
    return world.experiment_report("key-reveal-violator")


_ATOMS_MATCHED = (
    "SessionKeyReveal(sid)",
    "SessionKeyReveal(sid*)",
    "PrivateKeyReveal(owner)",
    "PrivateKeyReveal(peer)",
    "EphemeralKeyReveal(sid)",
    "EphemeralKeyReveal(sid*)",
)
_ATOMS_UNMATCHED = tuple(atom for atom in _ATOMS_MATCHED if "sid*" not in atom)


def _row_plan(atoms: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Every subset of atoms in atom order, the subset of mask m at index m
    (bit i of m selects atoms[i]): the rows of one truth-table branch. Row
    m + half, for m in the first half, is row m with the last atom added."""
    return tuple(
        tuple(atom for i, atom in enumerate(atoms) if mask >> i & 1)
        for mask in range(1 << len(atoms))
    )


_ROWS_MATCHED = _row_plan(_ATOMS_MATCHED)
_ROWS_UNMATCHED = _row_plan(_ATOMS_UNMATCHED)
# the truth table's 80 rows in order: (matching session exists, queries)
TRUTH_TABLE_PLAN = tuple((True, r) for r in _ROWS_MATCHED) + tuple((False, r) for r in _ROWS_UNMATCHED)


def truth_table_verdicts(
    seed: int = 0, variant: Variant = Variant.HARDENED, q: int = DEFAULT_Q
) -> list[FreshnessVerdict]:
    """The verdict of each row of TRUTH_TABLE_PLAN, in plan order, all
    taken on one world. The honest exchange gives sid and its match sid*.
    A second alice session, fed bob's element squared, is the unmatched
    sid: bob's element is never the identity, so its square is neither
    the identity nor bob's element, no session saw that transcript, and
    the session can never match.

    Each branch is walked in pairs: row m of the first half and row
    m + half, which holds the same queries plus the branch's last atom.
    For each pair the query log is cleared once, row m's queries are
    issued for real through the public reveal methods and its verdict is
    taken, then the last atom is issued on top and the verdict of row
    m + half is taken. At every verdict the log holds exactly that row's
    queries in atom order, so each verdict is the one a world built
    afresh for the row would give, since reveals draw nothing from the
    RNG and sessions the log does not name take no part in a verdict."""
    world = two_party_world(seed, variant, q)
    h_sid, h_star = run_honest_exchange(world, "alice", "bob")
    h_lone, _ = world.activate("alice", "bob", _INITIATOR)
    world.deliver(h_lone, world.session(h_star).r_out ** 2)
    verdicts: list[FreshnessVerdict] = []
    for sid, star, plan in ((h_sid, h_star, _ROWS_MATCHED), (h_lone, None, _ROWS_UNMATCHED)):
        reveals = {
            "SessionKeyReveal(sid)": (world.key_reveal, sid),
            "SessionKeyReveal(sid*)": (world.key_reveal, star),
            "PrivateKeyReveal(owner)": (world.private_reveal, "alice"),
            "PrivateKeyReveal(peer)": (world.private_reveal, "bob"),
            "EphemeralKeyReveal(sid)": (world.eph_reveal, sid),
            "EphemeralKeyReveal(sid*)": (world.eph_reveal, star),
        }
        half = len(plan) // 2
        last_query, last_argument = reveals[plan[-1][-1]]
        branch: list = [None] * len(plan)
        for m in range(half):
            world._clear_queries()
            for atom in plan[m]:
                query, argument = reveals[atom]
                query(argument)
            branch[m] = world.is_fresh(sid)
            last_query(last_argument)
            branch[m + half] = world.is_fresh(sid)
        verdicts += branch
    return verdicts


def freshness_truth_table(
    seed: int = 0, variant: Variant = Variant.HARDENED, q: int = DEFAULT_Q
) -> list[dict]:
    """Exhaustive freshness enumeration over one real world: a row per
    subset of each branch's reveal queries, 2^6 with a matching session
    and 2^4 without, 80 in TRUTH_TABLE_PLAN order, judged by
    `truth_table_verdicts`. Its unmatched sid is fed bob's element
    squared, which no session sent, so it cannot match."""
    verdicts = truth_table_verdicts(seed, variant, q)
    return [
        {
            "matching_session_exists": matched,
            "queries": list(queries),
            "fresh": verdict.fresh,
            "violated_clause": verdict.violated_clause,
        }
        for (matched, queries), verdict in zip(TRUTH_TABLE_PLAN, verdicts)
    ]

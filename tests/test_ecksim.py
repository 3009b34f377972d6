"""Adversarial world: queries, delivery, freshness, and the game."""

import dataclasses
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idak import (
    FreshnessVerdict,
    GroupParams,
    Outcome,
    QueryKind,
    QueryRecord,
    Role,
    Variant,
    World,
    complete_session,
    dlog,
    freshness_truth_table,
    pair,
    run_honest_exchange,
    run_key_reveal_violator,
    run_random_guess_adversary,
    start_session,
)
from idak import attacks, ecksim, group, oracles, protocol
from idak.errors import (
    CapabilityError,
    EmptyIdentityError,
    IdakError,
    ParameterError,
    QueryError,
    SessionStateError,
)

from conftest import atoms_by_point, reference_freshness, reference_identity_exponent


def make_world(seed=0, variant=Variant.HARDENED, q=1_000_003):
    world = World(seed, variant, q)
    world.add_party("alice")
    world.add_party("bob")
    return world


def test_faithful_delivery_agrees():
    for seed in range(100):
        world = make_world(seed)
        h_init, h_resp = run_honest_exchange(world, "alice", "bob")
        assert world.session(h_init).r_in is not None
        assert world.matching_session(h_init) == h_resp
        assert world.key_reveal(h_init) == world.key_reveal(h_resp)


def test_deliver_returns_nothing():
    world = make_world()
    h_init, r_init = world.activate("alice", "bob", Role.INITIATOR)
    h_resp, r_resp = world.activate("bob", "alice", Role.RESPONDER)
    assert world.deliver(h_resp, r_init) is None
    assert world.deliver(h_init, r_resp) is None


def test_substituted_delivery_breaks_agreement():
    world = make_world(3)
    h_init, r_init = world.activate("alice", "bob", Role.INITIATOR)
    h_resp, r_resp = world.activate("bob", "alice", Role.RESPONDER)
    world.deliver(h_resp, r_init)
    world.deliver(h_init, r_resp * world.params.g)  # adversary tampers
    assert world.session(h_init).r_in is not None
    assert world.key_reveal(h_init) != world.key_reveal(h_resp)
    assert world.matching_session(h_init) is None


def test_deliver_to_accepted_session_fails():
    world = make_world()
    h_init, h_resp = run_honest_exchange(world, "alice", "bob")
    with pytest.raises(SessionStateError):
        world.deliver(h_init, world.params.g**5)


def test_unknown_handles_and_identities():
    world = make_world()
    with pytest.raises(QueryError):
        world.eph_reveal(99)
    with pytest.raises(QueryError):
        world.deliver(99, world.params.g)
    with pytest.raises(QueryError):
        world.private_reveal("mallory")
    with pytest.raises(QueryError):
        world.activate("mallory", "bob", Role.INITIATOR)


def test_wrong_typed_handles_bits_and_roles_are_rejected():
    """A bool or float equal to a handle or a bit fails at the boundary
    rather than resolving to it and reaching the query log as JSON true or
    1.0; a role given as a string fails rather than running as responder."""
    world = make_world()
    h_init, _ = run_honest_exchange(world, "alice", "bob")
    for handle in (True, 1.0):
        for query in (world.eph_reveal, world.key_reveal, world.is_fresh, world.test):
            with pytest.raises(QueryError):
                query(handle)
    world.test(h_init)
    for bit in (True, False, 1.0, 0.0):
        with pytest.raises(QueryError):
            world.guess(bit)
    assert [record.to_json() for record in world.log] == [{"query": "Test", "session": h_init}]
    with pytest.raises(ParameterError):
        world.activate("alice", "bob", "initiator")


def test_eph_reveal_returns_the_scalar():
    world = make_world(5)
    h_init, r_init = world.activate("alice", "bob", Role.INITIATOR)
    x = world.eph_reveal(h_init)
    assert dlog(r_init) == dlog(world.private_reveal("alice").public_key) * x % world.params.q


def test_private_reveal_returns_long_term_material():
    world = make_world(5)
    keys = world.private_reveal("bob")
    g = world.params.g
    alpha = dlog(keys.private_key) * pow(dlog(keys.public_key), -1, world.params.q)
    assert pair(keys.private_key, g) == pair(keys.public_key, g) ** alpha


def test_key_reveal_requires_acceptance():
    world = make_world()
    h_init, _ = world.activate("alice", "bob", Role.INITIATOR)
    with pytest.raises(SessionStateError):
        world.key_reveal(h_init)


def test_adv_extract_enables_injection():
    """After extracting eve, the adversary can have bob accept a session
    it fully controls."""
    world = make_world(8)
    eve = world.adv_extract("eve")
    t = 12345
    h_resp, r_resp = world.activate("bob", "eve", Role.RESPONDER)
    world.deliver(h_resp, eve.public_key**t)
    assert world.session(h_resp).r_in is not None
    assert world.session(h_resp).peer == "eve"


def test_adv_extract_rejects_registered_parties():
    world = make_world()
    with pytest.raises(QueryError):
        world.adv_extract("alice")


def test_matching_session_on_active_session_fails():
    world = make_world()
    handle, _ = world.activate("alice", "bob", Role.INITIATOR)
    with pytest.raises(SessionStateError):
        world.matching_session(handle)


def test_is_fresh_on_unaccepted_session_fails():
    world = make_world()
    h_init, _ = world.activate("alice", "bob", Role.INITIATOR)
    with pytest.raises(SessionStateError):
        world.is_fresh(h_init)


def test_empty_log_is_fresh():
    world = make_world()
    h_init, _ = run_honest_exchange(world, "alice", "bob")
    verdict = world.is_fresh(h_init)
    assert verdict.fresh and verdict.violated_clause is None


def test_crosswise_reveals_stay_fresh():
    """Owner corruption plus the matching session's ephemeral is the
    allowed crosswise combination."""
    world = make_world()
    h_init, h_resp = run_honest_exchange(world, "alice", "bob")
    world.private_reveal("alice")
    world.eph_reveal(h_resp)
    assert world.is_fresh(h_init).fresh


def test_peer_corruption_alone_kills_unmatched_sessions():
    world = make_world()
    h_init, r_init = world.activate("alice", "bob", Role.INITIATOR)
    h_resp, r_resp = world.activate("bob", "alice", Role.RESPONDER)
    world.deliver(h_init, r_resp * world.params.g)
    world.deliver(h_resp, r_init)
    world.private_reveal("bob")
    verdict = world.is_fresh(h_init)
    assert not verdict.fresh and verdict.violated_clause == "3b"


def assert_rows_match_reference(rows, q=group.DEFAULT_Q):
    for row in rows:
        fresh, clause = reference_freshness(
            row["matching_session_exists"], atoms_by_point(row["queries"], q)
        )
        assert row["fresh"] == fresh, row
        assert row["violated_clause"] == clause, row


def test_truth_table_matches_reference():
    """Implementation freshness equals the clause-by-clause reference on
    all 80 enumerated worlds."""
    rows = freshness_truth_table()
    assert len(rows) == 80
    matched_rows = [r for r in rows if r["matching_session_exists"]]
    unmatched_rows = [r for r in rows if not r["matching_session_exists"]]
    assert len(matched_rows) == 64 and len(unmatched_rows) == 16
    assert_rows_match_reference(rows)


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.HARDENED])
@pytest.mark.parametrize("q,seed", [(5, 1), (7, 5), (11, 1), (13, 12)])
def test_truth_table_on_small_groups(q, seed, variant):
    """In these worlds bob's element has exponent q-1, so a tampered
    response of r_other * g would be the identity element and rejected;
    the table must still build all 80 rows and match the reference. At
    q = 5, 7 and 13 alice and bob share one identity point, so the
    reference maps the long-term reveals by point."""
    twins = reference_identity_exponent("alice", q) == reference_identity_exponent("bob", q)
    assert twins == (q != 11)
    rows = freshness_truth_table(seed, variant, q)
    assert len(rows) == 80
    assert_rows_match_reference(rows, q)


def truth_table_world_per_row(seed, variant, q):
    """The enumeration built the slow way: a new world, exchange included,
    for every row, with the row's reveals issued on its empty log."""
    rows = []
    for matched in (True, False):
        atoms = ecksim._ATOMS_MATCHED if matched else ecksim._ATOMS_UNMATCHED
        for mask in range(1 << len(atoms)):
            chosen = [atom for i, atom in enumerate(atoms) if mask >> i & 1]
            world = ecksim.two_party_world(seed, variant, q)
            if matched:
                h_sid, h_star = run_honest_exchange(world, "alice", "bob")
            else:
                h_sid, r_sid = world.activate("alice", "bob", Role.INITIATOR)
                h_other, r_other = world.activate("bob", "alice", Role.RESPONDER)
                world.deliver(h_sid, r_other**2)
                world.deliver(h_other, r_sid)
                h_star = None
            for atom in chosen:
                if atom == "SessionKeyReveal(sid)":
                    world.key_reveal(h_sid)
                elif atom == "SessionKeyReveal(sid*)":
                    world.key_reveal(h_star)
                elif atom == "PrivateKeyReveal(owner)":
                    world.private_reveal("alice")
                elif atom == "PrivateKeyReveal(peer)":
                    world.private_reveal("bob")
                elif atom == "EphemeralKeyReveal(sid)":
                    world.eph_reveal(h_sid)
                elif atom == "EphemeralKeyReveal(sid*)":
                    world.eph_reveal(h_star)
            verdict = world.is_fresh(h_sid)
            rows.append(
                {
                    "matching_session_exists": matched,
                    "queries": chosen,
                    "fresh": verdict.fresh,
                    "violated_clause": verdict.violated_clause,
                }
            )
    return rows


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.HARDENED])
@pytest.mark.parametrize("q", [5, 7, 11, 13, 1_000_003])
@pytest.mark.parametrize("seed", [0, 1, 5, 12])
def test_truth_table_equals_a_world_per_row(seed, q, variant):
    """Reusing one world per branch gives the rows, verdicts and order of
    building a fresh world for every row."""
    assert freshness_truth_table(seed, variant, q) == truth_table_world_per_row(seed, variant, q)


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.HARDENED])
@pytest.mark.parametrize("q", [5, 7, 13, 101])
def test_lone_session_never_matches(monkeypatch, q, variant):
    """The unmatched branch's sid, an alice session fed bob's element
    squared, has no matching session on any of 200 seeds, also at the
    orders where alice and bob share an identity point (5, 7, 13), and
    every unmatched row is the reference verdict."""
    judged = []
    real_is_fresh = World.is_fresh

    def recording_is_fresh(world, handle):
        judged.append((world, handle))
        return real_is_fresh(world, handle)

    monkeypatch.setattr(World, "is_fresh", recording_is_fresh)
    for seed in range(200):
        judged.clear()
        rows = freshness_truth_table(seed, variant, q)
        # the matched branch takes the first 64 verdicts, the unmatched the last 16
        assert {handle for _, handle in judged[64:]} == {3}
        world, lone = judged[64]
        assert world.matching_session(lone) is None
        assert world.matching_session(judged[0][1]) == 2
        for row in rows[64:]:
            assert row["matching_session_exists"] is False
            assert (row["fresh"], row["violated_clause"]) == reference_freshness(
                False, atoms_by_point(row["queries"], q)
            ), (seed, row)


def test_cleared_queries_leave_no_trace():
    """After _clear_queries the log is empty and a verdict depends only on
    the queries issued since."""
    world = make_world()
    h_init, h_resp = run_honest_exchange(world, "alice", "bob")
    world.key_reveal(h_resp)
    world.private_reveal("alice")
    world.eph_reveal(h_init)
    world.adv_extract("eve")
    assert world.is_fresh(h_init) == FreshnessVerdict(False, "1")
    world._clear_queries()
    assert world.log == []
    assert world.is_fresh(h_init) == FreshnessVerdict(True)
    world.private_reveal("bob")
    assert [record.to_json() for record in world.log] == [
        {"query": "PrivateKeyReveal", "identity": "bob"}
    ]
    assert world.is_fresh(h_init) == FreshnessVerdict(True)
    world.eph_reveal(h_init)
    assert world.is_fresh(h_init) == FreshnessVerdict(True)
    world.private_reveal("alice")
    assert world.is_fresh(h_init) == FreshnessVerdict(False, "2a")


def test_read_path_hashes_no_query_kind(monkeypatch):
    """Reveals and freshness reads index plain handles and names: on a world
    of 20 honest exchanges, 21 reveals and 40 is_fresh calls hash no
    QueryKind. Equal verdicts are one shared, frozen object."""
    world = make_world()
    handles = [h for _ in range(20) for h in run_honest_exchange(world, "alice", "bob")]
    hashes = []
    real = QueryKind.__hash__
    monkeypatch.setattr(QueryKind, "__hash__", lambda kind: hashes.append(kind) or real(kind))
    for handle in handles[:10]:
        world.eph_reveal(handle)
    for handle in handles[20:30]:
        world.key_reveal(handle)
    world.private_reveal("alice")
    verdicts = [world.is_fresh(handle) for handle in handles]
    assert hashes == []
    assert [v.violated_clause for v in verdicts[:10]] == ["2a", "2b"] * 5
    assert {v.violated_clause for v in verdicts[20:30]} == {"1"}
    assert verdicts[0] is world.is_fresh(handles[0])
    assert verdicts[10] is verdicts[39] is world.is_fresh(handles[39])
    assert verdicts[10] == FreshnessVerdict(True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        verdicts[10].fresh = False


def test_reveal_indexes_route_by_kind():
    """Each reveal enters the index its clauses read, and only that one:
    checked by verdicts on one matched and one unmatched world."""
    world = make_world()
    h_sid, h_star = run_honest_exchange(world, "alice", "bob")

    # eph, key and private reveals, then a cleared log: fresh again
    world.eph_reveal(h_sid)
    world.key_reveal(h_star)
    world.private_reveal("alice")
    world.private_reveal("bob")
    assert world.is_fresh(h_sid) == FreshnessVerdict(False, "1")
    world._clear_queries()
    assert world.is_fresh(h_sid) == FreshnessVerdict(True)
    assert world.is_fresh(h_star) == FreshnessVerdict(True)

    # ephemeral reveals of both sides never reach clause 1
    world.eph_reveal(h_sid)
    world.eph_reveal(h_star)
    assert world.is_fresh(h_sid) == FreshnessVerdict(True)
    world.private_reveal("alice")
    assert world.is_fresh(h_sid) == FreshnessVerdict(False, "2a")
    assert world.is_fresh(h_star) == FreshnessVerdict(False, "2b")
    world._clear_queries()

    # a key reveal never reaches 2a or 2b, with both parties corrupted
    world.private_reveal("alice")
    world.private_reveal("bob")
    world.key_reveal(h_star)
    assert world.is_fresh(h_sid) == FreshnessVerdict(False, "1")
    assert world.is_fresh(h_star) == FreshnessVerdict(False, "1")
    world._clear_queries()

    # Test and Guess name a session but enter neither reveal index: with
    # both parties corrupted, an entry would read as 1, 2a or 2b
    world.test(h_sid)
    world.guess(0)
    world.private_reveal("alice")
    world.private_reveal("bob")
    assert [record.kind for record in world.log] == [
        QueryKind.TEST,
        QueryKind.GUESS,
        QueryKind.PRIVATE_KEY_REVEAL,
        QueryKind.PRIVATE_KEY_REVEAL,
    ]
    assert world.is_fresh(h_sid) == FreshnessVerdict(True)
    assert world.is_fresh(h_star) == FreshnessVerdict(True)

    # no matching session: a key reveal never reaches 3a
    world = make_world()
    h_sid, _ = world.activate("alice", "bob", Role.INITIATOR)
    _, r_other = world.activate("bob", "alice", Role.RESPONDER)
    world.deliver(h_sid, r_other**2)
    world.private_reveal("alice")
    world.key_reveal(h_sid)
    assert world.is_fresh(h_sid) == FreshnessVerdict(False, "1")
    world._clear_queries()
    world.private_reveal("alice")
    world.eph_reveal(h_sid)
    assert world.is_fresh(h_sid) == FreshnessVerdict(False, "3a")


# delivery orders of the two duplicates and h_init: "first" is the earlier
# created duplicate, "second" the later one
_TIEBREAK_ORDERS = {
    "in-order": ("first", "second", "init"),
    "later-first": ("second", "first", "init"),
    "init-first-in-order": ("init", "first", "second"),
    "init-first-later-first": ("init", "second", "first"),
    "init-between-in-order": ("first", "init", "second"),
    "init-between-later-first": ("second", "init", "first"),
}


@pytest.mark.parametrize("order", _TIEBREAK_ORDERS.values(), ids=_TIEBREAK_ORDERS.keys())
def test_matching_tiebreak_on_replayed_transcripts(order):
    """At q=101 ephemeral collisions are easy to farm: when two accepted
    sessions share a transcript, the first in creation order wins, also
    when the later-created duplicate accepts first, and whether h_init
    accepts before both duplicates, between them or after them. Both
    duplicates match h_init, and every answer agrees with a scan."""
    world = World(1, Variant.HARDENED, 101)
    world.add_party("alice")
    world.add_party("bob")
    h_init, r_init = world.activate("alice", "bob", Role.INITIATOR)
    seen = {}
    duplicate = None
    for _ in range(200):
        handle, r_out = world.activate("bob", "alice", Role.RESPONDER)
        if r_out in seen:
            duplicate = (seen[r_out], handle)
            break
        seen[r_out] = handle
    assert duplicate is not None
    first, second = duplicate
    handles = {"first": first, "second": second, "init": h_init}
    for name in order:
        if name == "init":
            world.deliver(h_init, world.session(first).r_out)
        else:
            world.deliver(handles[name], r_init)
        for handle in handles.values():
            if world.session(handle).r_in is not None:
                star = scan_matching_session(world, handle, second)
                assert world.matching_session(handle) == star
    assert world.matching_session(h_init) == first
    assert world.matching_session(first) == world.matching_session(second) == h_init


def test_game_mechanics_and_query_discipline():
    world = make_world(6)
    h_init, _ = run_honest_exchange(world, "alice", "bob")
    with pytest.raises(QueryError):
        world.guess(0)  # guess before test
    answer = world.test(h_init)
    assert len(answer) == 32
    with pytest.raises(QueryError):
        world.test(h_init)  # second test
    with pytest.raises(QueryError):
        world.guess(2)
    outcome = world.guess(0)
    assert outcome in (Outcome.WIN, Outcome.LOSE)
    with pytest.raises(QueryError):
        world.guess(0)  # second guess


def test_test_answer_is_real_or_random():
    """With bit 0 the answer is the session key; with bit 1 it is not."""
    seen = set()
    for seed in range(50):
        world = make_world(seed)
        h_init, _ = run_honest_exchange(world, "alice", "bob")
        real = world.session(h_init).key
        answer = world.test(h_init)
        bit = world._test_bit
        seen.add(bit)
        assert (answer == real) == (bit == 0)
    assert seen == {0, 1}


def test_test_requires_accepted_session():
    world = make_world()
    h_init, _ = world.activate("alice", "bob", Role.INITIATOR)
    with pytest.raises(SessionStateError):
        world.test(h_init)


def test_guess_time_freshness_rules():
    """Revealing the test session key after the test query invalidates
    the experiment even on a correct bit."""
    for seed in range(20):
        report = run_key_reveal_violator(Variant.HARDENED, seed)
        assert report["verdict"] == "invalid"
        assert report["freshness"] == {"fresh": False, "violated_clause": "1"}


def test_experiment_determinism():
    r1 = run_random_guess_adversary(Variant.HARDENED, 42)
    r2 = run_random_guess_adversary(Variant.HARDENED, 42)
    assert r1 == r2
    assert r1["adversary"] == "random-guess"
    assert r1["verdict"] in ("win", "lose")


def test_random_guess_win_rate_rough():
    wins = sum(
        run_random_guess_adversary(Variant.HARDENED, seed)["verdict"] == "win"
        for seed in range(500)
    )
    assert 0.40 <= wins / 500 <= 0.60


def test_world_determinism_full_log():
    def script(seed):
        world = make_world(seed)
        h_init, h_resp = run_honest_exchange(world, "alice", "bob")
        world.eph_reveal(h_init)
        world.private_reveal("bob")
        world.test(h_resp)
        world.guess(1)
        return world.experiment_report("scripted")

    assert script(11) == script(11)
    assert script(11) != script(12)


def test_report_shape():
    world = make_world(2)
    h_init, _ = run_honest_exchange(world, "alice", "bob")
    world.test(h_init)
    world.guess(0)
    report = world.experiment_report("shape-check")
    assert set(report) == {
        "seed",
        "variant",
        "adversary",
        "query_log",
        "test_session",
        "hidden_bit",
        "guess",
        "verdict",
        "freshness",
    }
    assert report["query_log"][0] == {"query": "Test", "session": h_init}
    assert report["test_session"]["owner"] == "alice"
    assert report["test_session"]["role"] == "initiator"


def eve_peer_adversary(variant, seed):
    """Bob opens a session to eve, an identity the adversary registered;
    the adversary plays eve's side with eve's key, so it knows bob's key
    and always names the hidden bit. Bob's peer is corrupted, so the
    experiment must be invalid rather than a win."""
    world = make_world(seed, variant)
    eve = world.adv_extract("eve")
    e_sess, r_e = start_session(eve, "bob", Role.INITIATOR, variant, random.Random(seed))
    h_bob, r_bob = world.activate("bob", "eve", Role.RESPONDER)
    world.deliver(h_bob, r_e)
    complete_session(e_sess, r_bob)
    answer = world.test(h_bob)
    world.guess(0 if answer == e_sess.key else 1)
    return world.experiment_report("eve-peer")


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.HARDENED])
def test_adversary_registered_peer_is_never_fresh(variant):
    for seed in range(200):
        report = eve_peer_adversary(variant, seed)
        assert report["verdict"] == Outcome.INVALID.value
        assert report["freshness"]["violated_clause"] in ("2b", "3b")
        assert report["hidden_bit"] == report["guess"]


def role_swap_adversary(variant, seed):
    """Key replication by role confusion: alice opens a session to bob and
    bob one to alice, both as initiator, and each is handed the other's
    element. Both accept, and neither matches the other, since a match
    needs complementary roles. The adversary reveals bob's key, tests
    alice's session, which stays fresh, and guesses that the answer is
    real exactly when it equals bob's key."""
    world = make_world(seed, variant)
    h_alice, r_alice = world.activate("alice", "bob", Role.INITIATOR)
    h_bob, r_bob = world.activate("bob", "alice", Role.INITIATOR)
    world.deliver(h_alice, r_bob)
    world.deliver(h_bob, r_alice)
    for handle in (h_alice, h_bob):
        assert world.session(handle).r_in is not None
        assert world.matching_session(handle) is None
    revealed = world.key_reveal(h_bob)
    answer = world.test(h_alice)
    return world.guess(0 if answer == revealed else 1)


def test_role_swap_replicates_only_the_original_key():
    """On the original variant both sessions hash the same message pair in
    swapped roles, so the s-values swap too, the shared values agree and
    KDF0 of the shared value alone gives equal keys: the adversary wins
    every seed. The hardened KDF binds the transcript in initiator-first
    order, which differs between the two sessions, so there the adversary
    only guesses (about 4 standard deviations either side of one half)."""
    outcomes = [role_swap_adversary(Variant.ORIGINAL, seed) for seed in range(1000)]
    assert outcomes == [Outcome.WIN] * 1000
    wins = sum(role_swap_adversary(Variant.HARDENED, seed) is Outcome.WIN for seed in range(1000))
    assert 437 <= wins <= 563, wins


# repeated kinds weight the draw toward completed, revealed and tested sessions
_KINDS = (
    ("activate",) * 2
    + ("deliver",) * 3
    + ("eph_reveal", "private_reveal") * 3
    + ("test", "guess") * 2
    + ("key_reveal", "adv_extract", "is_fresh", "matching_session", "eve_peer")
)
_NAMES = ("alice", "bob", "eve", "")
# every query draws all arguments and its kind reads the ones it takes; a
# handle k >= 0 names the (k mod n)-th of the n sessions opened, -1 none
_queries = st.tuples(
    st.sampled_from(_KINDS),
    st.integers(-1, 15),
    st.sampled_from(_NAMES),
    st.sampled_from(_NAMES),
    st.sampled_from(Role),
    st.sampled_from(("honest", "G", "identity", "foreign", "GT", "none")),
    st.integers(-1, 200),
)


def _element(world, outgoing, kind, k):
    """The element a deliver query hands over: an honest outgoing element,
    a power of g, the identity, an element of another group or of GT, or None."""
    if kind == "honest":
        return outgoing[k % len(outgoing)]
    if kind == "G":
        return world.params.g**k
    if kind == "identity":
        return world.params.g**0
    if kind == "foreign":
        return GroupParams(7 if world.params.q == 5 else 5).g ** k
    if kind == "GT":
        return world.params.gt**k
    return None


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from((5, 101)),
    seed=st.integers(0, 1 << 16),
    variant=st.sampled_from(Variant),
    queries=st.lists(_queries, min_size=8, max_size=20),
)
def test_fuzzed_query_sequences(q, seed, variant, queries):
    """Any query sequence fails only with IdakError, and guess is invalid
    exactly when the test session is not fresh. Each world starts with one
    honest exchange, so test and guess have an accepted session to use. An
    eve_peer draw accepts a session of bob's with peer eve and then extracts
    eve, so the sequence holds a session whose peer the adversary owns."""
    world = make_world(seed, variant, q)
    outgoing = [world.session(h).r_out for h in run_honest_exchange(world, "alice", "bob")]
    test_handle = None
    for kind, k, name, peer, role, element, e in queries:
        handle = 1 + k % len(outgoing) if k >= 0 else 0
        try:
            if kind == "activate":
                outgoing.append(world.activate(name, peer, role)[1])
            elif kind == "deliver":
                world.deliver(handle, _element(world, outgoing, element, e))
            elif kind in ("private_reveal", "adv_extract"):
                getattr(world, kind)(name)
            elif kind == "eve_peer":
                eve_handle, r_out = world.activate("bob", "eve", role)
                outgoing.append(r_out)
                world.deliver(eve_handle, world.params.g ** (1 + e % (q - 1)))
                world.adv_extract("eve")
            elif kind == "guess":
                outcome = world.guess(e % 3)
                assert (outcome is Outcome.INVALID) == (not world.is_fresh(test_handle).fresh)
            else:
                getattr(world, kind)(handle)
                if kind == "test":
                    test_handle = handle
        except IdakError:
            pass
    world.experiment_report("fuzz")
    for handle in range(1, len(outgoing) + 1):
        if world.session(handle).r_in is not None:
            star = scan_matching_session(world, handle, len(outgoing))
            assert world.matching_session(handle) == star
            fresh, clause = reference_freshness(star is not None, log_atoms(world, handle, star))
            assert world.is_fresh(handle) == FreshnessVerdict(fresh, clause)


def scan_matching_session(world, handle, count):
    """Reference for matching_session: scan the count sessions in creation
    order for the first accepted one that matches crosswise, comparing raw
    session fields rather than session ids: owner and peer swapped, the
    other role, and each one's outgoing element the other's incoming one."""
    own = world.session(handle)
    for other in range(1, count + 1):
        session = world.session(other)
        if (
            other != handle
            and session.r_in is not None
            and (session.owner, session.peer) == (own.peer, own.owner)
            and session.role is not own.role
            and (session.r_out, session.r_in) == (own.r_in, own.r_out)
        ):
            return other
    return None


def log_atoms(world, handle, star):
    """The freshness atoms of session handle, read by scanning the query log;
    an Extract record corrupts its identity as a PrivateKeyReveal does, and
    a record corrupts every identity with the same point (H1G exponent)."""
    session = world.session(handle)
    q = world.params.q

    def revealed(kind, target):
        return target is not None and any(r.kind is kind and r.session == target for r in world.log)

    def corrupted(identity):
        point = reference_identity_exponent(identity, q)
        return any(
            r.kind in (QueryKind.PRIVATE_KEY_REVEAL, QueryKind.EXTRACT)
            and reference_identity_exponent(r.identity, q) == point
            for r in world.log
        )

    atoms = {
        "SessionKeyReveal(sid)": revealed(QueryKind.SESSION_KEY_REVEAL, handle),
        "SessionKeyReveal(sid*)": revealed(QueryKind.SESSION_KEY_REVEAL, star),
        "PrivateKeyReveal(owner)": corrupted(session.owner),
        "PrivateKeyReveal(peer)": corrupted(session.peer),
        "EphemeralKeyReveal(sid)": revealed(QueryKind.EPHEMERAL_KEY_REVEAL, handle),
        "EphemeralKeyReveal(sid*)": revealed(QueryKind.EPHEMERAL_KEY_REVEAL, star),
    }
    return {atom for atom, holds in atoms.items() if holds}


class _NoScan(dict):
    """A dict that answers lookups but refuses to be walked."""

    def _refuse(self, *args):
        raise AssertionError("scanned a session index")

    __iter__ = keys = values = items = _refuse


def test_is_fresh_cost_does_not_grow_with_sessions():
    """is_fresh and matching_session never walk the sessions or the match
    indexes, in a world of 10 honest exchanges and in one of 1,000. With
    every dict of the world that grows with the sessions replaced by one
    whose iteration raises, an exchange is judged on each path: fresh,
    clause 1, and clauses 2a and 2b, where the session itself is fetched;
    an active and an unknown handle still raise."""
    for exchanges in (10, 1000):
        world = make_world()
        for _ in range(exchanges):
            h_init, h_resp = run_honest_exchange(world, "alice", "bob")
        h_active, _ = world.activate("alice", "bob", Role.INITIATOR)
        for name in ("_sessions", "_cells", "_match"):
            setattr(world, name, _NoScan(getattr(world, name)))
        assert world.is_fresh(h_init) == FreshnessVerdict(True)
        assert world.matching_session(h_init) == h_resp
        world.eph_reveal(h_init)
        world.private_reveal("alice")
        assert world.is_fresh(h_init) == FreshnessVerdict(False, "2a")
        assert world.is_fresh(h_resp) == FreshnessVerdict(False, "2b")
        world.key_reveal(h_resp)
        assert world.is_fresh(h_init) == FreshnessVerdict(False, "1")
        with pytest.raises(SessionStateError):
            world.is_fresh(h_active)
        with pytest.raises(QueryError):
            world.is_fresh(h_active + 1)


def test_truth_table_builds_each_branch_once(monkeypatch):
    """The 80 rows run on one world: 3 session starts (the honest
    exchange and the lone alice session) and 3 pairings, one per key the
    rows reveal (sid, sid* and the lone session), while every row still
    gets its own is_fresh verdict."""
    counts = {"pair": 0, "start_session": 0, "is_fresh": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(protocol, "pair", counting("pair", protocol.pair))
    monkeypatch.setattr(ecksim, "start_session", counting("start_session", ecksim.start_session))
    monkeypatch.setattr(World, "is_fresh", counting("is_fresh", World.is_fresh))
    assert len(freshness_truth_table()) == 80
    assert counts == {"pair": 3, "start_session": 3, "is_fresh": 80}


def test_truth_table_issues_each_rows_queries(monkeypatch):
    """One table issues 132 reveal queries (5 x 16 + 32 matched, 3 x 4 + 8
    unmatched) and clears the log 40 times, once per pair of rows m and
    m + half, all through World's methods; at each verdict, taken in the
    order m, m + half, the log lists exactly that row's queries, in atom
    order. A table that skipped a clear or a reveal would fail here."""
    counts = {"reveal": 0, "clear": 0}
    logs = []

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for method in ("eph_reveal", "key_reveal", "private_reveal"):
        monkeypatch.setattr(World, method, counting("reveal", getattr(World, method)))
    monkeypatch.setattr(World, "_clear_queries", counting("clear", World._clear_queries))
    real_is_fresh = World.is_fresh

    def logging_is_fresh(world, handle):
        # the honest exchange opens alice's sid and bob's sid*, then the
        # lone alice session is the unmatched branch's sid
        targets = {1: "sid", 2: "sid*", 3: "sid", "alice": "owner", "bob": "peer"}
        logs.append(
            [
                f"{r.kind.value}({targets[r.session if r.identity is None else r.identity]})"
                for r in world.log
            ]
        )
        return real_is_fresh(world, handle)

    monkeypatch.setattr(World, "is_fresh", logging_is_fresh)
    rows = freshness_truth_table()
    assert counts == {"reveal": 132, "clear": 40}
    evaluated = []
    for branch in (rows[:64], rows[64:]):
        half = len(branch) // 2
        for m in range(half):
            evaluated += [branch[m]["queries"], branch[m + half]["queries"]]
    assert logs == evaluated


def test_world_rejects_wrong_typed_variant_and_identities():
    """A variant that is not a Variant, or an identity that is not a str,
    fails with ParameterError before any RNG draw, handle or log record;
    empty identities keep their errors."""
    with pytest.raises(ParameterError):
        World(0, "hardened")
    world = make_world()
    state = world.rng.getstate()
    calls = [
        lambda: world.add_party(7),
        lambda: world.add_party([1]),
        lambda: world.adv_extract(9),
        lambda: world.adv_extract(b"x"),
        lambda: world.private_reveal(["a"]),
        lambda: world.activate(["a"], "bob", Role.INITIATOR),
        lambda: world.activate("alice", 5, Role.INITIATOR),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()
    assert world.rng.getstate() == state
    assert world.log == []
    assert world.activate("alice", "bob", Role.INITIATOR)[0] == 1
    for call in (
        lambda: world.add_party(""),
        lambda: world.adv_extract(""),
        lambda: world.activate("alice", "", Role.INITIATOR),
    ):
        with pytest.raises(EmptyIdentityError):
            call()


def test_world_rejects_identities_utf8_cannot_encode():
    """A lone surrogate is a str with no UTF-8 form. Registering it,
    extracting it or naming it as a peer fails with ParameterError before
    any RNG draw, handle or log record. add_party used to raise
    UnicodeEncodeError, and activate used to open a session that accepted
    and then raised on is_fresh and on its key read."""
    world = make_world()
    state = world.rng.getstate()
    for call in (
        lambda: world.add_party("\ud800"),
        lambda: world.adv_extract("\ud800"),
        lambda: world.activate("alice", "\ud800", Role.INITIATOR),
        lambda: world.activate("bob", "eve\udfff", Role.RESPONDER),
    ):
        with pytest.raises(ParameterError):
            call()
    assert world.rng.getstate() == state
    assert (world.log, world._sessions) == ([], {})
    assert world.activate("alice", "bob", Role.INITIATOR)[0] == 1


def test_query_record_is_an_immutable_tuple():
    record = QueryRecord(QueryKind.SESSION_KEY_REVEAL, session=3)
    assert (record.identity, record.bit) == (None, None)
    with pytest.raises(AttributeError):
        record.session = 4
    assert record.to_json() == {"query": "SessionKeyReveal", "session": 3}
    assert QueryRecord(QueryKind.GUESS, bit=0).to_json() == {"query": "Guess", "bit": 0}


def no_rng(seed):
    raise AssertionError("an RNG was built")


@pytest.mark.parametrize("seed", [None, "1", 1.0, True])
def test_world_rejects_a_seed_that_is_not_an_int(monkeypatch, seed):
    """random.Random(None) seeds from OS entropy, so two runs of one script
    used to differ while both reported "seed": null; a str, float or bool
    seed is refused too, before any RNG is built."""
    monkeypatch.setattr(ecksim, "random", types.SimpleNamespace(Random=no_rng))
    with pytest.raises(ParameterError):
        World(seed)
    with pytest.raises(ParameterError):
        run_random_guess_adversary(Variant.HARDENED, seed)


@pytest.mark.parametrize("gate", ["no", 0, 1, None])
def test_world_master_key_gate_must_be_a_bool(monkeypatch, gate):
    """A truthy non-bool gate such as "no" used to open the master-key
    reveal; any gate that is not a bool is refused before any RNG is built,
    and the bool False keeps the gate shut."""
    with monkeypatch.context() as patched:
        patched.setattr(ecksim, "random", types.SimpleNamespace(Random=no_rng))
        with pytest.raises(ParameterError):
            World(0, master_key_reveal=gate)
    with pytest.raises(CapabilityError):
        World(0, master_key_reveal=False).kgc.reveal_master_key()


def test_second_world_skips_order_validation(monkeypatch):
    """Only the first World at an order runs the primality test."""
    monkeypatch.setattr(group, "_validated_orders", set())
    real = group.is_prime
    calls = []
    monkeypatch.setattr(group, "is_prime", lambda n: calls.append(n) or real(n))
    World(0, q=1009)
    assert calls == [1009]
    World(1, q=1009)
    World(2, Variant.ORIGINAL, q=1009)
    assert calls == [1009]


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.HARDENED])
def test_honest_exchange_hashes_no_identity(monkeypatch, variant):
    """An honest exchange accepts on both sides without hashing or pairing.
    Once the parties' identity points are known, reading both keys runs
    sha256 six times (two scalars and one key per side) and pairs twice;
    a second read runs nothing."""
    world = make_world(variant=variant)
    run_honest_exchange(world, "alice", "bob")
    real_digest, real_pair = oracles._digest, protocol.pair
    digests, pairings = [], []
    monkeypatch.setattr(oracles, "_digest", lambda data: digests.append(data) or real_digest(data))
    monkeypatch.setattr(protocol, "pair", lambda a, b: pairings.append(1) or real_pair(a, b))
    handles = run_honest_exchange(world, "alice", "bob")
    assert (len(digests), len(pairings)) == (0, 0)
    keys = [world.session(handle).key for handle in handles]
    assert (len(digests), len(pairings)) == (6, 2)
    assert not any(data.startswith(b"H1G") for data in digests)
    assert [world.session(handle).key for handle in handles] == keys
    assert (len(digests), len(pairings)) == (6, 2)


@pytest.mark.parametrize("variant", [Variant.ORIGINAL, Variant.HARDENED])
@pytest.mark.parametrize("first", [Role.INITIATOR, Role.RESPONDER])
def test_each_key_read_hashes_three_times_and_pairs_once(monkeypatch, variant, first):
    """With the identity memo warm, every single key read runs sha256
    three times (two s-values, one KDF), encodes three elements (the two
    transcript elements and the shared value), pairs once and hashes no
    identity: the initiator's or the responder's key read first, a
    tampered session that has no match, and one attacks._transcript_key
    call alike. A second read runs nothing."""
    world = ecksim.two_party_world(0, variant, master_key_reveal=True)
    h_init, h_resp = run_honest_exchange(world, "alice", "bob")
    h_tampered, _ = world.activate("alice", "bob", Role.INITIATOR)
    world.deliver(h_tampered, world.params.g**12345)
    alpha = world.kgc.reveal_master_key()
    init = world.session(h_init)
    d_bob, r_resp_alpha = oracles.hash_to_group(world.params, "bob") ** alpha, init.r_in**alpha
    real_digest, real_pair, real_to_bytes = oracles._digest, protocol.pair, group._Elem.to_bytes
    digests, pairings, encodings = [], [], []
    monkeypatch.setattr(oracles, "_digest", lambda data: digests.append(data) or real_digest(data))

    def counted_pair(a, b):
        pairings.append(1)
        return real_pair(a, b)

    def counted_to_bytes(elem):
        encodings.append(1)
        return real_to_bytes(elem)

    def transcript_key():
        return attacks._transcript_key(world, init.r_out, init.r_in, d_bob, r_resp_alpha)

    def costs(read):
        digests.clear()
        pairings.clear()
        encodings.clear()
        read()
        assert not any(data.startswith(b"H1G") for data in digests)
        return len(digests), len(pairings), len(encodings)

    monkeypatch.setattr(protocol, "pair", counted_pair)
    monkeypatch.setattr(attacks, "pair", counted_pair)
    monkeypatch.setattr(group._Elem, "to_bytes", counted_to_bytes)
    order = [h_init, h_resp] if first is Role.INITIATOR else [h_resp, h_init]
    for handle in order + [h_tampered]:
        assert costs(lambda: world.session(handle).key) == (3, 1, 3)
        assert costs(lambda: world.session(handle).key) == (0, 0, 0)
    assert world.session(h_tampered).key != world.session(h_init).key
    assert costs(transcript_key) == (3, 1, 3)
    assert transcript_key() == init.key


# an identity whose H1G exponent at the default q equals alice's, found by
# a search over "eve<n>" (about 4 s); pinned so the suite checks one hash
TWIN_OF_ALICE = "eve1704157"


def test_twin_identity_shares_alices_exponent():
    exponent = oracles._identity_exponent
    assert exponent(TWIN_OF_ALICE, group.DEFAULT_Q) == exponent("alice", group.DEFAULT_Q) == 185305


def twin_key_adversary(variant, seed):
    """Extract alice's twin, which hands over alice's private key, reveal
    her ephemeral, and rebuild her session key from public calls, no dlog."""
    world = make_world(seed, variant)
    h_init, r_init = world.activate("alice", "bob", Role.INITIATOR)
    h_resp, r_resp = world.activate("bob", "alice", Role.RESPONDER)
    world.deliver(h_resp, r_init)
    world.deliver(h_init, r_resp)
    twin = world.adv_extract(TWIN_OF_ALICE)
    x = world.eph_reveal(h_init)
    bound = variant is Variant.HARDENED
    s_init, s_resp, kdf_input = oracles.session_hashes(bound, "alice", "bob", r_init, r_resp)
    peer_term = oracles.hash_to_group(world.params, "bob") ** s_resp * r_resp
    shared = pair(peer_term, twin.private_key ** (x + s_init))
    key = oracles.derive_key(kdf_input, shared)
    answer = world.test(h_init)
    return world.guess(0 if answer == key else 1)


def test_twin_key_adversary_is_invalid():
    """alice's twin holds her private key, so with her ephemeral revealed
    her session is not fresh (clause 2a): corruption follows the identity
    point, not the name, and the adversary's correct guess is invalid."""
    outcomes = [twin_key_adversary(variant, seed) for variant in Variant for seed in range(20)]
    assert outcomes == [Outcome.INVALID] * 40


class RecordingRandom(random.Random):
    """A Random subclass that overrides randrange and records every call."""

    def randrange(self, *args):
        value = super().randrange(*args)
        self.draws.append((args, value))
        return value


def recording_rngs(monkeypatch) -> list[RecordingRandom]:
    """Install RecordingRandom as the RNG every World builds; returns the
    RNGs built, in order."""
    built = []

    def build(seed):
        rng = RecordingRandom(seed)
        rng.draws = []
        built.append(rng)
        return rng

    monkeypatch.setattr(ecksim, "random", types.SimpleNamespace(Random=build))
    return built


@pytest.mark.parametrize("seed", range(5))
def test_a_randrange_subclass_sees_every_scalar_draw(monkeypatch, seed):
    """A Random subclass that overrides randrange is asked for every scalar
    a world draws: the master key, each session's ephemeral and, in kci,
    the random element. Its draws are randrange(1, q) calls and every
    output equals the exact-class run's."""
    exact = ecksim.two_party_world(seed, Variant.HARDENED, master_key_reveal=True)
    exact_handles = run_honest_exchange(exact, "alice", "bob")
    exact_kci = attacks.run_kci_cells(seed, attacks.XChoice.RANDOM_ELEMENT)

    rngs = recording_rngs(monkeypatch)
    world = ecksim.two_party_world(seed, Variant.HARDENED, master_key_reveal=True)
    handles = run_honest_exchange(world, "alice", "bob")
    q = world.params.q
    alpha = world.kgc.reveal_master_key()
    scalars = [alpha] + [world.session(handle).x for handle in handles]
    assert rngs[0].draws == [((1, q), scalar) for scalar in scalars]
    assert alpha == exact.kgc.reveal_master_key()
    assert [world.session(h).key for h in handles] == [exact.session(h).key for h in exact_handles]

    kci = attacks.run_kci_cells(seed, attacks.XChoice.RANDOM_ELEMENT)
    # master key, alice's and bob's ephemerals, then the random element
    draws = rngs[1].draws
    assert [args for args, _ in draws] == [(1, q)] * 4
    element = (world.params.g ** draws[3][1]).hex()
    assert f"adversary replaced bob's response with a random element {element}" in kci[0].events
    assert [r.to_json() for r in kci] == [r.to_json() for r in exact_kci]


def test_an_exact_random_exchange_runs_no_randrange_and_no_power(monkeypatch):
    """On an exact random.Random an honest exchange draws its ephemerals
    through getrandbits and builds its outgoing elements from exponents:
    neither random.Random.randrange nor group._Elem.__pow__ is called."""
    world = make_world()

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return refused

    monkeypatch.setattr(random.Random, "randrange", refuse("randrange"))
    monkeypatch.setattr(group._Elem, "__pow__", refuse("__pow__"))
    h_init, h_resp = run_honest_exchange(world, "alice", "bob")
    assert world.session(h_init).key == world.session(h_resp).key


def test_a_scalar_that_is_no_int_is_refused():
    """An rng whose randrange returns no int is refused before the session
    opens, with the error the outgoing element's `**` used to raise."""

    class FloatRandom(random.Random):
        def randrange(self, *args):
            return float(super().randrange(*args))

    keys = make_world().private_reveal("alice")
    with pytest.raises(TypeError, match="exponent must be an int, not float"):
        start_session(keys, "bob", Role.INITIATOR, Variant.HARDENED, FloatRandom(0))


@pytest.mark.parametrize("offset", [0, 1], ids=["zero", "q"])
def test_a_scalar_outside_1_to_q_is_refused(offset):
    """An rng whose randrange(1, q) returns 0 or q is refused with
    ParameterError before a session exists: x = 0 would send the identity
    element, and q is the same scalar."""

    class OutOfRange(random.Random):
        def randrange(self, start, stop):
            return offset * stop

    world = make_world()
    world.rng = OutOfRange(0)
    with pytest.raises(ParameterError, match=f"randrange\\(1, {world.params.q}\\) returned"):
        world.activate("alice", "bob", Role.INITIATOR)
    assert world._sessions == {}
    world.rng = random.Random(0)
    assert world.activate("alice", "bob", Role.INITIATOR)[0] == 1

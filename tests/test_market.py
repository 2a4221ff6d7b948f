"""Unit tests for market primitives and mechanisms.

Expected matchings in the fixed examples were derived by hand from the
mechanism definitions and cross-checked against the brute-force oracle
inside the tests themselves.
"""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from housebandits.errors import (
    EmptyCoreError,
    EntryOutOfRangeError,
    MalformedRankingError,
    NonSquareMatrixError,
    OracleTooLargeError,
    TiedPreferenceError,
)
from housebandits.market import (
    Coalition,
    Matching,
    core_oracle_bruteforce,
    find_blocking_coalition,
    instance_from_json_dict,
    save_instance,
    ttc,
    validate_instance,
    yrmh_igyt,
)


def random_utilities(seed, n):
    """Random [0,1] matrix with strict rows (distinct values per row)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        row = rng.random(n)
        while len(set(row.tolist())) != n:
            row = rng.random(n)
        rows.append(row)
    return np.array(rows)


# --- validation -----------------------------------------------------------


def test_validate_accepts_strict_square_matrix():
    inst = validate_instance([[0.9, 0.5], [0.2, 0.8]], "gaussian")
    assert inst.n == 2
    assert inst.reward_model == "gaussian"
    assert inst.rankings == ((0, 1), (1, 0))


def test_validate_rejects_non_square():
    with pytest.raises(NonSquareMatrixError):
        validate_instance([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])


def test_validate_rejects_out_of_range_entry():
    with pytest.raises(EntryOutOfRangeError):
        validate_instance([[0.1, 1.5], [0.4, 0.5]])
    with pytest.raises(EntryOutOfRangeError):
        validate_instance([[0.1, -0.2], [0.4, 0.5]])
    with pytest.raises(EntryOutOfRangeError):
        validate_instance([[0.1, float("nan")], [0.4, 0.5]])


def test_validate_rejects_tied_row():
    with pytest.raises(TiedPreferenceError):
        validate_instance([[0.4, 0.4], [0.1, 0.2]])


def test_validate_rejects_unknown_reward_model():
    with pytest.raises(EntryOutOfRangeError):
        validate_instance([[0.9, 0.5], [0.2, 0.8]], "poisson")


def test_validate_is_deterministic():
    u = random_utilities(7, 4)
    a = validate_instance(u)
    b = validate_instance(u)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.core == b.core
    assert a.rankings == b.rankings


def test_instance_utilities_are_read_only():
    inst = validate_instance([[0.9, 0.5], [0.2, 0.8]])
    with pytest.raises(ValueError):
        inst.utilities[0, 0] = 0.3


# --- rankings and gaps ----------------------------------------------------


def test_ranking_orders_arms_best_first():
    u = np.array([[0.2, 0.9, 0.5], [0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    assert validate_instance(u).rankings[0] == (1, 2, 0)


def test_ranking_rejects_ties():
    with pytest.raises(TiedPreferenceError):
        validate_instance(np.array([[0.3, 0.3, 0.1], [0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]))


def test_min_gap_hand_computed():
    # row gaps: |0.9-0.5| = 0.4 and |0.8-0.2| = 0.6
    assert validate_instance(np.array([[0.9, 0.5], [0.2, 0.8]])).min_gap == pytest.approx(0.4)


def test_min_gap_only_adjacent_pairs_count():
    # sorted row 0.1, 0.5, 0.6: adjacent gaps 0.4 and 0.1, not 0.5
    u = np.array([[0.5, 0.1, 0.6], [0.1, 0.4, 0.7], [0.2, 0.5, 0.8]])
    assert validate_instance(u).min_gap == pytest.approx(0.1)


def test_min_gap_single_player_is_infinite():
    assert validate_instance(np.array([[0.4]])).min_gap == math.inf


# --- matchings ------------------------------------------------------------


def test_matching_rejects_non_bijection():
    with pytest.raises(MalformedRankingError):
        Matching((0, 0, 1))
    with pytest.raises(MalformedRankingError):
        Matching((0, 3, 1))


def test_matching_json_roundtrip_is_one_based():
    m = Matching((1, 0, 2))
    assert m.to_json_list() == [2, 1, 3]


# --- top trading cycles ---------------------------------------------------


def test_ttc_identity_when_everyone_tops_own_arm():
    rankings = ((0, 1, 2), (1, 0, 2), (2, 1, 0))
    assert ttc(rankings).assignment == (0, 1, 2)


def test_ttc_three_player_example():
    # p0: a1 > a0 > a2, p1: a0 > a1 > a2, p2: a0 > a1 > a2.
    # p0 and p1 swap in the first removal; p2 is left its own arm.
    rankings = ((1, 0, 2), (0, 1, 2), (0, 1, 2))
    assert ttc(rankings).assignment == (1, 0, 2)


def test_ttc_single_big_cycle():
    # everybody points at the next player: one cycle, one iteration
    rankings = ((1, 0, 2), (2, 1, 0), (0, 2, 1))
    assert ttc(rankings).assignment == (1, 2, 0)


def test_ttc_rejects_malformed_ranking():
    with pytest.raises(MalformedRankingError):
        ttc(((0, 0), (1, 0)))


def test_ttc_matches_oracle_on_seeded_sweep():
    for seed in range(40):
        for n in (2, 3, 4, 5):
            u = random_utilities(seed * 10 + n, n)
            inst = validate_instance(u)
            assert inst.core == core_oracle_bruteforce(u), (seed, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_ttc_output_is_in_core(seed, n):
    """No coalition can block the ttc matching on random instances."""
    u = random_utilities(seed, n)
    m = ttc(validate_instance(u).rankings)
    assert find_blocking_coalition(u, m) is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40))
def test_ttc_agrees_with_request_by_turn_past_the_oracle_limit(seed, n):
    """Up to 40 players, where the n! oracle cannot go: the request-by-turn
    mechanism gives the same matching and no coalition blocks it."""
    inst = validate_instance(random_utilities(seed, n))
    res = yrmh_igyt(inst.rankings)
    assert inst.core == res.matching
    assert find_blocking_coalition(inst.utilities, inst.core) is None
    left = set()
    for rec in res.epoch_log:
        assert rec.leader == min(set(range(n)) - left)
        left |= set(rec.cycle)
    assert res.epochs == len(res.epoch_log)
    assert res.rounds == sum(rec.rounds for rec in res.epoch_log)


# --- request-by-turn mechanism --------------------------------------------


def epoch_log(res):
    return [(rec.leader, rec.cycle, rec.closer, rec.rounds) for rec in res.epoch_log]


def test_serial_dictatorship_identity_market():
    # own-arm-first rankings: one self-proposal per epoch
    for n in (1, 2, 3, 7):
        rankings = tuple((i,) + tuple(j for j in range(n) if j != i) for i in range(n))
        res = yrmh_igyt(rankings)
        assert res.matching.assignment == tuple(range(n))
        assert epoch_log(res) == [(i, (i,), i, 1) for i in range(n)]
        assert (res.epochs, res.rounds) == (n, n)


def test_serial_dictatorship_next_players_arm_on_top_is_one_epoch():
    # each player's top arm is the next player's: one chain through all
    # n players, closed by the last one's proposal back to player 0
    for n in (1, 2, 3, 7):
        rankings = tuple(tuple((i + 1 + k) % n for k in range(n)) for i in range(n))
        res = yrmh_igyt(rankings)
        assert res.matching.assignment == tuple((i + 1) % n for i in range(n))
        assert epoch_log(res) == [(0, tuple(range(n)), n - 1, n)]
        assert (res.epochs, res.rounds) == (1, n)


def test_serial_dictatorship_three_player_example():
    # epoch 1: p0 proposes a1, p1 proposes a0 back at p0 -> cycle (p0, p1)
    # epoch 2: p2 proposes its best remaining arm, its own -> self cycle
    rankings = ((1, 0, 2), (0, 1, 2), (0, 1, 2))
    res = yrmh_igyt(rankings)
    assert res.matching.assignment == (1, 0, 2)
    assert res.epochs == 2
    assert res.rounds == 3
    assert res.epoch_log[0].cycle == (0, 1)
    assert res.epoch_log[0].leader == 0
    assert res.epoch_log[1].cycle == (2,)


def test_serial_dictatorship_chain_longer_than_its_cycle():
    # epoch 1: p0 proposes a1, p1 proposes a2, p2 proposes a1 back at p1:
    #   cycle (p1, p2), closed by p2, three rounds; p0 stays in
    # epoch 2: p0 leads again; a1 is gone, so it proposes its own a0
    rankings = ((1, 0, 2), (2, 0, 1), (1, 2, 0))
    res = yrmh_igyt(rankings)
    assert res.matching.assignment == (0, 2, 1)
    assert epoch_log(res) == [(0, (1, 2), 2, 3), (0, (0,), 0, 1)]
    assert (res.epochs, res.rounds) == (2, 4)
    # the same shape for n = 3..12: player i < n-1 ranks arm i+1 first
    # and its own arm second, player n-1 ranks arm n-2 first. Epoch 1's
    # chain 0, 1, ..., n-1 closes the cycle (n-2, n-1) in n rounds; each
    # later epoch proposes again along the chain 0, ..., m that stayed
    # in, and m, whose arm m+1 is gone, proposes its own: m+1 rounds
    for n in range(3, 13):
        rankings = tuple(
            (i + 1, i, *(j for j in range(n) if j not in (i, i + 1))) if i < n - 1
            else (n - 2, n - 1, *range(n - 2))
            for i in range(n)
        )
        res = yrmh_igyt(rankings)
        assert res.matching.assignment == (*range(n - 2), n - 1, n - 2) == ttc(rankings).assignment
        assert epoch_log(res) == [(0, (n - 2, n - 1), n - 1, n)] + [
            (0, (m,), m, m + 1) for m in range(n - 3, -1, -1)
        ]
        assert (res.epochs, res.rounds) == (n - 1, n + (n - 1) * (n - 2) // 2)


# sha256 over the full results (matching, epochs, rounds, epoch log) of
# three seeded markets per n = 1..40: a change to anything the mechanism
# reports, not only to its matching, moves it
REQUEST_BY_TURN_DIGEST = "b46ba46ec3d9f842cec0aaa18f021d90599d1080f09f92a2fc2492711beec0c3"


def test_serial_dictatorship_matches_the_recorded_digest():
    h = hashlib.sha256()
    for n in range(1, 41):
        for seed in range(3):
            res = yrmh_igyt(validate_instance(random_utilities(1000 * seed + n, n)).rankings)
            h.update(repr((res.matching.assignment, res.epochs, res.rounds, epoch_log(res))).encode())
    assert h.hexdigest() == REQUEST_BY_TURN_DIGEST


def test_serial_dictatorship_leader_is_lowest_remaining():
    for seed in range(25):
        u = random_utilities(seed, 5)
        res = yrmh_igyt(validate_instance(u).rankings)
        removed = set()
        for rec in res.epoch_log:
            assert rec.leader == min(set(range(5)) - removed)
            removed |= set(rec.cycle)


def test_serial_dictatorship_closer_cycle_consistency():
    """The closing proposal lands on a player of the removed cycle, and
    every member receives the endowment of its successor on the cycle."""
    for seed in range(25):
        for n in (2, 3, 4, 6):
            u = random_utilities(seed + 1000, n)
            res = yrmh_igyt(validate_instance(u).rankings)
            for rec in res.epoch_log:
                assert rec.closer in rec.cycle
                k = len(rec.cycle)
                for idx, member in enumerate(rec.cycle):
                    succ = rec.cycle[(idx + 1) % k]
                    assert res.matching.arm_of(member) == succ


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_serial_dictatorship_agrees_with_ttc_within_bounds(seed, n):
    u = random_utilities(seed, n)
    inst = validate_instance(u)
    res = yrmh_igyt(inst.rankings)
    assert res.matching == inst.core
    assert res.epochs <= n
    assert res.rounds <= n * n


# --- blocking coalitions and the oracle ------------------------------------


def test_blocking_swap_found_for_identity_matching():
    # both players prefer the other's endowment, so identity is blocked
    u = np.array([[0.2, 0.9], [0.8, 0.3]])
    c = find_blocking_coalition(u, Matching((0, 1)))
    assert isinstance(c, Coalition)
    assert c.members == (0, 1)
    assert dict(c.reallocation) == {0: 1, 1: 0}


def test_blocking_none_for_core_matching():
    u = np.array([[0.2, 0.9], [0.8, 0.3]])
    assert find_blocking_coalition(u, Matching((1, 0))) is None


def test_blocking_individual_rationality_violation():
    # p0 holds a1 but prefers its own endowment: a singleton objection
    u = np.array([[0.9, 0.2], [0.1, 0.8]])
    c = find_blocking_coalition(u, Matching((1, 0)))
    assert c.members == (0,)
    assert dict(c.reallocation) == {0: 0}


def test_blocking_needs_carried_along_member():
    """A matching can be free of all-strictly-improving cycles and
    still be blocked: one member improves strictly while another is
    handed back the very arm it already holds (possible only because
    that arm is the improver's endowment). The oracle must reject such
    matchings or core uniqueness fails."""
    u = np.array(
        [
            [0.51, 0.95, 0.14],
            [0.95, 0.31, 0.42],
            [0.83, 0.41, 0.55],
        ]
    )
    blocked = Matching((1, 2, 0))
    # only strict preference over a current match: p1 wants a0; no
    # cycle of strict improvements exists
    c = find_blocking_coalition(u, blocked)
    assert c is not None
    assert c.members == (0, 1)
    assert dict(c.reallocation) == {0: 1, 1: 0}
    assert core_oracle_bruteforce(u).assignment == (1, 0, 2)


def assert_valid_objection(u, m, c):
    """The coalition trades its members' endowments along one cycle,
    never hurts a member, and strictly improves at least one."""
    assert sorted(p for p, _ in c.reallocation) == sorted(c.members)
    assert sorted(a for _, a in c.reallocation) == sorted(c.members)
    strict = 0
    for player, arm in c.reallocation:
        if u[player, arm] > u[player, m.arm_of(player)]:
            strict += 1
        else:
            assert arm == m.arm_of(player)
    assert strict >= 1


def test_blocking_search_scales_past_the_oracle_limit():
    """The search is polynomial: at n = 9, beyond the brute-force
    oracle, it clears the core and objects to a non-core matching."""
    u = random_utilities(3, 9)
    core = validate_instance(u).core
    identity = Matching(tuple(range(9)))
    assert core != identity
    assert find_blocking_coalition(u, core) is None
    assert_valid_objection(u, identity, find_blocking_coalition(u, identity))


def test_blocking_reallocation_uses_member_endowments_only():
    for seed in range(30):
        u = random_utilities(seed, 4)
        m = Matching(tuple(np.random.default_rng(seed).permutation(4).tolist()))
        c = find_blocking_coalition(u, m)
        if c is not None:
            assert_valid_objection(u, m, c)


@st.composite
def markets_and_matchings(draw):
    n = draw(st.integers(1, 6))
    u = random_utilities(draw(st.integers(0, 10_000)), n)
    if draw(st.booleans()):
        return u, validate_instance(u).core
    return u, Matching(tuple(draw(st.permutations(range(n)))))


@settings(max_examples=150, deadline=None)
@given(markets_and_matchings())
def test_blocking_search_is_exact_and_witnessed(case):
    """No objection exactly on the core; any objection is valid."""
    u, m = case
    c = find_blocking_coalition(u, m)
    assert (c is None) == (m == validate_instance(u).core)
    if c is not None:
        assert_valid_objection(u, m, c)


def blocked_by_definition(u, m):
    """Some set of players can hand out its own endowments among
    itself so that nobody is worse off and somebody is strictly better
    off."""
    rows = u.tolist()
    n = len(rows)
    held = [rows[p][m.arm_of(p)] for p in range(n)]
    for size in range(1, n + 1):
        for members in itertools.combinations(range(n), size):
            for arms in itertools.permutations(members):
                gains = [rows[p][a] - held[p] for p, a in zip(members, arms)]
                if min(gains) >= 0 and max(gains) > 0:
                    return True
    return False


def test_blocking_search_matches_the_definition():
    """Exact on every matching of small markets, judged by the blocking
    definition alone: no ttc, no digraph."""
    markets = [random_utilities(500 + seed, n) for n in (1, 2, 3, 4) for seed in range(10)]
    markets += [random_utilities(500 + seed, 5) for seed in range(3)]
    for u in markets:
        for perm in itertools.permutations(range(len(u))):
            m = Matching(perm)
            assert (find_blocking_coalition(u, m) is not None) == blocked_by_definition(u, m), (
                u.tolist(), perm)


def test_oracle_two_player_swap():
    u = np.array([[0.2, 0.9], [0.8, 0.3]])
    assert core_oracle_bruteforce(u).assignment == (1, 0)


def test_oracle_three_player_example():
    u = np.array(
        [
            [0.5, 0.9, 0.1],
            [0.9, 0.5, 0.1],
            [0.9, 0.5, 0.1],
        ]
    )
    assert core_oracle_bruteforce(u).assignment == (1, 0, 2)


def test_oracle_rejects_large_market():
    with pytest.raises(OracleTooLargeError):
        core_oracle_bruteforce(random_utilities(0, 9))


def test_oracle_empty_core_unreachable_for_strict_rows():
    # sanity: a handful of random strict instances never trip EmptyCore
    for seed in range(10):
        core_oracle_bruteforce(random_utilities(seed, 4))


def test_oracle_matches_ttc_and_certifies_uniqueness():
    for seed in range(20):
        for n in (2, 3, 4, 5, 6):
            u = random_utilities(seed * 31 + n, n)
            inst = validate_instance(u)
            # a second unblocked matching would raise NonUniqueCoreError
            assert core_oracle_bruteforce(u) == inst.core


def test_empty_core_error_importable():
    assert issubclass(EmptyCoreError, Exception)


# --- serialization ---------------------------------------------------------


def test_instance_json_roundtrip(tmp_path):
    inst = validate_instance(random_utilities(11, 4), "bernoulli")
    p = tmp_path / "inst.json"
    save_instance(inst, p)
    again = instance_from_json_dict(json.loads(p.read_text()))
    assert again.to_json_dict() == inst.to_json_dict()
    assert again.core == inst.core


def test_instance_json_rejects_wrong_keys():
    with pytest.raises(NonSquareMatrixError):
        instance_from_json_dict({"utilities": [[0.5]]})
    with pytest.raises(NonSquareMatrixError):
        instance_from_json_dict(
            {"n": 1, "utilities": [[0.5]], "reward_model": "gaussian", "extra": 1}
        )


def test_instance_json_rejects_mismatched_n():
    with pytest.raises(NonSquareMatrixError):
        instance_from_json_dict(
            {"n": 3, "utilities": [[0.9, 0.5], [0.2, 0.8]], "reward_model": "gaussian"}
        )

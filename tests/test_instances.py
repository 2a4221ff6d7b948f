"""Generator tests: gap-floored random markets, single-cycle markets,
and the fixed worst-case construction."""

import numpy as np
import pytest

from housebandits.errors import (
    ConfigInvalidError,
    InfeasibleDeltaError,
    InfeasibleGapFloorError,
)
from housebandits.instances import (
    TIE_BREAK_EPS,
    generate,
    is_sttcb,
    lower_bound_instance,
    random_instance,
    sttcb_instance,
)
from housebandits.market import core_oracle_bruteforce, validate_instance


def top_gap(instance, player):
    """Smallest margin between the player's core arm and any other arm."""
    u = instance.utilities[player]
    best = u[instance.core.arm_of(player)]
    return min(best - u[j] for j in range(instance.n) if j != instance.core.arm_of(player))


# --- random gap-floored markets ---------------------------------------------


def test_random_single_player_market():
    inst = random_instance(1, 0.5, np.random.default_rng(0))
    assert inst.n == 1
    assert inst.core.assignment == (0,)


def test_random_respects_gap_floor():
    for seed in range(30):
        inst = random_instance(5, 0.1, np.random.default_rng(seed))
        assert inst.min_gap >= 0.1


def test_random_sweep_validates_and_matches_oracle():
    done = 0
    for seed in range(200):
        n = 1 + seed % 6
        inst = random_instance(n, 0.02, np.random.default_rng(seed), "bernoulli")
        assert core_oracle_bruteforce(inst.utilities) == inst.core
        done += 1
    assert done == 200


def test_random_rejects_infeasible_floor():
    with pytest.raises(InfeasibleGapFloorError):
        random_instance(5, 0.25, np.random.default_rng(0))  # 0.25 * 5 > 1
    with pytest.raises(InfeasibleGapFloorError):
        random_instance(3, 0.0, np.random.default_rng(0))
    with pytest.raises(InfeasibleGapFloorError):
        random_instance(0, 0.1, np.random.default_rng(0))


def test_random_refuses_a_nan_floor():
    """NaN fails every comparison, so it must not slip past the bounds."""
    with pytest.raises(InfeasibleGapFloorError, match="delta_floor=nan"):
        random_instance(3, float("nan"), np.random.default_rng(0))


# --- single-cycle markets -----------------------------------------------------


def test_sttcb_two_players_is_the_swap():
    inst = sttcb_instance(2, 0.3, np.random.default_rng(1))
    assert inst.core.assignment == (1, 0)
    assert is_sttcb(inst)


def test_sttcb_five_players_is_one_cycle():
    inst = sttcb_instance(5, 0.2, np.random.default_rng(2))
    assert inst.core.assignment == (1, 2, 3, 4, 0)
    assert is_sttcb(inst)


def test_sttcb_core_is_every_players_argmax():
    for seed in range(40):
        n = 2 + seed % 5
        inst = sttcb_instance(n, 0.1, np.random.default_rng(seed))
        for i in range(n):
            assert int(np.argmax(inst.utilities[i])) == inst.core.arm_of(i)
            assert top_gap(inst, i) >= 0.1 - 1e-12


def test_sttcb_min_gap_at_least_delta():
    for seed in range(20):
        inst = sttcb_instance(4, 0.15, np.random.default_rng(seed))
        assert inst.min_gap >= 0.15 - 1e-12


def test_sttcb_rejects_bad_delta():
    with pytest.raises(InfeasibleDeltaError):
        sttcb_instance(5, 0.25, np.random.default_rng(0))  # needs < 1/(n-1)
    with pytest.raises(InfeasibleDeltaError):
        sttcb_instance(5, 0.0, np.random.default_rng(0))
    with pytest.raises(InfeasibleDeltaError):
        sttcb_instance(1, 0.1, np.random.default_rng(0))


# --- worst-case construction --------------------------------------------------


def test_lower_bound_rows_hand_checked():
    inst = lower_bound_instance(3, 0.2, 1)
    eps = TIE_BREAK_EPS
    expected = np.array(
        [
            [0.25 + 1 * eps, 0.5, 0.25 + 3 * eps],
            [0.3 + 1 * eps, 0.3 + 2 * eps, 0.5],
            [0.5, 0.3 + 2 * eps, 0.3 + 3 * eps],
        ]
    )
    assert np.allclose(inst.utilities, expected, atol=1e-12)
    assert inst.reward_model == "bernoulli"


def test_lower_bound_core_is_full_cycle():
    for n in (2, 3, 5, 6):
        inst = lower_bound_instance(n, 0.1, 2)
        assert inst.core.assignment == tuple((i + 1) % n for i in range(n))
        assert is_sttcb(inst)


def test_lower_bound_distinguished_gap_is_one_quarter():
    inst = lower_bound_instance(5, 0.2, 3)
    assert top_gap(inst, 2) == pytest.approx(0.25, abs=1e-4)


def test_lower_bound_other_players_gap_is_delta():
    inst = lower_bound_instance(5, 0.2, 3)
    for i in (0, 1, 3, 4):
        assert top_gap(inst, i) == pytest.approx(0.2, abs=1e-4)


def test_lower_bound_is_deterministic():
    a = lower_bound_instance(4, 0.15, 2)
    b = lower_bound_instance(4, 0.15, 2)
    assert a.to_json_dict() == b.to_json_dict()


def test_lower_bound_rejects_bad_parameters():
    with pytest.raises(InfeasibleDeltaError):
        lower_bound_instance(1, 0.2, 1)
    with pytest.raises(InfeasibleDeltaError):
        lower_bound_instance(3, 0.3, 1)  # delta > 1/4
    with pytest.raises(InfeasibleDeltaError):
        lower_bound_instance(3, 0.2, 4)  # distinguished out of range
    with pytest.raises(InfeasibleDeltaError):
        lower_bound_instance(3, 2e-6, 1)  # below the tie-break scale


# --- classification -----------------------------------------------------------


def test_is_sttcb_rejects_identity_top_market():
    inst = validate_instance(
        [
            [0.9, 0.5, 0.1],
            [0.1, 0.9, 0.5],
            [0.5, 0.1, 0.9],
        ]
    )
    assert not is_sttcb(inst)


def test_is_sttcb_rejects_a_top_arm_that_is_not_the_core_arm():
    # players 0 and 1 both rank arm 0 first; player 0 keeps it
    inst = validate_instance(
        [
            [0.9, 0.5, 0.1],
            [0.9, 0.5, 0.1],
            [0.1, 0.5, 0.9],
        ]
    )
    assert inst.rankings[1][0] != inst.core.arm_of(1)
    assert not is_sttcb(inst)


def test_is_sttcb_rejects_two_cycles():
    # two 2-cycles at n=4: core is not a single cycle
    inst = validate_instance(
        [
            [0.2, 0.9, 0.1, 0.15],
            [0.9, 0.2, 0.1, 0.15],
            [0.1, 0.15, 0.2, 0.9],
            [0.1, 0.15, 0.9, 0.2],
        ]
    )
    assert inst.core.assignment == (1, 0, 3, 2)
    assert not is_sttcb(inst)


# --- config dispatch ----------------------------------------------------------


def test_generate_dispatches_each_family():
    a = generate("random", 4, delta_floor=0.1, seed=1)
    assert a.n == 4 and a.min_gap >= 0.1 and a.reward_model == "gaussian"
    b = generate("sttcb", 4, delta=0.1, seed=1, reward_model="bernoulli")
    assert is_sttcb(b) and b.reward_model == "bernoulli"
    c = generate("lower-bound", 4, delta=0.2, distinguished=1)
    assert c.reward_model == "bernoulli"


def test_generate_same_seed_same_instance():
    a = generate("random", 5, delta_floor=0.05, seed=9)
    b = generate("random", 5, delta_floor=0.05, seed=9)
    assert a.to_json_dict() == b.to_json_dict()


def test_generate_rejects_missing_fields_and_unknown_family():
    with pytest.raises(ConfigInvalidError, match="requires delta_floor"):
        generate("random", 4)
    with pytest.raises(ConfigInvalidError, match="requires delta"):
        generate("sttcb", 4)
    with pytest.raises(ConfigInvalidError, match="requires distinguished"):
        generate("lower-bound", 4, delta=0.2)
    with pytest.raises(ConfigInvalidError, match="unknown generator family"):
        generate("weird", 4)


@pytest.mark.parametrize("family, params", [
    ("lower-bound", {"delta": 0.2, "distinguished": 1, "reward_model": "gaussian"}),
    ("lower-bound", {"delta": 0.2, "distinguished": 1, "reward_model": "bernoulli"}),
    ("lower-bound", {"delta": 0.2, "distinguished": 1, "seed": 3}),
    ("lower-bound", {"delta": 0.2, "distinguished": 1, "delta_floor": 0.1}),
    ("random", {"delta_floor": 0.1, "delta": 0.2}),
    ("random", {"delta_floor": 0.1, "distinguished": 1}),
    ("sttcb", {"delta": 0.2, "delta_floor": 0.1}),
    ("sttcb", {"delta": 0.2, "distinguished": 1}),
    ("sttcb", {"delta": 0.2, "rewardmodel": "bernoulli"}),
])
def test_generate_refuses_a_parameter_the_family_does_not_read(family, params):
    with pytest.raises(ConfigInvalidError, match=f"the {family} family does not read"):
        generate(family, 4, **params)


def test_a_none_parameter_counts_as_not_given():
    given = generate("lower-bound", 4, delta=0.2, distinguished=1, seed=None, reward_model=None)
    assert given.to_json_dict() == lower_bound_instance(4, 0.2, 1).to_json_dict()

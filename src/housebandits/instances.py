"""Instance generators.

Three families: random markets with a per-row floor on adjacent utility
gaps, single-cycle markets where every player's top arm is its core
match (the class the learning bounds are stated for), and a fixed
worst-case construction with one distinguished player whose non-top
arms all sit far below its top arm.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConfigInvalidError,
    InfeasibleDeltaError,
    InfeasibleGapFloorError,
    RuntimeFailure,
)
from .market import MarketInstance, validate_instance

# each generator family and the parameters it reads besides n
GENERATOR_FAMILIES = {
    "random": ("delta_floor", "seed", "reward_model"),
    "sttcb": ("delta", "seed", "reward_model"),
    "lower-bound": ("delta", "distinguished"),
}

# a generated market holds an n x n utility matrix (8 MB at this bound);
# a larger n is refused before anything is allocated
MAX_PLAYERS = 1000

# Tie-break perturbation scale for the lower-bound construction.
TIE_BREAK_EPS = 1e-6


def generate(family: str, n: int, **params) -> MarketInstance:
    """A market of the named family with n players. params are the
    family's parameters in GENERATOR_FAMILIES, a None value counting as
    not given: seed defaults to fresh entropy and reward_model to
    gaussian, and lower-bound is always Bernoulli. A parameter the
    family does not read is refused, so that no explicit choice is
    silently dropped. n is at most MAX_PLAYERS."""
    if family not in GENERATOR_FAMILIES:
        raise ConfigInvalidError(
            f"unknown generator family {family!r}; expected one of {tuple(GENERATOR_FAMILIES)}"
        )
    if n > MAX_PLAYERS:
        raise ConfigInvalidError(f"a generated market has at most {MAX_PLAYERS} players, got {n}")
    given = {k: v for k, v in params.items() if v is not None}
    ignored = sorted(set(given) - set(GENERATOR_FAMILIES[family]))
    if ignored:
        raise ConfigInvalidError(f"the {family} family does not read {', '.join(ignored)}")
    missing = [k for k in GENERATOR_FAMILIES[family]
               if k not in given and k not in ("seed", "reward_model")]
    if missing:
        raise ConfigInvalidError(f"the {family} family requires {' and '.join(missing)}")
    if given.get("seed", 0) < 0:
        raise ConfigInvalidError(f"generator seed must be non-negative, got {given['seed']}")
    if family == "lower-bound":
        return lower_bound_instance(n, given["delta"], given["distinguished"])
    rng = np.random.default_rng(given.get("seed"))
    model = given.get("reward_model", "gaussian")
    if family == "random":
        return random_instance(n, given["delta_floor"], rng, model)
    return sttcb_instance(n, given["delta"], rng, model)


def _spaced_values(count: int, floor: float, low: float, high: float,
                   rng: np.random.Generator) -> np.ndarray:
    """count values in [low, high], ascending, adjacent gaps >= floor.

    Shifting the k-th order statistic of uniforms on the slack interval
    by k*floor packs the gaps in while keeping the draw exchangeable.
    """
    slack = (high - low) - (count - 1) * floor
    base = np.sort(rng.random(count) * slack)
    return low + base + floor * np.arange(count)


def random_instance(
    n: int,
    delta_floor: float,
    rng: np.random.Generator,
    reward_model: str = "gaussian",
) -> MarketInstance:
    """Random market whose rows all have adjacent sorted gaps of at
    least delta_floor (so min_gap >= delta_floor by construction)."""
    if n < 1:
        raise InfeasibleGapFloorError(f"need n >= 1, got {n}")
    # a NaN floor fails both comparisons, so it is refused too
    if not (0.0 < delta_floor and delta_floor * n <= 1.0):
        raise InfeasibleGapFloorError(
            f"delta_floor must satisfy 0 < delta_floor and delta_floor*n <= 1, "
            f"got delta_floor={delta_floor}, n={n}"
        )
    rows = []
    for _ in range(n):
        values = _spaced_values(n, delta_floor, 0.0, 1.0, rng)
        rows.append(values[rng.permutation(n)])
    return validate_instance(np.array(rows), reward_model)


def sttcb_instance(
    n: int,
    delta: float,
    rng: np.random.Generator,
    reward_model: str = "gaussian",
) -> MarketInstance:
    """Market whose core is the single cycle player i -> arm i+1 (mod n)
    and where that arm is also each player's top choice, with every gap
    to the top arm at least delta."""
    if n < 2:
        raise InfeasibleDeltaError(f"need n >= 2, got {n}")
    if not 0.0 < delta < 1.0 / (n - 1):
        raise InfeasibleDeltaError(
            f"delta must lie in (0, 1/(n-1)) = (0, {1.0 / (n - 1):.6g}), got {delta}"
        )
    rows = []
    for i in range(n):
        top_arm = (i + 1) % n
        # top value needs n-1 gaps of delta below it to fit the rest
        lo = (n - 1) * delta
        top_value = lo + rng.random() * (1.0 - lo)
        others = _spaced_values(n - 1, delta, 0.0, top_value - delta, rng)
        row = np.empty(n)
        other_arms = [j for j in range(n) if j != top_arm]
        row[top_arm] = top_value
        row[[other_arms[k] for k in rng.permutation(n - 1)]] = others
        rows.append(row)
    instance = validate_instance(np.array(rows), reward_model)
    if not is_sttcb(instance):
        raise RuntimeFailure("constructed instance must be single-cycle with top = core")
    return instance


def lower_bound_instance(n: int, delta: float, i_star: int) -> MarketInstance:
    """Deterministic Bernoulli worst-case market.

    Every player's top arm is the next one around the circle with mean
    1/2. Non-distinguished players value all other arms 1/2 - delta;
    the distinguished player (i_star, 1-based) values them 1/4. Those
    duplicated entries are perturbed by TIE_BREAK_EPS times the 1-based
    arm index so rows stay strict; the perturbation is orders of
    magnitude below delta and leaves every top gap unchanged to first
    order.
    """
    if n < 2:
        raise InfeasibleDeltaError(f"need n >= 2, got {n}")
    if not 0.0 < delta <= 0.25:
        raise InfeasibleDeltaError(f"delta must lie in (0, 1/4], got {delta}")
    if not 1 <= i_star <= n:
        raise InfeasibleDeltaError(f"distinguished player must lie in 1..{n}, got {i_star}")
    if delta <= TIE_BREAK_EPS * (n + 1):
        raise InfeasibleDeltaError(
            f"delta={delta} too small for the {TIE_BREAK_EPS} tie-break at n={n}"
        )
    players = np.arange(n)
    off = np.where(players == i_star - 1, 0.25, 0.5 - delta)
    u = off[:, None] + TIE_BREAK_EPS * (players + 1)
    u[players, (players + 1) % n] = 0.5
    instance = validate_instance(u, "bernoulli")
    if not is_sttcb(instance):
        raise RuntimeFailure("lower-bound instance must be single-cycle with top = core")
    return instance


def is_sttcb(instance: MarketInstance) -> bool:
    """True iff the core matching is one n-cycle and every player's
    top-ranked arm is its core arm. The first implies the second: top
    trading cycles removes each cycle of its matching in one round, so a
    core that is one n-cycle left in round 1, where every player points
    at its top arm."""
    n = instance.n
    core = instance.core
    # follow the permutation i -> owner of the arm matched to i
    seen = 1
    j = core.arm_of(0)
    while j != 0:
        j = core.arm_of(j)
        seen += 1
    return seen == n

"""Bandit learning in housing markets.

A simulation library and CLI covering offline core-matching mechanisms,
a collision-model bandit environment over the same markets, one
decentralized and one centralized learning protocol, instance
generators, and a seeded Monte Carlo harness that measures per-player
regret against closed-form bound curves. Import names from the
submodules (housebandits.market, .env, .instances, .centralized,
.decentralized, .harness, .cli).
"""

from .errors import HousebanditsError, InputError, RuntimeFailure

__version__ = "0.1.0"

__all__ = ["HousebanditsError", "InputError", "RuntimeFailure", "__version__"]

"""Exception hierarchy shared by all housebandits modules.

Two broad families matter to callers: InputError covers anything a user
can cause with bad data or bad parameters (the CLI maps these to exit
code 2), RuntimeFailure covers contract violations detected while a
simulation or mechanism is running (exit code 3).
"""

from __future__ import annotations


class HousebanditsError(Exception):
    """Base class for every error raised by this package."""


class InputError(HousebanditsError):
    """Invalid user-supplied data or parameters."""


class RuntimeFailure(HousebanditsError):
    """Internal contract violated during a run; indicates a bug or a
    corrupted interaction between components, not bad input."""


# --- market / instance validation ---------------------------------------

class NonSquareMatrixError(InputError):
    """Utility matrix is not square n x n."""


class EntryOutOfRangeError(InputError):
    """Utility entry outside [0, 1] or not finite."""


class TiedPreferenceError(InputError):
    """Some player's utility row contains duplicate values, so its
    preference order over arms is not strict."""


class MalformedRankingError(InputError):
    """A ranking is not a permutation of the arm indices."""


class OracleTooLargeError(InputError):
    """Brute-force core oracle asked to enumerate more than the
    configured maximum market size."""


class NonUniqueCoreError(RuntimeFailure):
    """Brute-force enumeration found more than one unblocked matching.
    Cannot happen for strict preferences; signals a bug."""


class EmptyCoreError(RuntimeFailure):
    """Brute-force enumeration found no unblocked matching.
    Cannot happen for strict preferences; signals a bug."""


# --- instance generators -------------------------------------------------

class InfeasibleGapFloorError(InputError):
    """Requested per-row gap floor cannot be packed into [0, 1]."""


class InfeasibleDeltaError(InputError):
    """Requested gap parameter outside the feasible range for the
    generator family."""


# --- learning protocols --------------------------------------------------

class DesyncError(RuntimeFailure):
    """A decentralized player received an observation inconsistent with
    its round schedule (wrong round, or a collision in a stage that is
    collision-free by construction)."""


# --- harness / config ----------------------------------------------------

class ConfigInvalidError(InputError):
    """Experiment configuration violates a precondition (empty seed
    list, horizon too small, unknown algorithm, bad checkpoint)."""

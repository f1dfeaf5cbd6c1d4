"""Exception types raised across the package.

There is one class for each way a caller must react, so callers (and the
CLI) map failures onto exit codes without string matching.  A size or
depth cap that is hit is always :class:`TooLarge`: the answer is
undecided at these caps, never refuted.  All of them derive from
:class:`OrbiteqError`.
"""


class OrbiteqError(Exception):
    """Base class for all errors raised by this package."""


class NotZeroOne(OrbiteqError):
    """A transition matrix entry is neither 0 nor 1."""


class NotIrreducible(OrbiteqError):
    """The transition graph is not strongly connected."""


class PermutationMatrix(OrbiteqError):
    """The transition matrix is a permutation matrix (cyclic shift space)."""


class TooLarge(OrbiteqError):
    """An input or a computation exceeds a configured size or depth cap."""


class InadmissibleWord(OrbiteqError):
    """A word contains a transition forbidden by the matrix."""


class NotTotal(OrbiteqError):
    """A block code table or transducer is missing required entries."""


class ImageInadmissible(OrbiteqError):
    """A map would produce a word forbidden in the target space.

    Carries the offending source word in ``args[1]`` when known.
    """


class StallingCycle(OrbiteqError):
    """A transducer has a reachable cycle that emits no output."""


class InvalidPartition(OrbiteqError):
    """A state-splitting partition does not cover the follower set."""


class NoAlignment(OrbiteqError):
    """No orbit alignment exists on some cylinder: a mismatch recurs on a
    cycle of the walk (or the point fallback found none in its horizon)."""


class InconsistentRoutes(OrbiteqError):
    """Two independent classification routes disagree.

    This is never a legitimate outcome; it indicates a bug and is raised
    so the test harness can surface it.
    """


class PreconditionFailed(OrbiteqError):
    """An operation's stated precondition does not hold for the inputs."""

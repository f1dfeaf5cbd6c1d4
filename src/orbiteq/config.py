"""Size caps and run parameters.

The caps keep every word table, orbit search and backtracking match at
desk scale; they are deliberately generous for the alphabet sizes this
package targets.
"""

from collections import namedtuple

# Hard caps, shared by every module.
MAX_ALPHABET = 64
MAX_DEPTH = 24
MAX_MATCH_STATES = 12  # backtracking isomorphism search
WORD_TABLE_LIMIT = 1_000_000  # safety valve for allowed-word tables


class RunConfig(namedtuple("RunConfig", "depth max_pre max_cyc")):
    """Parameters of the verification pipeline.

    ``depth`` bounds the cocycle depths :func:`~orbiteq.orbit.classify`
    searches and the potential identity it checks.  ``max_pre`` and
    ``max_cyc`` size only :func:`~orbiteq.orbit.cylinder_family`, the
    sampled re-check; no verdict reads them.  The defaults are the ones
    the acceptance suite runs with.  A field that is not an in-range
    ``int`` (a ``bool`` is not one) raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, depth=8, max_pre=3, max_cyc=4):
        if {type(depth), type(max_pre), type(max_cyc)} != {int}:
            raise ValueError("depth, max_pre and max_cyc must be integers")
        if not (1 <= depth <= MAX_DEPTH):
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
        if max_pre < 0 or max_cyc < 1:
            raise ValueError("max_pre must be >= 0 and max_cyc >= 1")
        return tuple.__new__(cls, (depth, max_pre, max_cyc))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple's own _make (and so _replace) would skip __new__
        return cls(*iterable)

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
COCYCLE_START_DEPTH = 3  # the cocycle depth classify and psi search first


class RunConfig(namedtuple("RunConfig", "depth")):
    """Parameters of the verification pipeline.

    ``depth`` bounds the cocycle depths :func:`~orbiteq.orbit.classify`
    searches and the potential identity it checks; a ``depth`` that is not
    an ``int`` in range (a ``bool`` is not one) raises ValueError.
    ``max_pre`` and ``max_cyc`` are constants, not fields: the preperiod
    and cycle lengths of the points :func:`~orbiteq.orbit.cylinder_family`
    enumerates for the sampled re-check.  No verdict reads them.
    """

    __slots__ = ()
    max_pre = 3
    max_cyc = 4

    def __new__(cls, depth=8):
        if type(depth) is not int:
            raise ValueError("RunConfig arguments must be integers")
        if not (1 <= depth <= MAX_DEPTH):
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
        return tuple.__new__(cls, (depth,))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple's own _make (and so _replace) would skip __new__
        return cls(*iterable)

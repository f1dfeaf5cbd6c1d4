"""Size caps and run parameters.

The caps keep every word table, orbit search and backtracking match at
desk scale; they are deliberately generous for the alphabet sizes this
package targets.
"""

from dataclasses import dataclass

# Hard caps, shared by every module.
MAX_ALPHABET = 64
MAX_DEPTH = 24
MAX_MATCH_STATES = 12  # backtracking isomorphism search
WORD_TABLE_LIMIT = 1_000_000  # safety valve for allowed-word tables
# only the point fallback of the orbit cocycles reads it (a cylinder whose
# two runs never share a state): its search per point reaches HORIZON_MULT
# times (depth + |preperiod| + |cycle|)
HORIZON_MULT = 2


@dataclass(frozen=True)
class RunConfig:
    """Parameters of the verification pipeline.

    ``depth`` bounds the cocycle depths :func:`~orbiteq.orbit.classify`
    searches and the potential identity it checks.  ``max_pre`` and
    ``max_cyc`` size only :func:`~orbiteq.orbit.cylinder_family`, the
    sampled re-check; no verdict reads them.  The defaults are the ones
    the acceptance suite runs with.
    """

    depth: int = 8
    max_pre: int = 3
    max_cyc: int = 4

    def __post_init__(self):
        if not (1 <= self.depth <= MAX_DEPTH):
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
        if self.max_pre < 0 or self.max_cyc < 1:
            raise ValueError("max_pre must be >= 0 and max_cyc >= 1")

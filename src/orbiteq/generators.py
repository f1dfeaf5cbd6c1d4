"""Seeded generators for ground-truth test corpora.

Out-splittings come with their conjugacy codes, so chains of random
splittings produce pairs of shift spaces that are conjugate by
construction, together with the witnessing block codes.  Prefix
exchanges are homeomorphisms that are their own inverses by
construction.  All randomness flows through a caller-supplied
:class:`random.Random`, so corpora are reproducible from a seed.
"""

import random

from .config import MAX_ALPHABET
from .errors import InadmissibleWord, OrbiteqError, PreconditionFailed, TooLarge
from .invariants import out_split
from .maps import compose_block_codes, transducer
from .shifts import build_shift_space

__all__ = [
    "prefix_exchange",
    "random_shift_space",
    "random_single_split",
    "split_chain",
]


def random_shift_space(rng, n, density=0.6):
    """A random valid shift space on ``n`` states: ``TooLarge`` above
    ``MAX_ALPHABET`` states, ``ValueError`` where no draw can be valid."""
    if n > MAX_ALPHABET:
        raise TooLarge(f"alphabet size {n} exceeds cap {MAX_ALPHABET}")
    if n < 2 or density <= 0:
        raise ValueError(f"no valid shift space on {n} states at density {density}")
    while True:
        rows = [
            [1 if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        try:
            return build_shift_space(rows)
        except OrbiteqError:
            continue


def random_single_split(rng, space):
    """Out-split one random branching state into two follower blocks.

    Grows the state count by exactly one.  Returns the same triple as
    :func:`orbiteq.invariants.out_split`.
    """
    branching = [
        i
        for i in range(1, space.n + 1)
        if len(space.matrix.followers[i - 1]) >= 2
    ]
    state = rng.choice(branching)
    followers = list(space.matrix.followers[state - 1])
    rng.shuffle(followers)
    cut = rng.randint(1, len(followers) - 1)
    blocks = [tuple(sorted(followers[:cut])), tuple(sorted(followers[cut:]))]
    return out_split(space, {state: blocks})


def split_chain(rng, base, max_splits=2):
    """Compose 1..``max_splits`` random single-state splittings.

    Returns ``(space, code, inverse)`` where ``code`` is the composed
    conjugacy from ``base`` onto the final space and ``inverse`` its
    exact inverse, both block codes.
    """
    splits = rng.randint(1, max_splits)
    space, code, inverse = random_single_split(rng, base)
    for _ in range(splits - 1):
        space, c, iv = random_single_split(rng, space)
        code = compose_block_codes(c, code)
        inverse = compose_block_codes(inverse, iv)
    return space, code, inverse


def prefix_exchange(space, u, v):
    """The transducer of ``F(u y) = v y``, ``F(v y) = u y``, and the
    identity on every point that starts with neither word.

    ``u`` and ``v`` must be admissible, neither a prefix of the other, and
    end in symbols with the same followers (on a full shift any two, and
    on any shift the same symbol), so ``v y`` is admissible exactly when
    ``u y`` is.  ``F`` is then a homeomorphism and its own inverse, in the
    topological full group of the shift (Matui 2015).  The states are the
    proper prefixes of ``u`` and ``v``, the input held back so far, and
    ``"copy"``.

    Raises
    ------
    InadmissibleWord
        if ``u`` or ``v`` is empty or not admissible.
    PreconditionFailed
        if one word is a prefix of the other, or their last symbols have
        different followers.

    Examples
    --------
    >>> from orbiteq import apply_map, canonical_point
    >>> s = build_shift_space([[1, 1], [1, 1]])
    >>> f = prefix_exchange(s, (1,), (2, 2, 1))
    >>> apply_map(f, canonical_point(s, (1, 2), (1,)))
    Point(2,2,1,2|1)
    """
    u, v = tuple(u), tuple(v)
    for w in (u, v):
        if not w or not space.is_admissible(w):
            raise InadmissibleWord(f"word {w} not admissible")
    if u[: len(v)] == v[: len(u)]:
        raise PreconditionFailed(f"{u} and {v} are comparable")
    fol = space.matrix.followers
    if fol[u[-1] - 1] != fol[v[-1] - 1]:
        raise PreconditionFailed(f"{u} and {v} end in different follower sets")
    swap = {u: v, v: u}
    held = sorted({w[:i] for w in (u, v) for i in range(len(w))})
    delta = {("copy", a): ("copy", (a,)) for a in range(1, space.n + 1)}
    for p in held:
        for a in fol[p[-1] - 1] if p else range(1, space.n + 1):
            w = p + (a,)
            if w in swap:
                delta[(p, a)] = ("copy", swap[w])
            elif w in held:
                delta[(p, a)] = (w, ())
            else:
                delta[(p, a)] = ("copy", w)
    return transducer(space, space, [*held, "copy"], (), delta)

"""One-sided shift spaces over 0-1 transition matrices.

A shift space is the set of right-infinite sequences ``(x_n)`` over the
alphabet ``{1, ..., N}`` with ``A[x_n, x_{n+1}] = 1`` for every ``n``,
together with the left shift that drops the first symbol.  The matrix is
required to be irreducible (strongly connected transition graph) and not
a permutation matrix, so the space is infinite and has dense periodic
orbits.

Points are kept exactly: every value handled here is eventually periodic
and stored in the canonical form ``(preperiod, cycle)`` with a primitive
cycle and the shortest possible preperiod.  Those points are dense, are
closed under shifting and under finite-state maps, and two of them are
equal as sequences iff their canonical forms are equal, which is what
makes every downstream check exact.

Words are tuples of ints; the empty word is ``()``.
"""

from collections import namedtuple
from itertools import compress

from .config import MAX_ALPHABET, MAX_DEPTH, WORD_TABLE_LIMIT
from .errors import (
    InadmissibleWord,
    NotIrreducible,
    NotZeroOne,
    PermutationMatrix,
    TooLarge,
)

__all__ = [
    "TransitionMatrix",
    "ShiftSpace",
    "Point",
    "build_shift_space",
    "canonical_point",
    "shift_point",
    "enumerate_points",
    "point_with_prefix",
    "count_periodic",
]


class IntMatrix(tuple):
    """An integer matrix as a tuple of row tuples of Python ints.

    ``tolist()`` gives the rows as nested lists, for JSON and printing.
    """

    __slots__ = ()

    def tolist(self):
        return [list(row) for row in self]


# keyed by value, so True, 1.0 and other integer types find their int
_BITS = {0: 0, 1: 1}


def _support(rows, n):
    """The 1-based indices of the nonzero entries of each row of length
    ``n``: one ``compress`` per row over a single ``range``."""
    symbols = range(1, n + 1)
    return tuple(tuple(compress(symbols, row)) for row in rows)


class TransitionMatrix:
    """A validated square 0-1 matrix with its transition graph.

    ``entries`` is an :class:`IntMatrix`: immutable rows of 0s and 1s.
    Any iterable of rows is accepted; an entry is valid when it equals
    0 or 1.

    Raises
    ------
    NotZeroOne
        if any entry is outside ``{0, 1}`` (or the rows are not square).
    TooLarge
        if the alphabet exceeds the configured cap; checked first, on the
        row count alone.
    PermutationMatrix
        if every row and column sums to 1.
    NotIrreducible
        if the transition graph is not strongly connected, or some state
        has no outgoing or incoming edge.

    Examples
    --------
    >>> TransitionMatrix([[1, 1], [1, 0]]).n
    2
    >>> TransitionMatrix([[1, 1.5], [1, 0]])
    Traceback (most recent call last):
    ...
    orbiteq.errors.NotZeroOne: transition matrix entries must be 0 or 1
    """

    def __init__(self, rows):
        try:
            raw = tuple(rows)
            if len(raw) > MAX_ALPHABET:
                raise TooLarge(f"alphabet size {len(raw)} exceeds cap {MAX_ALPHABET}")
            raw = tuple(map(tuple, raw))
        except TypeError:
            raw = ()
        n = len(raw)
        if n == 0 or any(len(row) != n for row in raw):
            raise NotZeroOne("transition matrix must be square and nonempty")
        try:
            a = IntMatrix(tuple(map(_BITS.__getitem__, row)) for row in raw)
        except (KeyError, TypeError):
            raise NotZeroOne("transition matrix entries must be 0 or 1") from None
        # followers[i] = sorted tuple of symbols j (1-based) with i -> j
        self.followers = _support(a, n)
        preceders = _support(zip(*a), n)
        degrees = [len(f) for f in self.followers + preceders]
        if all(d == 1 for d in degrees):
            raise PermutationMatrix("matrix is a permutation matrix")
        if 0 in degrees:
            raise NotIrreducible("some state has no outgoing or incoming edge")
        self.n = n
        self.entries = a
        if not (_reaches_all(self.followers) and _reaches_all(preceders)):
            raise NotIrreducible("transition graph is not strongly connected")

    def allows(self, i, j):
        """True iff the transition ``i -> j`` (1-based symbols) is allowed."""
        return bool(self.entries[i - 1][j - 1])

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"TransitionMatrix({self.entries.tolist()})"


def _reaches_all(adj):
    """True iff every state is reachable from state 1 along ``adj``."""
    seen = {1}
    stack = [1]
    while stack:
        for j in adj[stack.pop() - 1]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(adj)


class ShiftSpace:
    """A shift space with cached word tables and word counts per depth.

    The table at depth ``m`` holds exactly the admissible words
    ``w_1 ... w_m`` (every consecutive pair an allowed transition), in
    lexicographic order.  Tables and counts are filled lazily, when a
    longer length is first asked for.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self._words = {1: tuple((i,) for i in range(1, matrix.n + 1))}
        self._counts = [[1] * matrix.n]  # words of length i + 1 by first symbol

    @property
    def n(self):
        return self.matrix.n

    def words(self, m):
        """All admissible words of length ``m``, lexicographically sorted.

        There is one word per nonempty cylinder of depth ``m``.

        Examples
        --------
        >>> s = build_shift_space([[1, 1], [1, 0]])
        >>> s.words(2)
        ((1, 1), (1, 2), (2, 1))
        """
        if m < 1:
            raise ValueError("word length must be >= 1")
        if m > MAX_DEPTH:
            raise TooLarge(f"depth {m} exceeds cap {MAX_DEPTH}")
        have = max(self._words)
        fol = self.matrix.followers
        while have < m:
            prev = self._words[have]
            if self.word_count(have + 1) > WORD_TABLE_LIMIT:  # before allocating
                raise TooLarge(f"word table at depth {have + 1} too large")
            have += 1
            self._words[have] = tuple([w + (b,) for w in prev for b in fol[w[-1] - 1]])
        return self._words[m]

    def word_count(self, m):
        """The number of admissible words of length ``m``, without building
        them; the counts per length are kept and extended on demand."""
        if m < 1:
            raise ValueError("word length must be >= 1")
        counts = self._counts
        while len(counts) < m:
            c = counts[-1]
            counts.append([sum([c[b - 1] for b in f]) for f in self.matrix.followers])
        return sum(counts[m - 1])

    def is_admissible(self, word):
        """True iff every consecutive pair in ``word`` is an allowed transition."""
        if any(not (1 <= a <= self.n) for a in word):
            return False
        return all(b in self.matrix.followers[a - 1] for a, b in zip(word, word[1:]))

    def __eq__(self, other):
        return isinstance(other, ShiftSpace) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"ShiftSpace({self.matrix.entries.tolist()})"


def build_shift_space(rows):
    """Validate a 0-1 matrix and wrap it in a :class:`ShiftSpace`.

    Validation is eager: irreducibility, the non-permutation requirement
    and the entry range are all checked here.

    Examples
    --------
    >>> build_shift_space([[1, 1], [1, 1]]).n
    2
    """
    if isinstance(rows, TransitionMatrix):
        return ShiftSpace(rows)
    return ShiftSpace(TransitionMatrix(rows))


class Point(namedtuple("Point", "preperiod cycle")):
    """An eventually periodic point in canonical form.

    ``preperiod`` may be empty; ``cycle`` is nonempty and primitive (not a
    power of a shorter word), and no preperiod symbol can be absorbed by
    rotating the cycle.  Two Point values are equal iff they denote the
    same sequence.  Construct through :func:`canonical_point`, which
    establishes the invariants.  A Point is the tuple
    ``(preperiod, cycle)``, and orders as one.
    """

    __slots__ = ()

    def expand(self, n):
        """The first ``n`` symbols of the sequence, as a tuple."""
        pre, cyc = self.preperiod, self.cycle
        if n <= len(pre):
            return pre[:n]
        k = n - len(pre)
        reps = -(-k // len(cyc))
        return pre + (cyc * reps)[:k]

    def __repr__(self):
        p = ",".join(map(str, self.preperiod))
        c = ",".join(map(str, self.cycle))
        return f"Point({p}|{c})"


def _primitive(cycle):
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


def _canonical_unchecked(pre, cyc):
    """Canonical form without admissibility validation.

    Only for sequences that are admissible by construction (shifts of
    valid points, outputs of validated maps).
    """
    cyc = _primitive(cyc)
    k = len(pre)
    while k and pre[k - 1] == cyc[-1]:
        cyc = (cyc[-1],) + cyc[:-1]
        k -= 1
    return Point(pre[:k], cyc)


def canonical_point(space, pre, cyc):
    """Build the canonical :class:`Point` for the sequence ``pre . cyc^inf``.

    The cycle is reduced to its primitive root, then preperiod symbols are
    absorbed into the cycle while the last preperiod symbol equals the
    last cycle symbol (rotating the cycle right each time).  Both steps
    are forced, so any two descriptions of the same sequence canonicalize
    identically.

    Raises
    ------
    InadmissibleWord
        if ``pre . cyc . cyc`` is not admissible (this includes the wrap
        transition from the last cycle symbol to the first).

    Examples
    --------
    >>> s = build_shift_space([[1, 1], [1, 1]])
    >>> canonical_point(s, (), (1, 2, 1, 2))
    Point(|1,2)
    >>> canonical_point(s, (1,), (2, 1))
    Point(|1,2)
    """
    pre, cyc = tuple(pre), tuple(cyc)
    if not cyc:
        raise InadmissibleWord("cycle must be nonempty")
    word = pre + cyc + cyc
    if not space.is_admissible(word):
        raise InadmissibleWord(f"word {word} not admissible")
    return _canonical_unchecked(pre, cyc)


def shift_point(space, p, n=1):
    """Drop the first ``n`` symbols of ``p`` and return the canonical result.

    Inside the preperiod this is a slice of it; past the preperiod it is
    the cycle rotated by ``(n - |preperiod|) mod |cycle|``.  Either way
    the result is canonical without further reduction.

    Examples
    --------
    >>> s = build_shift_space([[1, 1], [1, 1]])
    >>> shift_point(s, canonical_point(s, (2,), (1,)))
    Point(|1)
    >>> shift_point(s, canonical_point(s, (), (1, 2)))
    Point(|2,1)
    >>> shift_point(s, canonical_point(s, (2, 2), (1, 1, 2)), 5)
    Point(|1,1,2)
    """
    if n < 0:
        raise ValueError("shift count must be >= 0")
    pre, cyc = p.preperiod, p.cycle
    if n <= len(pre):
        return Point(pre[n:], cyc)
    r = (n - len(pre)) % len(cyc)
    return Point((), cyc[r:] + cyc[:r])


def enumerate_points(space, max_pre, max_cyc):
    """All canonical points with ``|preperiod| <= max_pre, |cycle| <= max_cyc``.

    An admissible pair ``(pre, cyc)`` is canonical exactly when ``cyc`` is
    primitive and ``pre`` is empty or does not end in ``cyc[-1]``; those
    pairs are listed directly, sorted, in a list built afresh on every
    call.

    Examples
    --------
    >>> s = build_shift_space([[1, 1], [1, 1]])
    >>> len(enumerate_points(s, 0, 1))
    2
    """
    if max_pre < 0:
        raise ValueError("max_pre must be >= 0")
    if max_cyc < 1:
        raise ValueError("max_cyc must be >= 1")
    fol = space.matrix.followers
    cycles = []
    for m in range(1, max_cyc + 1):
        for w in space.words(m):
            if w[0] in fol[w[-1] - 1] and _primitive(w) == w:
                cycles.append(w)
    prefixes = [()]
    for m in range(1, max_pre + 1):
        prefixes.extend(space.words(m))
    points = [
        Point(pre, cyc)
        for cyc in cycles
        for pre in prefixes
        if not pre or (pre[-1] != cyc[-1] and cyc[0] in fol[pre[-1] - 1])
    ]
    return sorted(points)


def _tree_path(parent, x):
    """The walk from the root of the tree ``parent`` (child -> parent, the
    root's parent None) down to ``x``."""
    walk = []
    while x is not None:
        walk.append(x)
        x = parent[x]
    return tuple(reversed(walk))


def _shortest_walk(successors, start, goal):
    """The shortest walk ``(start, ..., x)`` to the first node ``x`` with
    ``goal(x)``, or None when no such node is reachable.

    Breadth-first: ``successors(x)`` is taken in order, each node's
    parent is the node that first reached it, and ``goal`` is tested as a
    node leaves the queue, so a tie goes to the earlier successor and a
    goal at ``start`` gives ``(start,)``.
    """
    parent = {start: None}
    queue = [start]
    for x in queue:
        if goal(x):
            return _tree_path(parent, x)
        for y in successors(x):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def point_with_prefix(space, word):
    """Some canonical point whose sequence starts with ``word``.

    Used to guarantee every cylinder of a given depth has at least one
    representative: the word is closed up by the shortest cycle through
    its last symbol, the shortest walk from it to a state it follows.
    """
    word = tuple(word)
    if not space.is_admissible(word) or not word:
        raise InadmissibleWord(f"word {word} not admissible")
    start = word[-1]
    fol = space.matrix.followers
    walk = _shortest_walk(lambda x: fol[x - 1], start, lambda x: start in fol[x - 1])
    # the walk after the start, closed by the step back to it, is a cycle
    # word whose wrap is the walk's first step
    return _canonical_unchecked(word, walk[1:] + (start,))


def count_periodic(space, n):
    """Number of points fixed by the n-fold shift.

    Those are exactly the canonical points with empty preperiod whose
    cycle length divides ``n``; the count is ``trace(A^n)``, with ``A^n``
    built up from the follower lists.  ``ValueError`` if ``n < 0``.

    Examples
    --------
    >>> count_periodic(build_shift_space([[1, 1], [1, 0]]), 5)
    11
    """
    if n < 0:
        raise ValueError("the shift count must be nonnegative")
    n_states = space.n
    # walks[i][j] = number of walks of the current length from i to j
    walks = [[int(i == j) for j in range(n_states)] for i in range(n_states)]
    for _ in range(n):
        walks = [
            [sum(col) for col in zip(*(walks[b - 1] for b in f))]
            for f in space.matrix.followers
        ]
    return sum(walks[i][i] for i in range(n_states))

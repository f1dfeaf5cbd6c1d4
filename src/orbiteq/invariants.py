"""Conjugacy generators, amalgamation oracles, and integer invariants.

Out-splitting a state partitions its follower set; each block becomes a
copy of the state.  The move comes with an explicit conjugacy (a 2-block
code down to the split space and a 1-block code back), so composed
splittings manufacture ground-truth conjugate pairs.  The inverse move,
column amalgamation, merges two states with equal columns and adds their
rows, so the matrix becomes a nonnegative integer matrix counting edges.
Iterating it until no two columns are equal gives Williams' total
amalgamation, unique up to a state permutation: two one-sided shifts are
conjugate exactly when their total amalgamations are isomorphic.  The
merges also carry each 2-word to a terminal edge, and the explicit
conjugacy is read off those edge labels.

The integer side computes the Smith normal form of ``I - A`` exactly, in
one pass, and reads every invariant off its diagonal once: the cokernel
factors of ``I - A`` and of its transpose ``I - A^T`` (the K_0 group of
the Cuntz-Krieger algebra), the rank of ``ker(I - A^T)`` (K_1), and,
from the determinants of its unimodular factors, the sign of
``det(I - A)``.  Those are preserved down the whole equivalence ladder,
so disagreement refutes every rung at once; agreement never certifies
anything.
"""

from dataclasses import dataclass

from .config import MAX_MATCH_STATES
from .errors import InvalidPartition, TooLarge
from .functions import _least_table
from .maps import _composite_mismatch, compile_block_code
from .shifts import IntMatrix, ShiftSpace, TransitionMatrix, build_shift_space

__all__ = [
    "InvariantReport",
    "ObstructionReport",
    "out_split",
    "total_amalgamation",
    "amalgamation_terminals",
    "decide_one_sided_conjugacy",
    "conjugacy_from_amalgamation",
    "matrices_isomorphic",
    "find_isomorphism",
    "smith_normal_form",
    "exact_det",
    "bowen_franks",
    "invariant_report",
    "obstruction_report",
]


# ---------------------------------------------------------------------------
# state splitting


def out_split(space, partition):
    """Split states by a partition of each follower set.

    ``partition`` maps each state (1-based) to a list of blocks; the
    blocks must be nonempty, disjoint, and cover exactly the state's
    followers.  States absent from the mapping keep the trivial
    partition.

    Returns ``(split_space, code, inverse)`` where ``code`` is the
    induced 2-block conjugacy onto the split space and ``inverse`` the
    1-block code collapsing the copies; the pair verifies as mutually
    inverse by construction.

    Raises
    ------
    InvalidPartition
        on empty, overlapping, or non-covering blocks.
    """
    m = space.matrix
    blocks = {}
    for i in range(1, m.n + 1):
        fol = set(m.followers[i - 1])
        given = partition.get(i)
        if given is None:
            blocks[i] = [tuple(sorted(fol))]
            continue
        cover = set()
        cleaned = []
        for blk in given:
            blk = tuple(sorted(set(blk)))
            if not blk:
                raise InvalidPartition(f"empty block for state {i}")
            if cover & set(blk):
                raise InvalidPartition(f"overlapping blocks for state {i}")
            cover |= set(blk)
            cleaned.append(blk)
        if cover != fol:
            raise InvalidPartition(
                f"blocks for state {i} must cover exactly its followers"
            )
        blocks[i] = cleaned
    copies = [(i, t) for i in range(1, m.n + 1) for t in range(len(blocks[i]))]
    idx = {c: k + 1 for k, c in enumerate(copies)}
    size = len(copies)
    rows = [[0] * size for _ in range(size)]
    for (i, t) in copies:
        for j in blocks[i][t]:
            for u in range(len(blocks[j])):
                rows[idx[(i, t)] - 1][idx[(j, u)] - 1] = 1
    split_space = build_shift_space(rows)
    # block index of each transition: the copy a 2-word lands in
    block_of = {}
    for i in range(1, m.n + 1):
        for t, blk in enumerate(blocks[i]):
            for j in blk:
                block_of[(i, j)] = t
    code_table = {
        (a, b): idx[(a, block_of[(a, b)])] for (a, b) in space.words(2)
    }
    code = compile_block_code(space, split_space, 2, code_table)
    inv_table = {(idx[(i, t)],): i for (i, t) in copies}
    inverse = compile_block_code(split_space, space, 1, inv_table)
    return split_space, code, inverse


# ---------------------------------------------------------------------------
# amalgamation


def _int(v):
    """``v`` as a Python int; a ``ValueError`` unless it equals one, so a
    fraction is never truncated and a string never accepted."""
    i = int(v)
    if i != v:
        raise ValueError(f"matrix entry {v!r} is not an integer")
    return i


def _entries(x, capped=True):
    """Integer entries of a shift space, a transition matrix or any
    iterable of integer rows, as an :class:`IntMatrix`.

    Raises
    ------
    TooLarge
        if ``capped`` and the matrix exceeds the matching cap.
    ValueError
        if an entry is not an integer.
    """
    if isinstance(x, ShiftSpace):
        x = x.matrix
    if isinstance(x, TransitionMatrix):
        a = x.entries
    else:
        a = IntMatrix(tuple(_int(v) for v in row) for row in x)
    if capped and len(a) > MAX_MATCH_STATES:
        raise TooLarge(f"state count exceeds matching cap {MAX_MATCH_STATES}")
    return a


def _amalgamate(entries):
    """Williams' total column amalgamation, with the edge each 2-word lands on.

    Repeatedly merges the first pair ``p < q`` of states with equal
    columns: row ``q`` is added to row ``p`` and ``q`` is dropped.  Returns
    ``(t, edge)`` where ``edge`` maps every allowed 2-word of the 0-1 matrix
    (1-based symbols) to an edge ``(source, target, index)`` of ``t``
    (0-based states, ``index < t[source][target]``).  Across a merge an
    edge into ``q`` becomes the edge into ``p`` with the same source and
    index, and an edge out of ``q`` an edge out of ``p`` whose index is
    shifted by the pre-merge count ``t[p][d]``.  Reading the labels of
    consecutive 2-words is a one-sided conjugacy onto the edge shift of
    ``t``; its inverse reads one more edge per merge.  ``t`` is returned
    as an :class:`IntMatrix`.
    """
    t = [list(row) for row in entries]
    edge = {
        (i + 1, j + 1): (i, j, 0)
        for i, row in enumerate(t)
        for j, x in enumerate(row)
        if x
    }
    while True:
        n = len(t)
        cols = list(zip(*t))
        pair = next(
            ((p, q) for p in range(n) for q in range(p + 1, n) if cols[p] == cols[q]),
            None,
        )
        if pair is None:
            return IntMatrix(tuple(row) for row in t), edge
        p, q = pair

        def move(s, d, k):
            if s == q:
                s, k = p, k + t[p][d]
            if d == q:
                d = p
            return s - (s > q), d - (d > q), k

        edge = {w: move(*e) for w, e in edge.items()}
        t[p] = [x + y for x, y in zip(t[p], t[q])]
        del t[q]
        for row in t:
            del row[q]


def total_amalgamation(matrix):
    """Williams' total column amalgamation of a 0-1 matrix.

    States with equal columns merge and their rows add, until no two
    columns are equal.  The result is a nonnegative integer matrix, unique
    up to a state permutation, returned as an :class:`IntMatrix`.

    Examples
    --------
    >>> total_amalgamation(build_shift_space([[1, 1], [1, 1]])).tolist()
    [[2]]
    """
    t, _ = _amalgamate(_entries(matrix, capped=False))
    return t


def amalgamation_terminals(matrix):
    """The total amalgamation as a one-element tuple."""
    return (total_amalgamation(matrix),)


def decide_one_sided_conjugacy(a, b):
    """Are the one-sided shifts of two matrices topologically conjugate?

    True iff their total amalgamations agree up to a state permutation
    (Williams).

    Raises
    ------
    TooLarge
        if either matrix exceeds the matching cap.
    """
    ta, _ = _amalgamate(_entries(a))
    tb, _ = _amalgamate(_entries(b))
    return _find_iso(ta, tb) is not None


def _code_through(source, source_edge, target, target_edge):
    """The block code ``source -> target`` that commutes with the edge labels.

    Both label maps send 2-words onto edges of one terminal matrix.  For
    the least ``r`` at which the labels of a target word's first ``r + 1``
    2-words determine its first symbol, that symbol is read off the labels
    of the source's ``(r + 2)``-words; trailing window symbols the table
    does not depend on are then dropped.
    """
    def labels(edge, w):
        return tuple(edge[w[i : i + 2]] for i in range(len(w) - 1))

    for window in range(2, target.n + 2):
        first = {}
        if all(
            first.setdefault(labels(target_edge, w), w[0]) == w[0]
            for w in target.words(window)
        ):
            break
    else:
        raise AssertionError("edge labels do not determine the target symbol")
    table = {w: first[labels(source_edge, w)] for w in source.words(window)}
    return compile_block_code(source, target, *_least_table(window, table))


def conjugacy_from_amalgamation(a, b):
    """An explicit conjugacy pair between two shift spaces, or None.

    Both matrices are amalgamated once; if the terminals are isomorphic,
    each direction is the block code that agrees on terminal edges, and
    both composites are checked to be the identity word by word
    (``maps._composite_mismatch``) before returning.

    Raises
    ------
    TooLarge
        if either matrix exceeds the matching cap, or a word table the
        codes or their composites need exceeds its cap.
    """
    ta, edge_a = _amalgamate(_entries(a))
    tb, edge_b = _amalgamate(_entries(b))
    perm = _find_iso(ta, tb)
    if perm is None:
        return None
    edge_a = {w: (perm[s], perm[d], k) for w, (s, d, k) in edge_a.items()}
    space_a = a if isinstance(a, ShiftSpace) else ShiftSpace(a)
    space_b = b if isinstance(b, ShiftSpace) else ShiftSpace(b)
    h = _code_through(space_a, edge_a, space_b, edge_b)
    h_inv = _code_through(space_b, edge_b, space_a, edge_a)
    if _composite_mismatch(h_inv, h) or _composite_mismatch(h, h_inv):
        raise AssertionError("codes through isomorphic terminals are not inverse")
    return h, h_inv


# ---------------------------------------------------------------------------
# matrix isomorphism up to state permutation


def _color_classes(a):
    n = len(a)
    cols = list(zip(*a))
    colors = [(sum(a[i]), sum(cols[i]), a[i][i]) for i in range(n)]
    while True:
        sig = []
        for i in range(n):
            outs = tuple(sorted(colors[j] for j, x in enumerate(a[i]) if x))
            ins = tuple(sorted(colors[j] for j, x in enumerate(cols[i]) if x))
            sig.append((colors[i], outs, ins))
        relabel = {s: k for k, s in enumerate(sorted(set(sig)))}
        new = [relabel[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _find_iso(a, b):
    """A permutation ``perm`` with ``a[i][j] == b[perm[i]][perm[j]]``, or None."""
    n = len(a)
    if n != len(b):
        return None
    ca, cb = _color_classes(a), _color_classes(b)
    if sorted(ca) != sorted(cb):
        return None
    perm = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or ca[i] != cb[j]:
                continue
            ok = True
            for i2 in range(i):
                j2 = perm[i2]
                if a[i][i2] != b[j][j2] or a[i2][i] != b[j2][j]:
                    ok = False
                    break
            if ok and a[i][i] == b[j][j]:
                perm[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                perm[i] = None
                used[j] = False
        return False

    return perm if extend(0) else None


def matrices_isomorphic(a, b):
    """True iff the matrices agree after some relabeling of states."""
    return _find_iso(_entries(a), _entries(b)) is not None


def find_isomorphism(a, b):
    """A relabeling ``perm`` (0-based, ``a -> b``) or None."""
    return _find_iso(_entries(a), _entries(b))


# ---------------------------------------------------------------------------
# exact integer linear algebra


def exact_det(m):
    """Exact integer determinant (fraction-free Gaussian elimination); the
    0x0 determinant is 1.  An entry that is not an integer is a
    ``ValueError``."""
    a = [[_int(x) for x in row] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(cols)]
        for i in range(rows)
    ]


def smith_normal_form(m):
    """Exact Smith normal form ``U @ m @ V = D`` with unimodular U, V.

    ``D`` is diagonal with nonnegative entries in a divisibility chain
    ``d_1 | d_2 | ...``, zeros last.  One pass builds it: step ``s``
    pivots on the nonzero entry of least absolute value in the trailing
    block (ties broken by position), clears the pivot's row and column by
    floor division, and pivots again while a remainder is left.  When
    some trailing entry is not divisible by the pivot, that entry's row
    is added to the pivot row and the step goes on, so the pivot that
    ends the step divides everything after it.  The certificate and the
    unimodularity of U and V are verified exactly before returning.

    ``m`` is any iterable of integer rows; an entry that is not an integer
    is a ``ValueError``.  Returns ``(U, D, V)`` as nested lists of Python
    ints.
    """
    u, d, v, _ = _smith(m)
    return u, d, v


def _smith(m):
    """:func:`smith_normal_form` with ``det U * det V`` (which is 1 or -1)."""
    a = [[_int(x) for x in row] for row in m]
    m_int = [row[:] for row in a]
    # an input with no rows keeps its column count only in its ``shape``
    rows, cols = len(a), (len(a[0]) if a else getattr(m, "shape", (0,))[-1])
    u, v = _eye(rows), _eye(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    for s in range(min(rows, cols)):
        while True:
            nonzero = [
                (abs(a[i][j]), i, j)
                for i in range(s, rows)
                for j in range(s, cols)
                if a[i][j]
            ]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[s], a[i] = a[i], a[s]
            u[s], u[i] = u[i], u[s]
            for x in a + v:  # swap columns s and j of a and v
                x[s], x[j] = x[j], x[s]
            p = a[s][s]
            for i in range(s + 1, rows):
                if a[i][s]:
                    row_op(i, s, a[i][s] // p)
            for j in range(s + 1, cols):
                if a[s][j]:
                    col_op(j, s, a[s][j] // p)
            if any(a[i][s] for i in range(s + 1, rows)) or any(a[s][s + 1 :]):
                continue  # a remainder is left: pivot on it
            bad = next(
                (i for i in range(s + 1, rows) for j in range(s + 1, cols)
                 if a[i][j] % p),
                None,
            )
            if bad is None:
                break
            row_op(s, bad, -1)  # row_s += row_bad
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]

    if _matmul(_matmul(u, m_int), v) != a:
        raise AssertionError("normal form certificate failed")
    det_u, det_v = exact_det(u), exact_det(v)
    if abs(det_u) != 1 or abs(det_v) != 1:
        raise AssertionError("transformation matrices are not unimodular")
    return u, a, v, det_u * det_v


# ---------------------------------------------------------------------------
# invariant reports


@dataclass(frozen=True)
class InvariantReport:
    """Cokernel invariants of ``I - A`` and ``I - A^T``.

    ``bf_factors`` lists invariant factors with the trivial 1s dropped
    and zeros retained (each zero is a free summand).  The two matrices
    are transposes of each other and so share one Smith normal form:
    ``bf_factors`` is also the K_0 factor list, and its zeros count the
    rank of K_1.
    """

    bf_factors: tuple
    det_sign: int


def bowen_franks(a):
    """Invariant factors of the cokernel of ``I - A``, and sign of its det.

    The factors are the Smith diagonal of ``I - A`` with the trivial 1s
    dropped.  ``I - A^T`` is its transpose and has the same diagonal, so
    they are also the factors of ``K_0 = coker(I - A^T)``, and their
    zeros count the rank of ``K_1 = ker(I - A^T)``.

    The sign comes from the same certificate: ``U (I - A) V = D`` gives
    ``det(I - A) = det U * det V * prod(d_i)``, and every ``d_i >= 0``.
    """
    a = a.matrix if isinstance(a, ShiftSpace) else a
    i_a = [
        [int(i == j) - x for j, x in enumerate(row)]
        for i, row in enumerate(a.entries)
    ]
    _, d, _, unit = _smith(i_a)
    diag = [d[i][i] for i in range(a.n)]
    sign = unit if all(diag) else 0
    return tuple(x for x in diag if x != 1), sign


def invariant_report(a):
    return InvariantReport(*bowen_franks(a))


@dataclass(frozen=True)
class ObstructionReport:
    """Which equivalence rungs an invariant mismatch rules out.

    ``ruled_out`` maps rung names to booleans.  If the cokernel factors
    or the determinant sign differ, orbit equivalence is impossible and
    everything below it on the ladder falls with it.  Agreement proves
    nothing and is reported as no obstruction found.
    """

    left: InvariantReport
    right: InvariantReport
    ruled_out: dict

    @property
    def obstructed(self):
        return any(self.ruled_out.values())


def obstruction_report(a, b):
    ra, rb = invariant_report(a), invariant_report(b)
    mismatch = ra.bf_factors != rb.bf_factors or ra.det_sign != rb.det_sign
    rungs = ("coe", "strong_coe", "eventual_conjugacy", "conjugacy")
    return ObstructionReport(ra, rb, {r: mismatch for r in rungs})

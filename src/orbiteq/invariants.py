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
merges also carry each 2-word to a terminal edge; each direction of the
explicit conjugacy reads, per source word, the target states that start
a word with its edge labels.  A transition matrix keeps its amalgamation
(terminal and merge log, then the labels once a conjugacy needs them, and
the match of its terminal against the last partner's), so ``compare``
merges each matrix's columns once and searches for one isomorphism per
pair.

The integer side computes ``det(I - A)`` exactly and reads its sign off
it.  The cokernel factors of ``I - A`` and of its transpose ``I - A^T``
(the K_0 group of the Cuntz-Krieger algebra) and the rank of
``ker(I - A^T)`` (K_1) are the diagonal of the Smith normal form of
``I - A``.  Both the determinant and the cokernel are those of ``I - T``
for the total amalgamation ``T``, which is no larger, so they are read
off it.  When ``|det(I - A)|`` is squarefree, and no larger than
Hadamard's bound for the matching cap, the divisibility chain forces
that diagonal to ``1, ..., 1, |det|`` and no Smith form is built;
otherwise it is computed exactly, in one pass, with a certificate.
Those are preserved down the whole equivalence ladder, so disagreement
refutes every rung at once; agreement never certifies anything.  The
invariants depend only on ``T`` up to a state permutation, so when a
pair's terminals match, ``obstruction_report`` reads them once.
"""

from collections import namedtuple
from functools import cached_property
from itertools import accumulate
from operator import mul

from .config import MAX_MATCH_STATES, WORD_TABLE_LIMIT
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
    # the copies of a state are consecutive, one per block, in state order
    copies = [(i, blk) for i in range(1, m.n + 1) for blk in blocks[i]]
    owner = [i for i, _ in copies]
    split_space = build_shift_space([[j in blk for j in owner] for _, blk in copies])
    # the copy (1-based) that each transition lands in
    copy_of = {(i, j): k for k, (i, blk) in enumerate(copies, 1) for j in blk}
    code_table = {w: copy_of[w] for w in space.words(2)}
    code = compile_block_code(space, split_space, 2, code_table)
    inv_table = {(k,): i for k, i in enumerate(owner, 1)}
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
        if ``capped`` and the row count, read before any row is copied,
        exceeds the matching cap.
    ValueError
        if an entry is not an integer or the rows are not square.
    """
    if isinstance(x, ShiftSpace):
        x = x.matrix
    valid = isinstance(x, TransitionMatrix)
    a = x.entries if valid else tuple(x)
    if capped and len(a) > MAX_MATCH_STATES:
        raise TooLarge(f"state count exceeds matching cap {MAX_MATCH_STATES}")
    if not valid:
        a = IntMatrix(tuple(_int(v) for v in row) for row in a)
        if any(len(row) != len(a) for row in a):
            raise ValueError("matrix is not square")
    return a


def _merge_columns(entries):
    """Williams' total column amalgamation, as a terminal and a merge log.

    Repeatedly merges the first pair ``p < q`` of states with equal
    columns: row ``q`` is added to row ``p`` and ``q`` is dropped.  Returns
    ``(t, log)``: the terminal ``t``, an :class:`IntMatrix`, and one
    ``(p, q, row p before the merge)`` per merge, in order.  The first
    test is whether any two columns are equal at all; when none are,
    ``entries`` is returned as it is, with an empty log, and nothing is
    copied.  A transition matrix keeps ``(t, log)`` in its
    :class:`_Amalgamation` from the first time ``bowen_franks``,
    ``obstruction_report``, ``total_amalgamation``,
    ``decide_one_sided_conjugacy`` or ``conjugacy_from_amalgamation`` reads
    it; plain rows are merged afresh on each call.
    """
    t, log = entries, []
    while True:
        cols = list(zip(*t))
        if len(set(cols)) == len(cols):
            return (IntMatrix(map(tuple, t)) if log else t), log
        first, pair = {}, None
        for q, col in enumerate(cols):
            p = first.setdefault(col, q)
            if p != q and (pair is None or p < pair[0]):
                pair = p, q
        if not log:
            t = [list(row) for row in t]
        p, q = pair
        log.append((p, q, t[p]))  # t[p] is rebound, so no later merge edits it
        t[p] = [x + y for x, y in zip(t[p], t[q])]
        del t[q]
        for row in t:
            del row[q]


class _Amalgamation:
    """One matrix's total amalgamation: its ``entries``, the ``terminal``
    and merge ``log`` of :func:`_merge_columns`, and the ``edge`` labels,
    replayed from the log on first use, so a pair whose terminals differ
    never builds them.  A transition matrix keeps it from the first time
    it is asked for (:func:`_amalgamation`), the way a :class:`ShiftSpace`
    keeps its word tables; nothing kept is changed afterwards but
    ``matched``, the ``(partner, perm)`` of the last :func:`_match`.
    """

    def __init__(self, entries):
        self.entries = entries
        self.terminal, self.log = _merge_columns(entries)
        self.matched = None, None

    @cached_property
    def edge(self):
        """Maps every allowed 2-word of ``entries`` (1-based symbols) to an
        edge ``(source, target, index)`` of the terminal (0-based states,
        ``index < terminal[source][target]``).  Across a merge an edge into
        ``q`` becomes the edge into ``p`` with the same source and index,
        and an edge out of ``q`` an edge out of ``p`` whose index is
        shifted by the pre-merge count ``row_p[d]``.  Reading the labels of
        consecutive 2-words is a one-sided conjugacy onto the edge shift of
        the terminal; its inverse reads one more edge per merge.
        """
        edge = {}
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if x:
                    s, d, k = i, j, 0
                    for p, q, row_p in self.log:
                        if s == q:
                            s, k = p, k + row_p[d]
                        if d == q:
                            d = p
                        s, d = s - (s > q), d - (d > q)
                    edge[i + 1, j + 1] = s, d, k
        return edge


def _amalgamation(x, capped=True):
    """The :class:`_Amalgamation` of ``x``, after :func:`_entries` (so a
    ``TooLarge`` comes before any merge).  A shift space's or transition
    matrix's is kept on the matrix; plain rows are amalgamated afresh."""
    a = _entries(x, capped)
    m = x.matrix if isinstance(x, ShiftSpace) else x
    if not isinstance(m, TransitionMatrix):
        return _Amalgamation(a)
    if "_amalgamation" not in vars(m):
        m._amalgamation = _Amalgamation(a)
    return m._amalgamation


def _match(am_a, am_b):
    """``_find_iso(am_a.terminal, am_b.terminal)``, kept on ``am_a`` for
    the partner ``am_b`` so that ``obstruction_report``,
    ``decide_one_sided_conjugacy`` and ``conjugacy_from_amalgamation`` on
    one pair search once.  The one slot is compared by identity and holds
    the partner itself, so it is never read for another: terminals never
    change, and a partner cannot be freed while its id is kept.
    """
    partner, perm = am_a.matched
    if partner is not am_b:
        perm = _find_iso(am_a.terminal, am_b.terminal)
        am_a.matched = am_b, perm
    return perm


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
    return _amalgamation(matrix, capped=False).terminal


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
    return _match(_amalgamation(a), _amalgamation(b)) is not None


class _Preceders(dict):
    """One label's target 2-words ``(u, v)``, as a map from a mask of target
    states to the mask of the ``u`` whose ``v`` it holds, filled on use."""

    def __init__(self):
        self.words = []

    def __missing__(self, mask):
        self[mask] = p = sum({1 << u - 1 for u, v in self.words if mask >> v - 1 & 1})
        return p


def _codes_through(space_a, edge_a, space_b, edge_b):
    """The block codes ``a -> b`` and ``b -> a`` that commute with the
    edge labels, each read off first-symbol masks of its source's words.

    Both label maps send 2-words onto edges of one terminal matrix.  The
    mask ``R(x)`` of a source word ``x`` has bit ``u - 1`` set for each
    target state ``u`` that starts a target word with the labels of ``x``:
    ``R((a,))`` holds every state and ``R(x)`` is the :class:`_Preceders` of
    ``R(x[1:])`` along the label of ``x[:2]``.  The ``w``-words that start
    ``a b`` are ``a`` before the run of ``(w - 1)``-words that start with
    ``b`` (in ``space.words`` order, counted by ``space._counts``), so a
    window's masks are one ``map`` per 2-word over the last window's.  A
    direction's window is the least at which every mask is one state, the
    value; trailing symbols are then dropped (``functions._least_table``).
    This tests whether the target's own words' labels fix their first
    symbol: either space's labels are a conjugacy onto the terminal's
    one-sided edge shift, and every word of an irreducible matrix, as every
    path of the terminal, extends to a point, so the ``w``-words of both
    spaces carry exactly the terminal's ``(w - 1)``-paths.  The search holds
    one int per source word at this window and the last, and no target word;
    the one word table built per code is its source's, at its window.
    ``TooLarge`` if a word count passes the cap, checked at each window on
    both spaces, the target of the first open direction first.  An
    ``AssertionError`` names a source label the target lacks.
    """
    spaces, edges = (space_a, space_b), (edge_a, edge_b)
    found, masks, preds = [None, None], [None, None], [None, None]
    for window in range(2, max(space_a.n, space_b.n) + 2):
        for k in (1, 0) if found[0] is None else (0, 1):  # target first
            if spaces[k].word_count(window) > WORD_TABLE_LIMIT:  # before allocating
                raise TooLarge(f"word table at depth {window} too large")
        for k in [k for k in (0, 1) if found[k] is None]:  # spaces[k] into the other
            if window == 2:
                head = {}
                for (u, _), label in edges[1 - k].items():
                    head[label] = head.get(label, 0) | 1 << u - 1
                try:
                    masks[k] = [head[label] for label in edges[k].values()]
                except KeyError as e:
                    raise AssertionError(f"unknown edge label {e.args[0]}") from None
            else:
                if window == 3:
                    preds[k] = {x: _Preceders() for x in set(edges[1 - k].values())}
                    for (u, v), label in edges[1 - k].items():
                        preds[k][label].words.append((u, v))
                starts = [0, *accumulate(spaces[k]._counts[window - 2])]
                runs, masks[k] = [masks[k][i:j] for i, j in zip(starts, starts[1:])], []
                for (_, b), label in edges[k].items():
                    masks[k] += map(preds[k][label].__getitem__, runs[b - 1])
            if all(m and not m & m - 1 for m in set(masks[k])):
                found[k] = window, list(map(int.bit_length, masks[k]))
                masks[k] = preds[k] = runs = None  # before any word is built
            elif window > spaces[1 - k].n:
                raise AssertionError("edge labels do not determine the target symbol")
        if None not in found:
            break
    codes = []
    for k, source in enumerate(spaces):
        (window, values), found[k] = found[k], None  # freed once lowered
        d, values = _least_table(source, window, values)
        table = zip(source.words(d), values)  # the dict is freed once rekeyed
        codes.append(compile_block_code(source, spaces[1 - k], d, dict(table)))
    return tuple(codes)


def conjugacy_from_amalgamation(a, b):
    """An explicit conjugacy pair between two shift spaces, or None.

    Each matrix is amalgamated once and the terminals are matched once (a
    transition matrix keeps both); if the terminals are isomorphic, each
    direction is the block code that agrees on terminal edges, and both
    composites are checked to be the identity word by word
    (``maps._composite_mismatch``) before returning.

    Raises
    ------
    TooLarge
        if either matrix exceeds the matching cap, or a word table the
        codes or their composites need exceeds its cap.
    """
    am_a, am_b = _amalgamation(a), _amalgamation(b)
    perm = _match(am_a, am_b)
    if perm is None:
        return None
    edge_a = {w: (perm[s], perm[d], k) for w, (s, d, k) in am_a.edge.items()}
    space_a = a if isinstance(a, ShiftSpace) else build_shift_space(a)
    space_b = b if isinstance(b, ShiftSpace) else build_shift_space(b)
    h, h_inv = _codes_through(space_a, edge_a, space_b, am_b.edge)
    if _composite_mismatch(h_inv, h) or _composite_mismatch(h, h_inv):
        raise AssertionError("codes through isomorphic terminals are not inverse")
    return h, h_inv


# ---------------------------------------------------------------------------
# matrix isomorphism up to state permutation


def _color_classes(a):
    """Each state's own colour: row sum, column sum and diagonal entry."""
    return [(sum(r), sum(c), r[i]) for i, (r, c) in enumerate(zip(a, zip(*a)))]


def _find_iso(a, b):
    """The least ``perm`` in lexicographic order with
    ``a[i][j] == b[perm[i]][perm[j]]``, or None.

    Depth first: states ``0, 1, ...`` of ``a`` each take the least free
    state of ``b`` of their own colour that agrees with those before.
    Every valid ``perm`` keeps colours, so pruning on them cuts none.
    """
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
        ai = a[i]
        for j in range(n):
            if used[j] or ca[i] != cb[j]:
                continue
            bj = b[j]
            for i2 in range(i):
                j2 = perm[i2]
                if ai[i2] != bj[j2] or a[i2][i] != b[j2][j]:
                    break
            else:
                perm[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return perm if extend(0) else None


def find_isomorphism(a, b):
    """The least relabeling ``perm`` (0-based, ``a -> b``) in lexicographic
    order, or None; ``find_isomorphism(a, b) is not None`` asks whether the
    matrices agree after some relabeling of states.  The search tries only
    states with equal row sums, column sums and diagonals, which every
    relabeling keeps.
    """
    return _find_iso(_entries(a), _entries(b))


# ---------------------------------------------------------------------------
# exact integer linear algebra


def exact_det(m):
    """Exact integer determinant (fraction-free Gaussian elimination); the
    0x0 determinant is 1.  An entry that is not an integer, or a matrix
    that is not square, is a ``ValueError``."""
    a = [[_int(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    return _bareiss(a)


def _bareiss(a):
    """The determinant of ``a``, square rows of Python ints, which it
    overwrites (Bareiss elimination)."""
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
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1 :]:
            f = row[k]
            if f == 0 and pivot == prev:
                continue  # the step would leave the row as it is
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * row_k[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[-1][-1]


def _eye(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def smith_normal_form(m):
    """Exact Smith normal form ``U @ m @ V = D`` with unimodular U, V.

    ``D`` is diagonal with nonnegative entries in a divisibility chain
    ``d_1 | d_2 | ...``, zeros last.  One pass builds it: step ``s``
    pivots on the nonzero entry of least absolute value in the trailing
    block (ties broken by position; the scan stops at the first 1),
    clears the pivot's row and column by floor division, and pivots again
    while a remainder is left.  When some trailing entry is not divisible
    by the pivot, that entry's row is added to the pivot row and the step
    goes on, so the pivot that ends the step divides everything after it.
    The certificate ``U @ m @ V == D`` and the unimodularity of U and V
    are verified exactly, with Python ints, before returning.

    ``m`` is any iterable of integer rows of one length; an entry that is
    not an integer, or a ragged row, is a ``ValueError``.  Returns ``(U,
    D, V)`` as nested lists of Python ints.
    """
    a = [[x if type(x) is int else _int(x) for x in row] for row in m]
    m_int = [row[:] for row in a]
    # an input with no rows keeps its column count only in its ``shape``
    rows, cols = len(a), (len(a[0]) if a else getattr(m, "shape", (0,))[-1])
    if any(len(row) != cols for row in a):
        raise ValueError("matrix rows differ in length")
    u, v = _eye(rows), _eye(cols)
    for s in range(min(rows, cols)):
        while True:
            # the least (|x|, i, j) of a nonzero entry: a 1 ends the scan
            best = None
            for i in range(s, rows):
                for j in range(s, cols):
                    x = abs(a[i][j])
                    if x and (best is None or x < best[0]):
                        best = x, i, j
                if best and best[0] == 1:
                    break
            if best is None:
                break
            _, i, j = best
            a[s], a[i] = a[i], a[s]
            u[s], u[i] = u[i], u[s]
            if j != s:
                for x in a:
                    x[s], x[j] = x[j], x[s]
                for x in v:
                    x[s], x[j] = x[j], x[s]
            p, a_s, u_s = a[s][s], a[s], u[s]
            for i in range(s + 1, rows):
                q = a[i][s] // p
                if q:  # row_i -= q * row_s
                    a[i] = [x - q * y for x, y in zip(a[i], a_s)]
                    u[i] = [x - q * y for x, y in zip(u[i], u_s)]
            # col_j -= q * col_s, on the rows where col_s is not zero
            live = [x for x in a if x[s]] + [x for x in v if x[s]]
            for j in range(s + 1, cols):
                q = a_s[j] // p
                if q:
                    for x in live:
                        x[j] -= q * x[s]
            if any(a[i][s] for i in range(s + 1, rows)) or any(a_s[s + 1 :]):
                continue  # a remainder is left: pivot on it
            if abs(p) == 1:
                break  # a unit divides every entry
            bad = next(
                (i for i in range(s + 1, rows) for j in range(s + 1, cols)
                 if a[i][j] % p),
                None,
            )
            if bad is None:
                break
            a[s] = [x + y for x, y in zip(a_s, a[bad])]
            u[s] = [x + y for x, y in zip(u_s, u[bad])]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]

    if _matmul(_matmul(u, m_int), v) != a:
        raise AssertionError("normal form certificate failed")
    if any(abs(_bareiss([row[:] for row in x])) != 1 for x in (u, v)):
        raise AssertionError("transformation matrices are not unimodular")
    return u, a, v


def _squarefree(n):
    """Is the positive int ``n`` divisible by no square of a prime?
    Trial division, so only for small ``n``."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return True


# ---------------------------------------------------------------------------
# invariant reports


class InvariantReport(namedtuple("InvariantReport", "bf_factors det_sign")):
    """Cokernel invariants of ``I - A`` and ``I - A^T``.

    ``bf_factors`` lists invariant factors with the trivial 1s dropped
    and zeros retained (each zero is a free summand).  The two matrices
    are transposes of each other and so share one Smith normal form:
    ``bf_factors`` is also the K_0 factor list, and its zeros count the
    rank of K_1.
    """

    __slots__ = ()


def bowen_franks(a):
    """Invariant factors of the cokernel of ``I - A``, and sign of its det.

    The factors are the Smith diagonal of ``I - A`` with the trivial 1s
    dropped.  ``I - A^T`` is its transpose and has the same diagonal, so
    they are also the factors of ``K_0 = coker(I - A^T)``, and their
    zeros count the rank of ``K_1 = ker(I - A^T)``.  ``a`` is a shift
    space, a transition matrix or any iterable of integer rows.

    Both are read off ``I - T``, where ``T`` is the total amalgamation of
    ``A`` (:func:`total_amalgamation`; a transition matrix keeps it, so
    ``compare`` merges each matrix's columns once).  This is exact for any
    integer rows, one merge at a time.  Merging the equal columns ``p``
    and ``q`` is ``A = R S`` and ``T = S R``, where ``R`` is ``A`` without
    column ``q`` and the 0-1 matrix ``S`` sends each state to the one it
    becomes: ``(R S)[i][j] = A[i][j]`` since column ``q`` equals column
    ``p``, and ``S R`` adds row ``q`` to row ``p`` and drops state ``q``.
    Sylvester's identity gives ``det(I - R S) = det(I - S R)``.  As
    ``S (I - R S) = (I - S R) S`` and ``R (I - S R) = (I - R S) R``, ``S``
    and ``R`` induce maps between the two cokernels, and they are inverse
    to each other: ``R S x = x - (I - R S) x`` and ``S R y = y - (I - S
    R) y``.  So ``coker(I - A)`` and ``coker(I - T)`` are isomorphic (the
    Bowen-Franks group is a shift equivalence invariant: Lind and Marcus,
    section 7.4).  The group fixes the Smith diagonal up to its 1s, so the
    factors above 1, the zeros and the sign are those of ``I - A``.

    ``det(I - T)`` is computed first, exactly, and the sign is read off
    it.  When it is not zero, the nonzero factors ``d_1 | ... | d_n`` of
    the full diagonal multiply to ``|det|``; a prime dividing ``d_{n-1}``
    also divides ``d_n``, so its square divides ``|det|``.  A squarefree
    ``|det|`` therefore forces ``D = diag(1, ..., 1, |det|)``, and no
    Smith form is built.  Squarefreeness is tried by trial division only
    up to ``MAX_MATCH_STATES ** (MAX_MATCH_STATES // 2)``, Hadamard's
    bound on ``|det(I - A)|`` for a 0-1 ``A`` of up to that many states;
    a zero, larger or non-squarefree ``|det|`` takes the certified
    :func:`smith_normal_form`.

    Examples
    --------
    ``|det| = 4`` on both sides, yet the cokernels differ:

    >>> bowen_franks([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    ((2, 2), -1)
    >>> bowen_franks([[0, 1, 1], [1, 0, 1], [1, 1, 1]])
    ((4,), -1)

    Columns 2 and 3 are equal, so ``I - T`` is 2 x 2; the Smith form of
    the full ``I - A`` has the same diagonal but for a 1:

    >>> a = [[0, 1, 1], [1, 1, 1], [1, 1, 1]]
    >>> total_amalgamation(a).tolist()
    [[0, 1], [2, 2]]
    >>> bowen_franks(a), exact_det([[1, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    (((3,), -1), -3)
    >>> smith_normal_form([[1, -1, -1], [-1, 0, -1], [-1, -1, 0]])[1]
    [[1, 0, 0], [0, 1, 0], [0, 0, 3]]
    """
    return _bowen_franks(_amalgamation(a, capped=False).terminal)


def _bowen_franks(t):
    """:func:`bowen_franks` of the terminal ``t``."""
    i_t = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(t)]
    det = _bareiss([row[:] for row in i_t])
    sign = (det > 0) - (det < 0)
    det = abs(det)
    if det and det <= MAX_MATCH_STATES ** (MAX_MATCH_STATES // 2) and _squarefree(det):
        return ((det,) if det > 1 else ()), sign
    _, d, _ = smith_normal_form(i_t)
    diag = (row[i] for i, row in enumerate(d))
    return tuple(x for x in diag if x != 1), sign


def invariant_report(a):
    return InvariantReport(*bowen_franks(a))


class ObstructionReport(namedtuple("ObstructionReport", "left right ruled_out")):
    """Which equivalence rungs an invariant mismatch rules out.

    ``ruled_out`` maps rung names to booleans.  If the cokernel factors
    or the determinant sign differ, orbit equivalence is impossible and
    everything below it on the ladder falls with it.  Agreement proves
    nothing and is reported as no obstruction found.
    """

    __slots__ = ()

    @property
    def obstructed(self):
        return any(self.ruled_out.values())


def obstruction_report(a, b):
    """The invariant reports of ``a`` and ``b``, and the rungs a mismatch
    rules out.

    ``a``'s report is computed.  When both have at most
    ``MAX_MATCH_STATES`` states and their total amalgamations ``T_a`` and
    ``T_b`` match (:func:`_match`, the search the conjugacy decision
    reuses), ``b``'s report is ``a``'s: the permutation matrix ``P`` has
    ``T_b = P T_a P^T``, so ``I - T_b = P (I - T_a) P^T`` with ``P``
    unimodular, and the two share their Smith diagonal and determinant.
    Otherwise ``b``'s report is computed too.  Above the cap no match is
    tried and nothing is ``TooLarge``.
    """
    am_a, am_b = _amalgamation(a, capped=False), _amalgamation(b, capped=False)
    ra = InvariantReport(*_bowen_franks(am_a.terminal))
    small = max(len(am_a.entries), len(am_b.entries)) <= MAX_MATCH_STATES
    if small and _match(am_a, am_b) is not None:
        rb = ra
    else:
        rb = InvariantReport(*_bowen_franks(am_b.terminal))
    mismatch = ra.bf_factors != rb.bf_factors or ra.det_sign != rb.det_sign
    rungs = ("coe", "strong_coe", "eventual_conjugacy", "conjugacy")
    return ObstructionReport(ra, rb, {r: mismatch for r in rungs})

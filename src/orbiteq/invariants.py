"""Conjugacy generators, amalgamation oracles, and integer invariants.

Out-splitting a state partitions its follower set; each block becomes a
copy of the state.  The move comes with an explicit conjugacy (a 2-block
code down to the split space and a 1-block code back), so composed
splittings manufacture ground-truth conjugate pairs.  The inverse move,
out-amalgamation, merges two states with identical columns and disjoint
follower sets; iterating it to exhaustion gives the total amalgamation,
and equality of total amalgamations up to a state permutation decides
one-sided conjugacy at these sizes.

The integer side computes Smith normal forms exactly and from them the
cokernel invariants of ``I - A`` and ``I - A^T`` together with the sign
of ``det(I - A)``.  Those are preserved down the whole equivalence
ladder, so disagreement refutes every rung at once; agreement never
certifies anything.
"""

from dataclasses import dataclass

import numpy as np

from .config import MAX_MATCH_STATES
from .errors import InvalidPartition, TooLarge
from .maps import compile_block_code, compose_block_codes, identity_code
from .shifts import ShiftSpace, TransitionMatrix, build_shift_space

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
    "k_theory",
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
    rows = np.zeros((size, size), dtype=int)
    for (i, t) in copies:
        for j in blocks[i][t]:
            for u in range(len(blocks[j])):
                rows[idx[(i, t)] - 1, idx[(j, u)] - 1] = 1
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


def _mergeable_pairs(a):
    """Index pairs with identical columns and disjoint follower sets."""
    n = len(a)
    out = []
    for p in range(n):
        for q in range(p + 1, n):
            if (a[:, p] == a[:, q]).all() and not (a[p] & a[q]).any():
                out.append((p, q))
    return out


def _merge(a, p, q):
    b = a.copy()
    b[p] = a[p] | a[q]
    keep = [i for i in range(len(a)) if i != q]
    return b[np.ix_(keep, keep)]


def total_amalgamation(matrix):
    """Merge amalgamable state pairs until none remain.

    A pair is amalgamable when the two states have identical columns and
    disjoint follower sets (the inverse of an out-splitting, so each
    merge is a conjugacy of the one-sided shift).  Merging always takes
    the first pair in index order, which makes the result deterministic.
    """
    if isinstance(matrix, ShiftSpace):
        matrix = matrix.matrix
    a = matrix.entries.astype(int)
    while True:
        pairs = _mergeable_pairs(a)
        if not pairs:
            break
        a = _merge(a, *pairs[0])
    return TransitionMatrix(a)


def amalgamation_terminals(matrix):
    """All amalgamation endpoints reachable from ``matrix``, up to isomorphism.

    Merge order can in principle matter, so the search explores every
    order, deduplicating intermediate matrices up to a state permutation.
    """
    if isinstance(matrix, ShiftSpace):
        matrix = matrix.matrix
    return tuple(a for a, _ in _terminals_with_paths(matrix.entries.astype(int)))


def decide_one_sided_conjugacy(a, b):
    """Are the one-sided shifts of two matrices topologically conjugate?

    True iff the two matrices share an amalgamation endpoint up to a
    state permutation.  Every merge is itself a conjugacy, so a shared
    endpoint is a sound certificate; the backtracking match is capped.

    Raises
    ------
    TooLarge
        if either matrix exceeds the matching cap.
    """
    a = a.matrix if isinstance(a, ShiftSpace) else a
    b = b.matrix if isinstance(b, ShiftSpace) else b
    if a.n > MAX_MATCH_STATES or b.n > MAX_MATCH_STATES:
        raise TooLarge(f"state count exceeds matching cap {MAX_MATCH_STATES}")
    ta = amalgamation_terminals(a)
    tb = amalgamation_terminals(b)
    return any(_iso_arrays(x, y) for x in ta for y in tb)


def _terminals_with_paths(arr):
    """Amalgamation endpoints with one recorded merge path each.

    Every matrix is visited once up to isomorphism, so no two endpoints
    are isomorphic.
    """
    results = []
    seen = [arr]
    stack = [(arr, ())]
    while stack:
        a, path = stack.pop()
        pairs = _mergeable_pairs(a)
        if not pairs:
            results.append((a, path))
            continue
        for p, q in pairs:
            b = _merge(a, p, q)
            if not any(len(c) == len(b) and _iso_arrays(b, c) for c in seen):
                seen.append(b)
                stack.append((b, path + ((a, p, q),)))
    return results


def _relabel_code(space_from, space_to, perm):
    """The 1-block code applying a 0-based state permutation."""
    return compile_block_code(
        space_from, space_to, 1, {(i,): perm[i - 1] + 1 for i in range(1, space_from.n + 1)}
    )


def _step_codes(arr_before, p, q):
    """Conjugacy codes across one merge, both directions.

    The merge of ``(p, q)`` is undone by out-splitting the merged state
    by the two original follower sets, which recovers the pre-merge
    matrix up to relabeling.
    """
    before = build_shift_space(arr_before)
    after_arr = _merge(arr_before, p, q)
    after = build_shift_space(after_arr)
    keep = [i for i in range(len(arr_before)) if i != q]
    relabel = {old: keep.index(old) for old in keep}
    relabel[q] = relabel[p]
    blocks = []
    for src in (p, q):
        blk = tuple(
            sorted(relabel[j] + 1 for j in np.flatnonzero(arr_before[src]))
        )
        blocks.append(blk)
    split_space, split_code, split_inv = out_split(
        after, {relabel[p] + 1: blocks}
    )
    perm = _find_iso_arrays(arr_before, split_space.matrix.entries.astype(int))
    if perm is None:
        raise AssertionError("splitting the merged state did not undo the merge")
    to_split = _relabel_code(before, split_space, perm)
    inv_perm = [0] * len(perm)
    for i, j in enumerate(perm):
        inv_perm[j] = i
    from_split = _relabel_code(split_space, before, inv_perm)
    down = compose_block_codes(split_inv, to_split)  # before -> after, 1-block
    up = compose_block_codes(from_split, split_code)  # after -> before, 2-block
    return before, after, down, up


def conjugacy_from_amalgamation(a, b):
    """An explicit conjugacy pair between two shift spaces, or None.

    Walks both matrices down their amalgamation paths to a shared
    endpoint and composes the per-merge codes; the result is verified as
    an exact inverse pair of block codes before returning.
    """
    space_a = a if isinstance(a, ShiftSpace) else ShiftSpace(a)
    space_b = b if isinstance(b, ShiftSpace) else ShiftSpace(b)
    if space_a.n > MAX_MATCH_STATES or space_b.n > MAX_MATCH_STATES:
        raise TooLarge(f"state count exceeds matching cap {MAX_MATCH_STATES}")
    ta = _terminals_with_paths(space_a.matrix.entries.astype(int))
    tb = _terminals_with_paths(space_b.matrix.entries.astype(int))
    for term_a, path_a in ta:
        for term_b, path_b in tb:
            perm = _find_iso_arrays(term_a, term_b)
            if perm is None:
                continue
            down_a, up_a = _compose_path(space_a, path_a)
            down_b, up_b = _compose_path(space_b, path_b)
            end_a, end_b = down_a.target, down_b.target
            rel = _relabel_code(end_a, end_b, perm)
            inv_perm = [0] * len(perm)
            for i, j in enumerate(perm):
                inv_perm[j] = i
            rel_inv = _relabel_code(end_b, end_a, inv_perm)
            h = compose_block_codes(up_b, compose_block_codes(rel, down_a))
            h_inv = compose_block_codes(up_a, compose_block_codes(rel_inv, down_b))
            if compose_block_codes(h_inv, h) == identity_code(space_a) and (
                compose_block_codes(h, h_inv) == identity_code(space_b)
            ):
                return h, h_inv
    return None


def _compose_path(space, path):
    """Composed codes along a merge path: (top -> endpoint, endpoint -> top)."""
    down = identity_code(space)
    up = identity_code(space)
    for arr, p, q in path:
        _, _, step_down, step_up = _step_codes(arr, p, q)
        down = compose_block_codes(step_down, down)
        up = compose_block_codes(up, step_up)
    return down, up


# ---------------------------------------------------------------------------
# matrix isomorphism up to state permutation


def _color_classes(a):
    n = len(a)
    colors = [(int(a[i].sum()), int(a[:, i].sum()), int(a[i, i])) for i in range(n)]
    while True:
        sig = []
        for i in range(n):
            outs = tuple(sorted(colors[j] for j in np.flatnonzero(a[i])))
            ins = tuple(sorted(colors[j] for j in np.flatnonzero(a[:, i])))
            sig.append((colors[i], outs, ins))
        relabel = {s: k for k, s in enumerate(sorted(set(sig)))}
        new = [relabel[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _iso_arrays(a, b):
    if len(a) != len(b):
        return False
    return _find_iso_arrays(a, b) is not None


def _find_iso_arrays(a, b):
    """A permutation ``perm`` with ``a[i, j] == b[perm[i], perm[j]]``, or None."""
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
                if a[i, i2] != b[j, j2] or a[i2, i] != b[j2, j]:
                    ok = False
                    break
            if ok and a[i, i] == b[j, j]:
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
    a = a.matrix if isinstance(a, ShiftSpace) else a
    b = b.matrix if isinstance(b, ShiftSpace) else b
    if a.n > MAX_MATCH_STATES or b.n > MAX_MATCH_STATES:
        raise TooLarge(f"state count exceeds matching cap {MAX_MATCH_STATES}")
    return _iso_arrays(a.entries.astype(int), b.entries.astype(int))


def find_isomorphism(a, b):
    """A relabeling ``perm`` (0-based, ``a -> b``) or None."""
    a = a.matrix if isinstance(a, ShiftSpace) else a
    b = b.matrix if isinstance(b, ShiftSpace) else b
    if a.n > MAX_MATCH_STATES or b.n > MAX_MATCH_STATES:
        raise TooLarge(f"state count exceeds matching cap {MAX_MATCH_STATES}")
    return _find_iso_arrays(a.entries.astype(int), b.entries.astype(int))


# ---------------------------------------------------------------------------
# exact integer linear algebra


def exact_det(m):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [[int(x) for x in row] for row in np.asarray(m)]
    n = len(a)
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
    rows, mid, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(cols)]
        for i in range(rows)
    ]


def smith_normal_form(m):
    """Exact Smith normal form ``U @ m @ V = D`` with unimodular U, V.

    ``D`` is diagonal with nonnegative entries in a divisibility chain
    ``d_1 | d_2 | ...`` (zeros trailing).  The pivot is always the
    remaining entry of smallest nonzero absolute value, ties broken by
    position.  Unimodularity is verified exactly before returning.

    Returns ``(U, D, V)`` as nested lists of Python ints.
    """
    a = [[int(x) for x in row] for row in np.asarray(m)]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, v = _eye(rows), _eye(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in range(rows):
                a[r][i], a[r][j] = a[r][j], a[r][i]
            for r in range(cols):
                v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def pivot(s):
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if a[i][j] != 0 and (
                    best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])
                ):
                    best = (i, j)
        return best

    def clear(s):
        """Zero out row s and column s beyond the pivot at (s, s)."""
        while True:
            best = pivot(s)
            if best is None:
                return
            swap_rows(s, best[0])
            swap_cols(s, best[1])
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    row_op(i, s, a[i][s] // a[s][s])
                    dirty = dirty or a[i][s] != 0
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    col_op(j, s, a[s][j] // a[s][s])
                    dirty = dirty or a[s][j] != 0
            if not dirty:
                return

    def fix_signs():
        for s in range(min(rows, cols)):
            if a[s][s] < 0:
                negate_row(s)

    def diagonalize_from(s0):
        for s in range(s0, min(rows, cols)):
            clear(s)

    diagonalize_from(0)
    fix_signs()

    # enforce the divisibility chain; folding disturbs the trailing
    # block, so re-diagonalize from the fold position each time
    changed = True
    while changed:
        changed = False
        for s in range(min(rows, cols) - 1):
            d1, d2 = a[s][s], a[s + 1][s + 1]
            if d1 and d2 % d1 != 0:
                col_op(s, s + 1, -1)
                diagonalize_from(s)
                fix_signs()
                changed = True

    d = [[a[i][j] for j in range(cols)] for i in range(rows)]
    m_int = [[int(x) for x in row] for row in np.asarray(m)]
    if _matmul(_matmul(u, m_int), v) != d:
        raise AssertionError("normal form certificate failed")
    if abs(exact_det(u)) != 1 or abs(exact_det(v)) != 1:
        raise AssertionError("transformation matrices are not unimodular")
    return u, d, v


def _invariant_factors(m):
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    return tuple(diag)


# ---------------------------------------------------------------------------
# invariant reports


@dataclass(frozen=True)
class InvariantReport:
    """Cokernel invariants of ``I - A`` and ``I - A^T``.

    ``bf_factors`` and ``k0_factors`` list invariant factors with the
    trivial 1s dropped and zeros retained (each zero is a free summand);
    ``k1_rank`` counts the zeros of ``I - A^T``.  The two matrices are
    transposes of each other and so share one Smith normal form: the
    two factor lists are always equal.
    """

    bf_factors: tuple
    det_sign: int
    k0_factors: tuple
    k1_rank: int


def _reduced(factors):
    return tuple(f for f in factors if f != 1)


def bowen_franks(a):
    """Invariant factors of the cokernel of ``I - A``, and sign of its det."""
    a = a.matrix if isinstance(a, ShiftSpace) else a
    i_a = np.eye(a.n, dtype=int) - a.entries
    det = exact_det(i_a)
    sign = 0 if det == 0 else (1 if det > 0 else -1)
    return _reduced(_invariant_factors(i_a)), sign


def k_theory(a):
    """Invariant factors of the cokernel of ``I - A^T`` and its kernel rank.

    ``I - A^T`` is the transpose of ``I - A``, so it has the same Smith
    normal form and the factors are those of :func:`bowen_franks`.
    """
    factors, _ = bowen_franks(a)
    return factors, factors.count(0)


def invariant_report(a):
    bf, sign = bowen_franks(a)
    return InvariantReport(bf, sign, bf, bf.count(0))


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
    # the K-theory fields repeat the cokernel factors, so these two decide
    mismatch = ra.bf_factors != rb.bf_factors or ra.det_sign != rb.det_sign
    rungs = ("coe", "strong_coe", "eventual_conjugacy", "conjugacy")
    return ObstructionReport(ra, rb, {r: mismatch for r in rungs})

"""Locally constant integer functions on a shift space.

Every continuous function into the integers on a shift space is constant
on cylinders of some finite depth, so the abelian group of such functions
is the union over ``m`` of the groups of depth-``m`` table functions.  A
:class:`CylinderFunction` stores one table: a value for each admissible
word of its depth.  Refining a table one level deeper never changes the
function, which is what makes sums, comparisons and composition with the
shift exact table operations.

All arithmetic is plain Python integers; nothing here rounds.
"""

from .config import MAX_DEPTH
from .errors import InadmissibleWord, InconsistentRoutes, TooLarge
from .shifts import _shortest_walk, _tree_path, canonical_point, shift_point

__all__ = [
    "CylinderFunction",
    "constant",
    "indicator",
    "evaluate",
    "refine",
    "combine",
    "compose_shift",
    "pullback",
    "find_transfer",
    "transfer_obstruction",
    "tables_equal",
]


class CylinderFunction:
    """An immutable integer function given by its value on each depth-``m`` word
    (the keys are checked by their count, then each word is looked up)."""

    __slots__ = ("space", "depth", "table")

    def __init__(self, space, depth, table):
        words = space.words(depth)
        if len(table) != len(words) or not all(map(table.__contains__, words)):
            raise InadmissibleWord(
                "table keys must be exactly the allowed words of the depth"
            )
        setattr_ = object.__setattr__
        setattr_(self, "space", space)
        setattr_(self, "depth", depth)
        setattr_(self, "table", table)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def values(self):
        return tuple(self.table[w] for w in self.space.words(self.depth))

    def is_constant(self, c=None):
        vals = set(self.table.values())
        if len(vals) != 1:
            return False
        return True if c is None else vals == {c}

    def min(self):
        return min(self.table.values())

    def max(self):
        return max(self.table.values())

    def __eq__(self, other):
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        return tables_equal(self, other)

    def __hash__(self):
        # equal functions may differ in depth (``__eq__`` compares at the
        # common refinement), so only the space is hashed
        return hash(self.space)

    def __repr__(self):
        return f"CylinderFunction(depth={self.depth}, {len(self.table)} words)"


def constant(space, c, depth=1):
    """The constant function ``c`` as a depth-``depth`` table."""
    return CylinderFunction(space, depth, {w: c for w in space.words(depth)})


def indicator(space, word):
    """The 0/1 indicator of the cylinder of ``word``.

    Examples
    --------
    >>> from .shifts import build_shift_space
    >>> s = build_shift_space([[1, 1], [1, 0]])
    >>> indicator(s, (1, 2)).table
    {(1, 1): 0, (1, 2): 1, (2, 1): 0}
    """
    word = tuple(word)
    if not word or not space.is_admissible(word):
        raise InadmissibleWord(f"word {word} not admissible")
    return CylinderFunction(
        space, len(word), {w: int(w == word) for w in space.words(len(word))}
    )


def evaluate(f, p):
    """Value of ``f`` at the point ``p`` (first ``depth`` symbols decide)."""
    return f.table[p.expand(f.depth)]


def refine(f, depth):
    """The same function as a table at a greater depth."""
    if depth < f.depth:
        raise ValueError("refinement depth must be >= current depth")
    if depth == f.depth:
        return f
    m = f.depth
    return CylinderFunction(
        f.space, depth, {w: f.table[w[:m]] for w in f.space.words(depth)}
    )


def combine(c1, f, c2, g):
    """The integer combination ``c1*f + c2*g`` at the common refinement."""
    if f.space != g.space:
        raise ValueError("functions live on different spaces")
    d = max(f.depth, g.depth)
    fr, gr = refine(f, d), refine(g, d)
    return CylinderFunction(
        f.space, d, {w: c1 * fr.table[w] + c2 * gr.table[w] for w in f.space.words(d)}
    )


def compose_shift(f):
    """The function ``f`` after one shift, as a table one level deeper.

    The value on ``w_1 ... w_{m+1}`` is the value of ``f`` on
    ``w_2 ... w_{m+1}``.
    """
    d = f.depth + 1
    return CylinderFunction(
        f.space, d, {w: f.table[w[1:]] for w in f.space.words(d)}
    )


def tables_equal(f, g):
    """Exact equality of two functions, compared at the common refinement."""
    if f.space != g.space:
        return False
    d = max(f.depth, g.depth)
    return refine(f, d).table == refine(g, d).table


def pullback(f, h):
    """The composition ``f  after h`` as a cylinder function on the source.

    ``h`` is any map object exposing ``source``, ``target`` and
    ``output_prefix(word)`` (see :mod:`orbiteq.maps`); the depth of the
    result is the least ``d`` such that ``d`` input symbols determine the
    first ``depth(f)`` output symbols on every cylinder.

    Raises
    ------
    TooLarge
        if no such depth exists within the depth cap, i.e. ``h`` does not
        synchronize fast enough, or a word table on the way exceeds its cap.
    """
    if f.space != h.target:
        raise ValueError("function must live on the target space of the map")
    need = f.depth
    src = h.source
    for d in range(1, MAX_DEPTH + 1):
        outs = {w: h.output_prefix(w) for w in src.words(d)}
        if all(len(o) >= need for o in outs.values()):
            return CylinderFunction(
                src, d, {w: f.table[outs[w][:need]] for w in src.words(d)}
            )
    raise TooLarge(
        f"{need} output symbols not determined by {MAX_DEPTH} input symbols"
    )


def _least_table(space, d, values):
    """The least depth of a depth-``d`` function and its values there, given
    and returned in the order of ``space.words``, where the words of one
    shorter prefix form a run, one per follower of its last symbol: the last
    symbol is dropped while every run is constant.  No word is built."""
    fol = space.matrix.followers
    lasts = [range(1, space.n + 1)]  # of the words of each length below d
    while len(lasts) < d - 1:
        lasts.append([b for a in lasts[-1] for b in fol[a - 1]])
    while d > 1:
        shorter, j = [], 0
        for a in lasts[d - 2]:
            i, j = j, j + len(fol[a - 1])
            if values[i:j].count(values[i]) != j - i:
                return d, values
            shorter.append(values[i])
        d, values = d - 1, shorter
    return d, values


def _solve_transfer(space, g, c):
    """The graph, potential and defect behind :func:`find_transfer`.

    Returns ``(out, b, parent, bad)``: ``out[u]`` lists ``(v, r)`` for each
    ``(m+1)``-word from the ``m``-word ``u`` to ``v``, with ``r`` the value
    of ``g - c`` on it; ``b`` from ``b[root] = 0`` and ``b[v] = b[u] - r``
    forward from the least ``m``-word, breadth-first; ``parent``, the
    tree that ``b`` was set along, from which :func:`transfer_obstruction`
    takes its walks out from the root; and the first edge ``(u, v)`` with
    ``b[u] - b[v] != r``, or None.
    """
    if g.space != space:
        raise ValueError("g must live on the given space")
    d, gt = _least_table(space, g.depth, [g.table[w] for w in space.words(g.depth)])
    if d == 1:  # m = 1: each symbol's value on each of its 2-words
        fol = space.matrix.followers
        out = {(a,): [((b,), x - c) for b in fol[a - 1]] for a, x in enumerate(gt, 1)}
    else:  # m = d - 1: the values on the d-words, in order
        out = {u: [] for u in space.words(d - 1)}
        for w, x in zip(space.words(d), gt):
            out[w[:-1]].append((w[1:], x - c))
    root = next(iter(out))
    b, parent = {root: 0}, {root: None}
    queue = [root]
    for u in queue:
        for v, r in out[u]:
            if v not in b:
                b[v], parent[v] = b[u] - r, u
                queue.append(v)
    bad = next(((u, v) for u in out for v, r in out[u] if b[u] - b[v] != r), None)
    return out, b, parent, bad


def find_transfer(space, g, c):
    """Solve ``g = c + b - b∘σ`` for a continuous ``b``, exactly.

    Let ``g`` have least depth ``d`` and let ``m = max(d - 1, 1)``.  A
    depth-``m`` solution is a potential on the graph whose vertices are
    the ``m``-words and whose edges are the ``(m+1)``-words weighted by
    ``g - c``.  The graph is strongly connected (the matrix is
    irreducible), so a potential exists exactly when every cycle, that
    is every periodic orbit, sums to 0.  By Livšic's theorem that is also
    when a continuous ``b`` of any depth exists, and none is shallower
    than ``m``, since ``g`` would then be shallower than ``d``.

    Returns ``b`` normalized to 0 on the least ``m``-word, or ``None``
    when no continuous transfer exists; :func:`transfer_obstruction` then
    names a periodic point that proves it.  ``ValueError`` if ``g`` lives
    on another space.
    """
    _, b, _, bad = _solve_transfer(space, g, c)
    if bad is not None:
        return None
    b = CylinderFunction(space, len(next(iter(b))), b)
    # re-check the defining identity at the common refinement
    lhs = combine(1, constant(space, c), 1, combine(1, b, -1, compose_shift(b)))
    if not tables_equal(lhs, g):
        raise InconsistentRoutes("the transfer solve fails its re-check")
    return b


def transfer_obstruction(space, g, c):
    """A periodic point over whose orbit ``g - c`` does not sum to 0.

    Returns ``(point, s)`` with ``s != 0`` the sum of ``g - c`` over one
    period of ``point``, or None when :func:`find_transfer` finds a
    transfer.  For the first edge ``u -> v`` that breaks the potential,
    the closed walks ``root -> u -> v -> root`` and ``root -> v -> root``
    differ in sum by the edge's defect, so one of them sums to non-zero;
    the first symbols of its words are the cycle.  The walks out from the
    root follow the tree that :func:`_solve_transfer` set ``b`` along, on
    which ``b`` is exactly the running sum, as the argument needs; the
    walk back is the shortest one from ``v`` to the root.  ``ValueError``
    if ``g`` lives on another space.
    """
    out, _, parent, bad = _solve_transfer(space, g, c)
    if bad is None:
        return None
    u, v = bad
    root = next(iter(out))
    back = _shortest_walk(lambda x: (y for y, _ in out[x]), v, lambda x: x == root)
    for walk in (_tree_path(parent, u) + back, _tree_path(parent, v) + back[1:]):
        if len(walk) > 1:
            p = canonical_point(space, (), tuple(x[0] for x in walk[:-1]))
            n = len(p.cycle)
            s = sum(evaluate(g, shift_point(space, p, i)) for i in range(n)) - c * n
            if s:
                return p, s
    raise InconsistentRoutes("a broken potential with no periodic obstruction")

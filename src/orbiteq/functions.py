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

from dataclasses import dataclass, field

from .config import MAX_DEPTH
from .errors import DepthOverflow, InadmissibleWord, TooLarge
from .shifts import ShiftSpace

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
    "tables_equal",
]


@dataclass(frozen=True)
class CylinderFunction:
    """An integer function given by its value on each depth-``m`` word."""

    space: ShiftSpace
    depth: int
    table: dict = field(compare=False)

    def __post_init__(self):
        words = self.space.words(self.depth)
        if set(self.table) != set(words):
            raise InadmissibleWord(
                "table keys must be exactly the allowed words of the depth"
            )

    def __call__(self, word):
        """Value on the cylinder of ``word`` (len(word) >= depth)."""
        return self.table[word[: self.depth]]

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
    DepthOverflow
        if no such depth exists within the configured cap, i.e. ``h``
        does not synchronize fast enough.
    """
    if f.space != h.target:
        raise ValueError("function must live on the target space of the map")
    need = f.depth
    src = h.source
    try:
        for d in range(1, MAX_DEPTH + 1):
            outs = {w: h.output_prefix(w) for w in src.words(d)}
            if all(len(o) >= need for o in outs.values()):
                return CylinderFunction(
                    src, d, {w: f.table[outs[w][:need]] for w in src.words(d)}
                )
    except TooLarge as err:
        raise DepthOverflow(str(err)) from err
    raise DepthOverflow(
        f"{need} output symbols not determined by {MAX_DEPTH} input symbols"
    )


def find_transfer(space, g, c, max_depth):
    """Solve ``g = c + b - b∘σ`` for a cylinder function ``b``, exactly.

    Searches depth by depth: at depth ``m`` the unknowns are one integer
    per admissible ``m``-word and every admissible word of length
    ``max(depth(g), m+1)`` contributes the constraint
    ``b[w_1..w_m] - b[w_2..w_{m+1}] = g(w) - c``.  The constraint graph
    is connected (the matrix is irreducible), so a solution is either
    pinned down by a BFS up to one additive constant or contradicted by
    some cycle whose increments do not cancel.  Returns ``None`` when no
    depth up to ``max_depth`` admits a solution, or when the word-table
    cap stops the search earlier; that is a bounded-search outcome, not a
    refutation.

    The returned table is normalized to value 0 on the lexicographically
    least word.
    """
    if max_depth > MAX_DEPTH:
        raise DepthOverflow(f"max_depth {max_depth} exceeds cap {MAX_DEPTH}")
    for m in range(1, max_depth + 1):
        big = max(g.depth, m + 1)
        try:
            gm = refine(g, big)  # the deepest word table this depth needs
        except TooLarge:
            return None
        # edges[u] = list of (v, r) meaning b[u] - b[v] = r
        edges = {w: [] for w in space.words(m)}
        ok = True
        for w in space.words(big):
            u, v, r = w[:m], w[1 : m + 1], gm.table[w] - c
            edges[u].append((v, r))
            edges[v].append((u, -r))
        val = {}
        order = space.words(m)
        val[order[0]] = 0
        queue = [order[0]]
        while queue and ok:
            u = queue.pop()
            for v, r in edges[u]:
                want = val[u] - r
                if v in val:
                    if val[v] != want:
                        ok = False
                        break
                else:
                    val[v] = want
                    queue.append(v)
        if ok and len(val) == len(order):
            base = val[order[0]]
            b = CylinderFunction(space, m, {w: val[w] - base for w in order})
            # re-check the defining identity at the common refinement
            lhs = combine(1, constant(space, c), 1, combine(1, b, -1, compose_shift(b)))
            if tables_equal(lhs, g):
                return b
    return None

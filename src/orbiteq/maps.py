"""Continuous maps between shift spaces: block codes and transducers.

Two presentations are used.  A :class:`BlockCode` reads a sliding window
of ``window`` input symbols and emits one output symbol per position;
such maps are exactly the continuous shift-commuting ones, and they are
closed under composition.  A :class:`Transducer` is a deterministic
finite-state machine emitting a (possibly empty) output word per input
symbol; it can present homeomorphisms that do not commute with the
shift, which is what eventual conjugacies and orbit equivalences need.
Block codes embed into transducers and all downstream algorithms accept
either.

Maps here have anticipation only: an output symbol may depend on the
current and later input symbols, never on earlier ones.

Every walk that steps a machine lives here too: the product walks, each
node built by :func:`_compared` and admitted under the caps by
:func:`_admit`, over two machines in series (:func:`verify_inverse_pair`)
or the square of one machine on a word and on its shift (the intertwining
checks and the cocycles, :func:`_leaf_pair`); and :func:`_two_runs`, one
depth-first walk of the runs on each word and on its shift, which the
cocycles, :func:`_runs` and :func:`_certification_depth` read.
"""

import graphlib
from functools import partial
from math import inf
from operator import index

from .config import MAX_DEPTH, WORD_TABLE_LIMIT
from .errors import ImageInadmissible, NoAlignment, NotTotal, StallingCycle, TooLarge
from .shifts import _canonical_unchecked, _shortest_walk, _tree_path, point_with_prefix

__all__ = [
    "BlockCode",
    "Transducer",
    "transducer",
    "compile_block_code",
    "block_to_transducer",
    "compose_block_codes",
    "apply_map",
    "verify_inverse_pair",
    "identity_code",
]


class BlockCode:
    """A sliding block code ``source -> target``.

    ``table`` maps every admissible source word of length ``window`` to a
    target symbol.  Construct through :func:`compile_block_code`, which
    checks totality and image admissibility, or :func:`compose_block_codes`.
    """

    def __init__(self, source, target, window, table):
        self.source = source
        self.target = target
        self.window = window
        self.table = dict(table)

    def output_prefix(self, word):
        """Output symbols determined by the input prefix ``word``."""
        w = self.window
        return tuple(
            self.table[word[i : i + w]] for i in range(len(word) - w + 1)
        )

    def __eq__(self, other):
        if not isinstance(other, BlockCode):
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            return False
        d = max(self.window, other.window)
        a = {w: self.table[w[: self.window]] for w in self.source.words(d)}
        b = {w: other.table[w[: other.window]] for w in self.source.words(d)}
        return a == b

    def __repr__(self):
        return f"BlockCode(window={self.window}, {len(self.table)} entries)"


def compile_block_code(source, target, window, table):
    """Validate a block code table, building no ``(window+1)``-word table:
    the images after a window-word ``w`` depend only on ``w[1:]``, so each
    set of them is read once and tested against the target's followers of
    ``table[w]`` (at window 1 each image is tested, as no set is shared).

    Raises
    ------
    NotTotal
        if the key count, or a window-word looked up, shows that the keys
        are not exactly the admissible window-words.
    ImageInadmissible
        if a value is no integer in ``1..target.n`` (a bool is none), or if
        some admissible ``(window+1)``-word, read as a window-word and a
        follower in lexicographic order, maps to a forbidden target
        transition; the first such word is attached to the error.
    """
    table = {tuple(k): v for k, v in table.items()}
    words = source.words(window)
    if len(table) != len(words) or not all(map(table.__contains__, words)):
        raise NotTotal("table keys must be exactly the allowed window-words")
    kinds = set(map(type, table.values()))
    try:  # operator.index refuses a float or a str
        symbols = set(map(index, table.values()))
    except TypeError:
        symbols = {0}
    if bool in kinds or not symbols <= set(range(1, target.n + 1)):
        raise ImageInadmissible("table value outside the target alphabet")
    fol = source.matrix.followers
    allowed = list(map(frozenset, target.matrix.followers))
    images = {}  # by w[1:]; at window 1 no set is shared, so none is built
    for w in words:
        a, tail = table[w], w[1:]
        if tail:
            if tail not in images:
                images[tail] = {table[tail + (b,)] for b in fol[w[-1] - 1]}
            if images[tail] <= allowed[a - 1]:
                continue
        for b in fol[w[-1] - 1]:  # in order, to name the first forbidden image
            c = table[tail + (b,)]
            if c not in allowed[a - 1]:
                u = w + (b,)
                raise ImageInadmissible(
                    f"image of {u} needs forbidden transition {a}->{c}", u
                )
    return BlockCode(source, target, window, table)


def identity_code(space):
    """The identity as a 1-block code."""
    return compile_block_code(space, space, 1, {(i,): i for i in range(1, space.n + 1)})


def compose_block_codes(outer, inner):
    """The block code ``outer after inner`` (windows add, minus one).

    The table has one key per admissible ``w``-word by construction, and
    the image of a composite of two compiled codes is admissible, so it
    needs no re-check.  It is built one length at a time, after
    ``words(w)`` has checked the cap: a word's inner outputs are its
    prefix's plus the inner image of its last ``inner.window`` symbols.
    """
    if inner.target != outer.source:
        raise ValueError("codes are not composable")
    src, k, f = inner.source, inner.window, inner.table
    w = k + outer.window - 1
    src.words(w)  # the cap, before any table is built
    out = {u: (f[u],) for u in src.words(k)}
    for d in range(k + 1, w + 1):
        out = {u: out[u[:-1]] + (f[u[-k:]],) for u in src.words(d)}
    g = outer.table
    return BlockCode(src, outer.target, w, {u: g[out[u]] for u in src.words(w)})


class Transducer:
    """A deterministic transducer presenting a continuous map.

    ``delta`` maps ``(state, input symbol)`` to ``(next state, output
    word)``.  Construct through the :func:`transducer` validator or
    :func:`block_to_transducer`.
    """

    def __init__(self, source, target, states, initial, delta):
        self.source = source
        self.target = target
        self.states = tuple(states)
        self.initial = initial
        self.delta = {k: (s, tuple(out)) for k, (s, out) in delta.items()}

    def _run(self, word):
        """State and emitted output after consuming ``word`` from the start."""
        state, out = self.initial, []
        for a in word:
            state, emitted = self.delta[(state, a)]
            out.extend(emitted)
        return state, tuple(out)

    def output_prefix(self, word):
        """Output symbols determined by the input prefix ``word``."""
        return self._run(word)[1]

    def __repr__(self):
        return f"Transducer({len(self.states)} states)"


def transducer(source, target, states, initial, delta):
    """Validate and build a :class:`Transducer`.

    Checks, over the reachable configurations ``(state, last input
    symbol)``:

    * totality: every admissible next input symbol has a transition
      (:class:`NotTotal` otherwise);
    * productivity: every reachable cycle emits at least one symbol
      (:class:`StallingCycle` otherwise), so infinite inputs give
      infinite outputs;
    * admissibility: emitted words are admissible in the target and
      consecutive emissions chain admissibly (:class:`ImageInadmissible`).
    """
    t = Transducer(source, target, states, initial, delta)
    if initial not in t.states:
        raise NotTotal("initial state missing from state list")
    n = source.n
    fol = source.matrix.followers
    # configs: (state, prev input or None, last output symbol or None)
    start = (initial, None, None)
    seen = {start}
    stack = [start]
    stalls = graphlib.TopologicalSorter()  # the edges with empty emission
    while stack:
        state, prev, last = stack.pop()
        symbols = range(1, n + 1) if prev is None else fol[prev - 1]
        for a in symbols:
            if (state, a) not in t.delta:
                raise NotTotal(f"no transition for state {state!r} on input {a}")
            nxt, out = t.delta[(state, a)]
            if nxt not in t.states:
                raise NotTotal(f"transition to unknown state {nxt!r}")
            chain = (() if last is None else (last,)) + out
            if any(not (1 <= b <= target.n) for b in out):
                raise ImageInadmissible("emitted symbol outside target alphabet")
            if not target.is_admissible(chain):
                raise ImageInadmissible(
                    f"emission {out} after output symbol {last} is inadmissible"
                )
            cfg = (nxt, a, out[-1] if out else last)
            if not out:
                stalls.add(cfg, (state, prev, last))
            if cfg not in seen:
                seen.add(cfg)
                stack.append(cfg)
    # a cycle made of zero-emission edges would stall the output
    try:
        stalls.prepare()
    except graphlib.CycleError:
        raise StallingCycle("reachable cycle emits no output") from None
    return t


def block_to_transducer(code):
    """Present a block code as a transducer.

    States are the admissible input words of length below the window
    (the buffer being filled); once the buffer holds ``window - 1``
    symbols, each further input emits one output symbol.
    """
    w = code.window
    src, tgt = code.source, code.target
    states = [()]
    for m in range(1, w):
        states.extend(src.words(m))
    delta = {}
    for st in states:
        nxts = (
            range(1, src.n + 1)
            if not st
            else src.matrix.followers[st[-1] - 1]
        )
        for a in nxts:
            word = st + (a,)
            if len(word) < w:
                delta[(st, a)] = (word, ())
            else:
                delta[(st, a)] = (word[1:], (code.table[word],))
    return transducer(src, tgt, states, (), delta)


def _as_transducer(h):
    """``h`` itself, or the :func:`block_to_transducer` presentation of a
    block code: what a product of machines steps through."""
    return block_to_transducer(h) if isinstance(h, BlockCode) else h


def apply_map(h, p):
    """Image of the point ``p`` under the map ``h``, in canonical form.

    A block code reads the image off its :meth:`BlockCode.output_prefix` on
    the preperiod, one cycle pass and the window's lookahead.  A transducer
    runs the preperiod with :meth:`Transducer._run`, then whole cycle passes
    until the machine state repeats at a pass boundary; the output since the
    first visit of that state is the image cycle.

    Raises
    ------
    StallingCycle
        if the detected output cycle is empty (cannot happen for a
        validated transducer).
    """
    pre_n = len(p.preperiod)
    if isinstance(h, BlockCode):
        out = h.output_prefix(p.expand(pre_n + len(p.cycle) + h.window - 1))
        # image admissibility was checked when the code was compiled
        return _canonical_unchecked(out[:pre_n], out[pre_n:])
    state, out = h._run(p.preperiod)
    out, seen = list(out), {}
    while state not in seen:
        seen[state] = len(out)
        for a in p.cycle:
            state, emitted = h.delta[state, a]
            out += emitted
    start = seen[state]
    if start == len(out):
        raise StallingCycle("map produced an empty output cycle")
    # output admissibility was checked when the transducer was validated
    return _canonical_unchecked(tuple(out[:start]), tuple(out[start:]))


def _composite_mismatch(outer, inner):
    """The first word, in lexicographic order, on which the block code
    ``outer ∘ inner`` is not the identity, or None.

    The composite reads ``w = inner.window + outer.window - 1`` symbols,
    and it is the identity exactly when it maps every admissible
    ``w``-word to the word's first symbol.  Such a word is a window-word
    ``x`` of ``inner`` and a continuation, and what ``inner`` emits on the
    continuation depends only on the *tail* of ``x``, its last
    ``inner.window - 1`` symbols.  So each tail's set of those emissions
    is built once and shared by every ``x`` ending in it; the set is
    exact, so ``x`` passes exactly when ``outer`` maps ``f(x)`` followed
    by each member to ``x[0]``.  The walk of the words runs only under the
    first ``x`` that fails, so the word named is still the first.  At
    window 1 ``x`` is its own tail, shares no set and is walked.  No word
    table longer than ``inner.window`` is built; the sets of ``j``
    outputs hold at most one tuple per ``(inner.window - 1 + j)``-word.

    Raises
    ------
    TooLarge
        if the ``w``-words would pass ``WORD_TABLE_LIMIT``.
    """
    if inner.target != outer.source:
        raise ValueError("codes are not composable")
    src, k = inner.source, inner.window
    w = k + outer.window - 1
    if src.word_count(w) > WORD_TABLE_LIMIT:
        raise TooLarge(f"composite word table at depth {w} too large")
    fol, f, g = src.matrix.followers, inner.table, outer.table
    if outer.window == 1:
        return next((x for x in src.words(k) if g[(f[x],)] != x[0]), None)

    def miss(word, out):
        # ``out`` is what ``inner`` has emitted on ``word``
        tail, deeper = word[len(word) - k + 1 :], len(out) + 1 < outer.window
        for b in fol[word[-1] - 1]:
            o = out + (f[tail + (b,)],)
            if deeper:
                found = miss(word + (b,), o)
                if found:
                    return found
            elif g[o] != word[0]:
                return word + (b,)
        return None

    if k == 1:
        return next(filter(None, (miss(x, (f[x],)) for x in src.words(k))), None)
    x = _first_failing_window_word(outer, inner)
    return x and miss(x, (f[x],))


def _first_failing_window_word(outer, inner):
    """The first window-word of ``inner`` under which ``outer ∘ inner`` fails."""
    fol, f, g, m = inner.source.matrix.followers, inner.table, outer.table, outer.window
    outs = [{} for _ in range(m)]  # outs[j][tail]: the set of next j outputs

    def after(tail, j):
        s, below = set(), outs[j - 1]
        for b in fol[tail[-1] - 1]:
            u = tail + (b,)
            a = (f[u],)
            if j == 1:
                s.add(a)
            else:
                for r in below.get(u[1:]) or after(u[1:], j - 1):
                    s.add(a + r)
        outs[j][tail] = s
        return s

    top = outs[m - 1]
    for x in inner.source.words(inner.window):
        a = (f[x],)
        for r in top.get(x[1:]) or after(x[1:], m - 1):
            if g[a + r] != x[0]:
                return x
    return None


def _compared(sa, sb, last, da, db, xa, xb):
    """The walk node after side A has emitted ``xa`` and side B ``xb``,
    the number of symbol pairs compared, and one past the index of the
    last pair that differs (0 when all agree).

    Each side first drops the symbols it still owes (``da``, ``db``); what
    is left of the two streams is compared, and the rest is the unmatched
    output of the side that is ahead.
    """
    if da or db:  # most steps owe nothing: this skips two slices and two max calls
        xa, da = xa[da:], max(0, da - len(xa))
        xb, db = xb[db:], max(0, db - len(xb))
    n = min(len(xa), len(xb))
    miss = _last_miss(xa, xb, n) if xa[:n] != xb[:n] else 0
    return (sa, sb, last, da, db, xa[n:], xb[n:]), n, miss


def _last_miss(xa, xb, n):
    """One past the last differing pair of the first ``n`` (some differs)."""
    return next(i for i in range(n, 0, -1) if xa[i - 1] != xb[i - 1])


def _admit(child, count):
    """Raise TooLarge if ``child``'s queues pass ``MAX_DEPTH``, else if ``count``
    nodes reach ``WORD_TABLE_LIMIT``."""
    if len(child[-2]) + len(child[-1]) > MAX_DEPTH:
        raise TooLarge(f"product queue past {MAX_DEPTH} symbols")
    if count >= WORD_TABLE_LIMIT:
        raise TooLarge(f"product walk past {WORD_TABLE_LIMIT} nodes")


def _walk(roots, edges):
    """Breadth first over the nodes of a product of machines; the shortest
    input word that ends in a mismatch, or None.

    ``roots`` maps each start node to the input word that reaches it, and
    ``edges(node)`` yields ``(input, child, pairs, miss)`` for each
    admissible input after ``node``, as :func:`_square_edges` does.  A
    nonzero ``miss`` ends the walk with the root's word, then the inputs
    down to the failing step.

    Raises
    ------
    TooLarge
        if a node's queues hold more than ``MAX_DEPTH`` symbols, or the
        walk passes ``WORD_TABLE_LIMIT`` nodes.
    """
    parent = dict.fromkeys(roots)
    queue = list(roots)
    for node in queue:
        for a, child, _, miss in edges(node):
            if miss:
                path = _tree_path(parent, node)
                return roots[path[0]] + tuple(x[2] for x in path[1:]) + (a,)
            if child in parent:
                continue
            _admit(child, len(parent))
            parent[child] = node
            queue.append(child)
    return None


def _square_edges(m, node):
    """``(input, child, pairs, miss)`` for each admissible input after
    ``node``: both sides of the square of the transducer ``m`` read it, and
    :func:`_compared` matches what they emit.  A node is ``(state A, state
    B, last input, drops owed by A and B, queues of A and B)``."""
    sa, sb, last, da, db, qa, qb = node
    if sa == sb and not (da or db or qa or qb):
        return  # settled: both sides now emit one stream, so no edge differs
    delta = m.delta
    for a in m.source.matrix.followers[last - 1]:
        (ta, oa), (tb, ob) = delta[sa, a], delta[sb, a]
        yield (a, *_compared(ta, tb, a, da, db, qa + oa, qb + ob))


def _misaligned(m, words, k, l):
    """The shortest input word, starting with one of ``words``, on which
    ``sigma^k m(sigma x) = sigma^l m(x)`` fails for every ``x`` that starts
    with it; None when it holds on all of their cylinders.

    The transducer ``m`` runs on each word ``w`` (side A) and on ``w[1:]``
    (side B); then the :func:`_walk` steps both sides on the same input
    (:func:`_square_edges`).  A closed walk certifies the equation on
    every point of the cylinders, eventually periodic or not: the output
    symbols are fixed by the input read, and ``m`` is productive.

    Raises
    ------
    TooLarge
        if the walk hits a cap.
    """
    roots = {}
    for w in words:
        (sa, oa), (sb, ob) = m._run(w), m._run(w[1:])
        node, _, miss = _compared(sa, sb, w[-1], l, k, oa, ob)
        if miss:
            return w
        roots.setdefault(node, w)
    return _walk(roots, partial(_square_edges, m))


def _difference(m, sa, sb, last, d):
    """``l - k`` read where the two runs of the transducer ``m`` first
    share a state, or None when they never do.

    The runs stand in states ``sa`` (side A) and ``sb`` (side B) after
    input ending in ``last``, with side A ``d`` symbols ahead in output.
    One :func:`~orbiteq.shifts._shortest_walk` over nodes ``(state A,
    state B, last input)`` goes to the first node with equal states, and
    ``l - k`` is ``d`` plus what side A gains in output along it: from
    there both sides emit the same stream, so ``sigma^k m(sigma x) =
    sigma^l m(x)`` on the whole cylinder of the walk.
    """
    delta, fol = m.delta, m.source.matrix.followers

    def successors(node):
        sa, sb, last = node
        return ((delta[sa, a][0], delta[sb, a][0], a) for a in fol[last - 1])

    walk = _shortest_walk(successors, (sa, sb, last), lambda node: node[0] == node[1])
    if walk is None:
        return None
    for (sa, sb, _), (_, _, a) in zip(walk, walk[1:]):
        d += len(delta[sa, a][1]) - len(delta[sb, a][1])
    return d


def _last_mismatch(m, root, memo):
    """The most symbol pairs a walk from ``root`` compares up to and
    including its last mismatch: 0 when no mismatch is reachable, ``inf``
    when a mismatch recurs on a cycle.

    The walk steps both sides of the transducer ``m`` on each admissible
    input (:func:`_square_edges`), but a mismatch is an edge label, not a
    dead end.  Every cycle of the walk compares at least one pair (``m``
    is productive), so a mismatch that a cycle reaches recurs at unbounded
    positions.  The strongly connected components of the nodes reached
    are finished sinks first (Tarjan, iteratively), so a node's value is
    read off its finished successors: an edge of ``n`` pairs to a node of
    value ``v`` gives ``n + v``, or its own mismatch when ``v`` is 0.  What
    a node leads to depends on the node alone, so ``memo``, the one memo of
    ``m``, maps each finished node to its value.

    Raises
    ------
    TooLarge
        if a node's queues hold more than ``MAX_DEPTH`` symbols, or the
        walk passes ``WORD_TABLE_LIMIT`` new nodes.
    """
    if root in memo:
        return memo[root]
    # per node on the stack: its number, low link, the greatest value of
    # an edge leaving its component, and of a mismatch inside it (-1: no
    # edge inside)
    num, low, best, inner = {}, {}, {}, {}
    stack, path = [], []

    def enter(node):
        num[node] = low[node] = len(num)
        best[node], inner[node] = 0, -1
        stack.append(node)
        path.append([node, _square_edges(m, node), None])

    def edge(node, child, n, miss):
        if child in memo:
            v = memo[child]
            best[node] = max(best[node], n + v if v else miss)
        else:  # on the stack, so in the component of node
            low[node] = min(low[node], low[child])
            inner[node] = max(inner[node], miss)

    enter(root)
    while path:
        frame = path[-1]
        node = frame[0]
        if frame[2] is not None:  # back from the child it names
            edge(node, *frame[2])
            frame[2] = None
        for _, child, n, miss in frame[1]:
            if child in num or child in memo:
                edge(node, child, n, miss)
                continue
            _admit(child, len(num))
            frame[2] = (child, n, miss)
            enter(child)
            break
        else:
            path.pop()
            if low[node] != num[node]:
                continue
            comp = []
            while not comp or comp[-1] is not node:
                comp.append(stack.pop())
            value = best[node]
            if len(comp) > 1 or inner[node] >= 0:
                value = inf if any(best[s] or inner[s] > 0 for s in comp) else 0
            memo.update(dict.fromkeys(comp, value))
            if value == inf:
                return inf
    return memo[root]


def _leaf_pair(m, leaf, memo):
    """The least ``(k, l)`` on ``[w]``, as :func:`~orbiteq.orbit.orbit_cocycles`
    finds it, at a ``leaf`` ``(w, sa, oa, sb, ob)`` of :func:`_two_runs`.

    Runs that end in one state emit one stream from there, so ``c = l - k``
    is the lead ``d0 = len(oa) - len(ob)`` and ``l`` is ``max(c, 0)`` plus
    one past the last mismatch of ``oa`` and ``ob``, ``c`` dropped from the
    side ahead.  Else ``c`` is :func:`_difference`'s, or if the runs never
    share a state the first of ``d0, d0 - 1, d0 + 1, ...`` (up to
    ``MAX_DEPTH`` away, skipping capped walks) whose walk is finite.
    """
    w, sa, oa, sb, ob = leaf
    d0 = len(oa) - len(ob)
    if sa == sb:
        xa, xb = (oa[d0:], ob) if d0 >= 0 else (oa, ob[-d0:])
        miss = _last_miss(xa, xb, len(xa)) if xa != xb else 0
        return max(-d0, 0) + miss, max(d0, 0) + miss
    c = _difference(m, sa, sb, w[-1], d0)
    if c is None:
        span = range(d0 - MAX_DEPTH, d0 + MAX_DEPTH + 1)
        diffs, skipped = sorted(span, key=lambda c: (abs(c - d0), c)), TooLarge
    else:
        diffs, skipped = [c], ()  # a cap hit at the read difference propagates
    for c in diffs:
        root, n, miss = _compared(sa, sb, w[-1], max(c, 0), max(-c, 0), oa, ob)
        try:
            after = _last_mismatch(m, root, memo)
        except skipped:
            continue
        if after < inf:
            l = max(c, 0) + (n + after if after else miss)
            return l - c, l
    raise NoAlignment(f"no orbit alignment on cylinder {w}")


def _least_pair(m, w, memo):
    """:func:`_leaf_pair` on ``[w]``, its runs read by :meth:`Transducer._run`."""
    return _leaf_pair(m, (w, *m._run(w), *m._run(w[1:])), memo)


def _two_runs(m, d, prune=None):
    """``(w, sa, oa, sb, ob)`` for each source word ``w`` of length ``d``, in
    the order of ``ShiftSpace.words(d)``: the state and output of ``m`` after
    ``w`` (side A) and after ``w[1:]`` (side B).  Depth first, so shared
    prefixes run once; a node where ``prune(*node)`` holds is dropped with
    its subtree."""
    delta, fol, s0 = m.delta, m.source.matrix.followers, m.initial
    stack = [((a,), *delta[s0, a], s0, ()) for a in range(m.source.n, 0, -1)]
    while stack:
        node = stack.pop()
        if prune and prune(*node):
            continue
        w, sa, oa, sb, ob = node
        if len(w) == d:
            yield node
            continue
        for b in reversed(fol[w[-1] - 1]):
            (ta, xa), (tb, xb) = delta[sa, b], delta[sb, b]
            stack.append((w + (b,), ta, oa + xa, tb, ob + xb))


def _certification_depth(h, kl, need):
    """Least input depth whose output prefixes cover ``need`` symbols past
    the cocycle bounds, for the word and its shift, under the transducer
    ``h``.  One forward pass: ``front`` maps each configuration ``(state,
    last input)`` that the runs of the current depth end in to the least
    output past the bound over those runs."""
    src, fol, c = h.source, h.source.matrix.followers, kl.depth
    # seeded by the runs on each depth-c word u (bound l(u)) and on u[1:]
    # (bound k(u)); each further depth steps every configuration once
    front = {}
    for u, sa, oa, sb, ob in _two_runs(h, c):
        for state, out, bound in ((sa, oa, kl.l.table[u]), (sb, ob, kl.k.table[u])):
            q = (state, u[-1])
            front[q] = min(front.get(q, inf), len(out) - bound)
    for d in range(max(c, 2), MAX_DEPTH + 1):
        # the caller's walk visits up to one leaf per depth-d word, bounded
        # as a word table is; loosening the cap because settled subtrees are
        # skipped would turn undecided verdicts into decided ones
        if src.word_count(d) > WORD_TABLE_LIMIT:
            raise TooLarge(f"word table at depth {d} too large")
        if d > c:
            front, old = {}, front
            for (s, last), budget in old.items():
                for b in fol[last - 1]:
                    t, out = h.delta[s, b]
                    front[t, b] = min(front.get((t, b), inf), budget + len(out))
        if min(front.values()) >= need:
            return d
    raise TooLarge(f"potential not certifiable within depth cap {MAX_DEPTH}")


def _runs(m, kl, d, skip_settled=False):
    """``(w, k, l, out, out_s)`` for each leaf ``w`` of :func:`_two_runs`
    at depth ``d``: the cocycles on ``w`` and the output of ``m`` on ``w``
    and on ``w[1:]``.  With ``skip_settled`` the walk prunes a node ``w`` at
    least ``kl.depth`` long where ``l - k = 1``, both runs are in one state
    and ``out[1:] == out_s`` with ``out`` nonempty: both runs emit one
    stream from there, so every leaf below passes the potential identity.
    """
    c, kt, lt = kl.depth, kl.k.table, kl.l.table

    def settled(w, sa, out, sb, out_s):
        if sa != sb or len(w) < c or len(out) != len(out_s) + 1:
            return False
        return lt[w[:c]] == kt[w[:c]] + 1 and out[1:] == out_s

    for w, _, out, _, out_s in _two_runs(m, d, settled if skip_settled else None):
        yield w, kt[w[:c]], lt[w[:c]], out, out_s


def _product_mismatch(outer, inner):
    """The shortest input word after which ``outer ∘ inner`` has emitted a
    symbol that differs from the input, or None when the composite is the
    identity on every point.

    The two machines run in series, in a :func:`_walk` from the start,
    over the nodes of :func:`_compared` with no drops: ``(inner state,
    outer state, last input symbol, 0, 0, unmatched input, output ahead
    of input)``.  Each admissible next symbol feeds ``inner``, its output
    feeds ``outer``, and what ``outer`` emits is matched against the input
    stream; at most one of the two queues is nonempty.  The output symbols
    are fixed by the input read so far, so every point that starts with a
    returned word is changed by the composite.  When the walk closes
    without a mismatch, the emitted output agrees with the input at every
    finite stage, and both machines are productive, so the composite is
    the identity.  This is the square of a transducer (Béal, Carton,
    Prieur, Sakarovitch 2003); a bounded queue is Choffrut's twinning
    property.

    Raises
    ------
    TooLarge
        if the walk hits a cap.
    """
    if inner.target != outer.source:
        raise ValueError("maps are not composable")
    fol = inner.source.matrix.followers

    def edges(node):
        s, t, last, _, _, behind, ahead = node
        for a in range(1, len(fol) + 1) if last is None else fol[last - 1]:
            sa, mid = inner.delta[(s, a)]
            sb, out = t, ahead
            for b in mid:
                sb, emitted = outer.delta[(sb, b)]
                out += emitted
            yield (a, *_compared(sa, sb, a, 0, 0, behind + (a,), out))

    start = (inner.initial, outer.initial, None, 0, 0, (), ())
    return _walk({start: ()}, edges)


def verify_inverse_pair(h, h_inv, test_pre=None, test_cyc=None):
    """Decide whether ``h_inv ∘ h`` and ``h ∘ h_inv`` are identities.

    Returns ``(True, None)``, or ``(False, p)`` where ``p`` starts with the
    first word on which a composite is not the identity, ``h_inv ∘ h``
    checked first.  The answer is exact and no point is enumerated or
    mapped: two block codes are composed (:func:`_composite_mismatch`),
    and a pair with a transducer, a block code among them presented
    through :func:`block_to_transducer`, runs the product of the two
    machines (:func:`_product_mismatch`).

    ``test_pre`` and ``test_cyc`` are accepted and not read.  They stay
    only because ``bench/worker.py`` and ``bench/check.py`` still pass
    point-family sizes positionally.

    Raises
    ------
    TooLarge
        if the check hits a cap: a composite's word table, a product queue
        past ``MAX_DEPTH`` symbols, or more than ``WORD_TABLE_LIMIT``
        product configurations.  The pair is then undecided.
    """
    codes = isinstance(h, BlockCode) and isinstance(h_inv, BlockCode)
    if not codes:
        h, h_inv = _as_transducer(h), _as_transducer(h_inv)
    mismatch = _composite_mismatch if codes else _product_mismatch
    for outer, inner in ((h_inv, h), (h, h_inv)):
        word = mismatch(outer, inner)
        if word is not None:
            return False, point_with_prefix(inner.source, word)
    return True, None

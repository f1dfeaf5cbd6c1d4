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
"""

from .config import MAX_DEPTH, WORD_TABLE_LIMIT
from .errors import ImageInadmissible, NotTotal, StallingCycle, TooLarge
from .shifts import _canonical_unchecked, point_with_prefix

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
    """Validate a block code table.

    Raises
    ------
    NotTotal
        if the table keys are not exactly the admissible window-words.
    ImageInadmissible
        if some admissible ``(window+1)``-word maps to a forbidden target
        transition; the witness word is attached to the error.
    """
    table = {tuple(k): v for k, v in table.items()}
    words = source.words(window)
    if set(table) != set(words):
        raise NotTotal("table keys must be exactly the allowed window-words")
    if any(not (1 <= v <= target.n) for v in table.values()):
        raise ImageInadmissible("table value outside the target alphabet")
    for w in source.words(window + 1):
        a, b = table[w[: window]], table[w[1 : window + 1]]
        if not target.matrix.allows(a, b):
            raise ImageInadmissible(
                f"image of {w} needs forbidden transition {a}->{b}", w
            )
    return BlockCode(source, target, window, table)


def identity_code(space):
    """The identity as a 1-block code."""
    return compile_block_code(space, space, 1, {(i,): i for i in range(1, space.n + 1)})


def compose_block_codes(outer, inner):
    """The block code ``outer after inner`` (windows add, minus one).

    The table has one key per admissible ``w``-word by construction, and
    the image of a composite of two compiled codes is admissible, so it
    needs no re-check.
    """
    if inner.target != outer.source:
        raise ValueError("codes are not composable")
    w = inner.window + outer.window - 1
    table = {u: outer.table[inner.output_prefix(u)] for u in inner.source.words(w)}
    return BlockCode(inner.source, outer.target, w, table)


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

    def step(self, state, symbol):
        return self.delta[(state, symbol)]

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
    zero_edges = []  # (config, config) pairs with empty emission
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
            new_last = out[-1] if out else last
            cfg = (nxt, a, new_last)
            src_cfg = (state, prev, last)
            if not out:
                zero_edges.append((src_cfg, cfg))
            if cfg not in seen:
                seen.add(cfg)
                stack.append(cfg)
    # a cycle made of zero-emission edges would stall the output; peel off
    # the configurations no such edge enters, and what is left holds one
    adj, into = {}, {}
    for u, v in zero_edges:
        adj.setdefault(u, []).append(v)
        into[v] = into.get(v, 0) + 1
    free = [u for u in adj if u not in into]
    while free:
        for v in adj.get(free.pop(), ()):
            into[v] -= 1
            if not into[v]:
                free.append(v)
    if any(into.values()):
        raise StallingCycle("reachable cycle emits no output")
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


def apply_map(h, p):
    """Image of the point ``p`` under the map ``h``, in canonical form.

    For a block code the image windows are read off directly.  For a
    transducer the preperiod is consumed first, then whole cycle passes
    are run until the machine state repeats at a pass boundary; the
    output between the repeats is the image cycle.

    Raises
    ------
    StallingCycle
        if the detected output cycle is empty (cannot happen for a
        validated transducer).
    """
    if isinstance(h, BlockCode):
        w = h.window
        pre_n, cyc_n = len(p.preperiod), len(p.cycle)
        seq = p.expand(pre_n + cyc_n + w - 1)
        out_pre = tuple(h.table[seq[i : i + w]] for i in range(pre_n))
        out_cyc = tuple(
            h.table[seq[i : i + w]] for i in range(pre_n, pre_n + cyc_n)
        )
        # image admissibility was checked when the code was compiled
        return _canonical_unchecked(out_pre, out_cyc)
    state = h.initial
    out_pre = []
    for a in p.preperiod:
        state, out = h.step(state, a)
        out_pre.extend(out)
    # run full cycle passes until the state at a pass boundary repeats
    seen = {state: 0}
    chunks = []
    while True:
        emitted = []
        for a in p.cycle:
            state, out = h.step(state, a)
            emitted.extend(out)
        chunks.append(tuple(emitted))
        if state in seen:
            first = seen[state]
            break
        seen[state] = len(chunks)
    head = tuple(x for c in chunks[:first] for x in c)
    cyc = tuple(x for c in chunks[first:] for x in c)
    if not cyc:
        raise StallingCycle("map produced an empty output cycle")
    # output admissibility was checked when the transducer was validated
    return _canonical_unchecked(tuple(out_pre) + head, cyc)


def _composite_mismatch(outer, inner):
    """The first word, in lexicographic order, on which the block code
    ``outer ∘ inner`` is not the identity, or None.

    The composite reads ``w = inner.window + outer.window - 1`` symbols,
    and it is the identity exactly when it maps every admissible
    ``w``-word to the word's first symbol.  The words grow one follower at
    a time from ``inner``'s window-words, so no composite table is built
    and no longer word table is left cached on the space.

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
    fol = src.matrix.followers

    def miss(word, out):
        # ``out`` is what ``inner`` has emitted on ``word``
        if len(out) == outer.window:
            return None if outer.table[out] == word[0] else word
        for b in fol[word[-1] - 1]:
            u = word + (b,)
            found = miss(u, out + (inner.table[u[-k:]],))
            if found:
                return found
        return None

    words = src.words(k)
    return next(filter(None, (miss(x, (inner.table[x],)) for x in words)), None)


def _product_mismatch(outer, inner):
    """The shortest input word after which ``outer ∘ inner`` has emitted a
    symbol that differs from the input, or None when the composite is the
    identity on every point.

    The two machines run in series, breadth first from the start, over
    nodes ``(inner state, outer state, last input symbol, unmatched input,
    output ahead of input)``.  Each admissible next symbol feeds ``inner``,
    its output feeds ``outer``, and what ``outer`` emits is matched against
    the input stream; at most one of the two queues is nonempty.  The
    output symbols are fixed by the input read so far, so every point that
    starts with a returned word is changed by the composite.  When the
    search closes without a mismatch, the emitted output agrees with the
    input at every finite stage, and both machines are productive, so the
    composite is the identity.  This is the square of a transducer (Béal,
    Carton, Prieur, Sakarovitch 2003); a bounded queue is Choffrut's
    twinning property.

    Raises
    ------
    TooLarge
        if a queue grows past ``MAX_DEPTH`` symbols or the nodes pass
        ``WORD_TABLE_LIMIT``.
    """
    if inner.target != outer.source:
        raise ValueError("maps are not composable")
    fol = inner.source.matrix.followers
    every = range(1, inner.source.n + 1)
    start = (inner.initial, outer.initial, None, (), ())
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            s, t, last, behind, ahead = node
            for a in every if last is None else fol[last - 1]:
                s2, mid = inner.delta[(s, a)]
                t2, out = t, list(ahead)
                for b in mid:
                    t2, emitted = outer.delta[(t2, b)]
                    out.extend(emitted)
                read = behind + (a,)
                k = min(len(read), len(out))
                if read[:k] != tuple(out[:k]):
                    word = [a]
                    while parent[node] is not None:
                        node, c = parent[node]
                        word.append(c)
                    return tuple(reversed(word))
                behind2, ahead2 = read[k:], tuple(out[k:])
                child = (s2, t2, a, behind2, ahead2)
                if child in parent:
                    continue
                if len(behind2) + len(ahead2) > MAX_DEPTH:
                    raise TooLarge(f"composite queue past {MAX_DEPTH} symbols")
                if len(parent) >= WORD_TABLE_LIMIT:
                    raise TooLarge("composite product has too many configurations")
                parent[child] = (node, a)
                nxt.append(child)
        frontier = nxt
    return None


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
        h, h_inv = (
            block_to_transducer(m) if isinstance(m, BlockCode) else m
            for m in (h, h_inv)
        )
    mismatch = _composite_mismatch if codes else _product_mismatch
    for outer, inner in ((h_inv, h), (h, h_inv)):
        word = mismatch(outer, inner)
        if word is not None:
            return False, point_with_prefix(inner.source, word)
    return True, None

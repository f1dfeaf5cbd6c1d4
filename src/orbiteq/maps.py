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

from .errors import ImageInadmissible, NotTotal, StallingCycle, TooLarge
from .shifts import _canonical_unchecked, enumerate_points, point_with_prefix

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
    # a cycle made of zero-emission edges would stall the output
    adj = {}
    for u, v in zero_edges:
        adj.setdefault(u, []).append(v)
    color = {}

    def dfs(u):
        color[u] = 1
        for v in adj.get(u, ()):
            if color.get(v, 0) == 1:
                raise StallingCycle("reachable cycle emits no output")
            if color.get(v, 0) == 0:
                dfs(v)
        color[u] = 2

    for u in list(adj):
        if color.get(u, 0) == 0:
            dfs(u)
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


def _inverse_by_composition(h, h_inv):
    """:func:`verify_inverse_pair` decided exactly, for two block codes.

    ``h_inv o h`` and ``h o h_inv`` are block codes
    (:func:`compose_block_codes`), and a window-``w`` code is the identity
    exactly when it maps every ``w``-word to the word's first symbol.
    Returns ``(True, None)``, or ``(False, p)`` where ``p`` starts with the
    first word on which a composite is not the identity, so the composite
    changes the first symbol of ``p``.  Returns None when this does not
    decide: a map is not a block code, or a composite's word table is too
    large.
    """
    if not (isinstance(h, BlockCode) and isinstance(h_inv, BlockCode)):
        return None
    for outer, inner in ((h_inv, h), (h, h_inv)):
        try:
            composite = compose_block_codes(outer, inner)
        except TooLarge:
            return None
        for u, b in composite.table.items():
            if b != u[0]:
                return False, point_with_prefix(inner.source, u)
    return True, None


def verify_inverse_pair(h, h_inv, test_pre, test_cyc):
    """Check ``h_inv(h(p)) = p`` and ``h(h_inv(q)) = q``.

    The checks run on point families: all canonical points with preperiod
    length up to ``test_pre`` and cycle length up to ``test_cyc``, in the
    source space of each map.  Returns ``(True, None)`` or
    ``(False, witness_point)``.

    For two block codes the answer is decided by composition, so
    ``(True, None)`` needs no family; a pair that is not inverse still
    gets the first failing family point as its witness, or, when the
    families miss it, a point on which a composite is not the identity.
    """
    exact = _inverse_by_composition(h, h_inv)
    if exact == (True, None):
        return exact
    for p in enumerate_points(h.source, test_pre, test_cyc):
        if apply_map(h_inv, apply_map(h, p)) != p:
            return False, p
    for q in enumerate_points(h_inv.source, test_pre, test_cyc):
        if apply_map(h, apply_map(h_inv, q)) != q:
            return False, q
    return exact or (True, None)

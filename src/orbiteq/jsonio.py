"""JSON forms for every value that crosses the CLI boundary.

Words are encoded as comma-separated symbol strings ("1,2,1"); the empty
word is "".  Encoders emit dicts with a fixed key order so serialized
output is byte-stable, and every decoder validates through the same
constructors the library uses internally, so a decoded value is exactly
as trustworthy as a constructed one.  A decoder raises only
:class:`OrbiteqError`: a malformed value's ``KeyError``, ``TypeError``,
``ValueError``, ``AttributeError`` or ``OverflowError`` (a number too
large for a matrix entry) is raised again as one, with its message kept.
"""

import functools
import json

from .errors import OrbiteqError
from .functions import CylinderFunction
from .maps import BlockCode, Transducer, compile_block_code, transducer
from .shifts import Point, ShiftSpace, build_shift_space, canonical_point

__all__ = [
    "word_key",
    "parse_word",
    "matrix_to_json",
    "matrix_from_json",
    "point_to_json",
    "point_from_json",
    "function_to_json",
    "function_from_json",
    "map_to_json",
    "map_from_json",
    "cocycles_to_json",
    "verdict_to_json",
    "invariants_to_json",
    "obstruction_to_json",
    "dumps",
    "load_file",
]


def word_key(word):
    return ",".join(str(a) for a in word)


def parse_word(s):
    return tuple(_integer(a) for a in s.split(",")) if s else ()


def dumps(obj):
    """Deterministic UTF-8 JSON with LF newlines."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def load_file(path):
    """The JSON value in the file at ``path``; a key written twice is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_object)


def _object(pairs):
    obj = dict(pairs)  # ``json.load`` alone keeps the last value of a repeated key
    if len(obj) != len(pairs):
        raise ValueError("a key is written twice in one object")
    return obj


def _integer(v):
    """``v`` if an ``int``, a float equal to one, or a string of ASCII
    decimal digits (as words and block tables are written); ValueError,
    not truncation, otherwise."""
    if type(v) is int:
        return v
    if type(v) is float and v.is_integer():
        return int(v)
    if type(v) is str and v.isascii() and v.isdigit():
        return int(v)
    raise ValueError(f"not an integer: {v!r}")


def _word_table(obj):
    """``obj`` with words as keys and integers as values, no word twice."""
    table = {parse_word(k): _integer(v) for k, v in obj.items()}
    if len(table) != len(obj):
        raise ValueError("a word is given twice")
    return table


def _decoder(decode):
    """``decode`` raising :class:`OrbiteqError` on a malformed value."""

    @functools.wraps(decode)
    def checked(*args):
        try:
            return decode(*args)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
            raise OrbiteqError(f"malformed input: {type(e).__name__}: {e}") from e

    return checked


# --- matrices ---------------------------------------------------------------


def matrix_to_json(space):
    m = space.matrix if isinstance(space, ShiftSpace) else space
    return {"n": m.n, "rows": m.entries.tolist()}


@_decoder
def matrix_from_json(obj):
    rows = obj["rows"]
    if "n" in obj and len(rows) != obj["n"]:
        raise OrbiteqError("matrix size field disagrees with rows")
    return build_shift_space(rows)


# --- points -----------------------------------------------------------------


def point_to_json(p):
    return {"pre": word_key(p.preperiod), "cyc": word_key(p.cycle)}


@_decoder
def point_from_json(space, obj):
    return canonical_point(space, parse_word(obj["pre"]), parse_word(obj["cyc"]))


# --- integer functions ------------------------------------------------------


def function_to_json(f):
    values = {word_key(w): f.table[w] for w in f.space.words(f.depth)}
    return {"depth": f.depth, "values": values}


@_decoder
def function_from_json(space, obj):
    table = _word_table(obj["values"])
    return CylinderFunction(space, _integer(obj["depth"]), table)


# --- maps -------------------------------------------------------------------


def map_to_json(h):
    if isinstance(h, BlockCode):
        table = {word_key(w): str(h.table[w]) for w in h.source.words(h.window)}
        return {"type": "block", "window": h.window, "table": table}
    if isinstance(h, Transducer):
        delta = [
            {"state": s, "in": a, "out": list(out), "next": nxt}
            for (s, a), (nxt, out) in sorted(
                h.delta.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            )
        ]
        return {
            "type": "transducer",
            "states": list(h.states),
            "initial": h.initial,
            "delta": delta,
        }
    raise OrbiteqError(f"cannot serialize map of type {type(h).__name__}")


@_decoder
def map_from_json(source, target, obj):
    kind = obj.get("type")
    if kind == "block":
        table = _word_table(obj["table"])
        return compile_block_code(source, target, _integer(obj["window"]), table)
    if kind == "transducer":
        delta = {}
        for row in obj["delta"]:
            key = (_state_key(row["state"]), _integer(row["in"]))
            if key in delta:
                raise ValueError(f"two delta rows for state {key[0]!r}, input {key[1]}")
            delta[key] = (
                _state_key(row["next"]),
                tuple(_integer(b) for b in row["out"]),
            )
        states = [_state_key(s) for s in obj["states"]]
        if len(set(states)) != len(states):  # 1 and true are one state
            raise ValueError("a state is given twice")
        initial = _state_key(obj["initial"])
        _plain_state((*states, initial, *delta, *delta.values()))
        return transducer(source, target, states, initial, delta)
    raise OrbiteqError(f"unknown map type {kind!r}")


def _state_key(s):
    # JSON has no tuples; lists that appear as state names come back as tuples
    if isinstance(s, list):
        return tuple(_state_key(x) for x in s)
    return s


def _plain_state(s):
    """ValueError if the state name ``s`` is or holds a bool or a float:
    ``1``, ``true`` and ``1.0`` are equal, so they would name one state.
    Delta rows may be passed whole, since their other entries are ints."""
    if isinstance(s, (bool, float)):
        raise ValueError(f"state name {s!r} is a bool or a float")
    if isinstance(s, tuple):
        for x in s:
            _plain_state(x)


# --- verdicts and reports ---------------------------------------------------


def cocycles_to_json(pair):
    return {"k": function_to_json(pair.k), "l": function_to_json(pair.l)}


def _witness_to_json(w):
    if w is None:
        return None
    if isinstance(w, Point):
        return {"point": point_to_json(w)}
    return {"word": word_key(w)}


def verdict_to_json(v):
    out = {"verdict": v.kind}
    out["K"] = v.lag
    out["witness"] = _witness_to_json(v.witness)
    if v.cocycles is not None:
        out["cocycles"] = {
            "forward": cocycles_to_json(v.cocycles[0]),
            "backward": cocycles_to_json(v.cocycles[1]),
        }
    else:
        out["cocycles"] = None
    if v.transfers is not None:
        out["transfers"] = {
            "b1": function_to_json(v.transfers[0]),
            "b2": function_to_json(v.transfers[1]),
        }
    else:
        out["transfers"] = None
    out["depth"] = v.depth
    out["note"] = v.note
    return out


def invariants_to_json(rep):
    return {
        "bf": list(rep.bf_factors),
        "detSign": rep.det_sign,
        "k0": list(rep.bf_factors),
        "k1Rank": rep.bf_factors.count(0),
    }


def obstruction_to_json(rep):
    return {
        "left": invariants_to_json(rep.left),
        "right": invariants_to_json(rep.right),
        "obstruction": dict(rep.ruled_out),
        "obstructed": rep.obstructed,
    }

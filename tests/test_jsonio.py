import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from orbiteq import (
    OrbiteqError,
    Point,
    canonical_point,
    classify,
    indicator,
    invariant_report,
    obstruction_report,
)
from orbiteq import jsonio


def test_matrix_round_trip(golden):
    obj = jsonio.matrix_to_json(golden)
    assert obj == {"n": 2, "rows": [[1, 1], [1, 0]]}
    back = jsonio.matrix_from_json(json.loads(json.dumps(obj)))
    assert back == golden


def test_point_round_trip(full2):
    p = canonical_point(full2, (1,), (2,))
    obj = jsonio.point_to_json(p)
    assert obj == {"pre": "1", "cyc": "2"}
    assert jsonio.point_from_json(full2, obj) == p
    # canonicalization runs on parse as well
    rotated = jsonio.point_from_json(full2, {"pre": "2", "cyc": "1,2"})
    assert rotated == Point((), (2, 1))
    q = Point((), (1,))
    assert jsonio.point_from_json(full2, jsonio.point_to_json(q)) == q


def test_function_round_trip(golden):
    f = indicator(golden, (1, 2))
    obj = jsonio.function_to_json(f)
    assert obj == {"depth": 2, "values": {"1,1": 0, "1,2": 1, "2,1": 0}}
    back = jsonio.function_from_json(golden, json.loads(json.dumps(obj)))
    assert back == f


def test_block_map_round_trip(full2, swap2):
    obj = jsonio.map_to_json(swap2)
    assert obj == {"type": "block", "window": 1, "table": {"1": "2", "2": "1"}}
    back = jsonio.map_from_json(full2, full2, json.loads(json.dumps(obj)))
    assert back == swap2


def test_transducer_round_trip(full2, recoder):
    obj = jsonio.map_to_json(recoder)
    back = jsonio.map_from_json(full2, full2, json.loads(json.dumps(obj)))
    assert back.delta == recoder.delta
    assert back.initial == recoder.initial


def test_verdict_json_stable(full2, recoder, cfg):
    v = classify(recoder, recoder, cfg)
    one = jsonio.dumps(jsonio.verdict_to_json(v))
    two = jsonio.dumps(jsonio.verdict_to_json(classify(recoder, recoder, cfg)))
    assert one == two
    payload = json.loads(one)
    assert payload["verdict"] == "EventualConjugacy"
    assert payload["K"] == 1
    assert list(payload) == [
        "verdict",
        "K",
        "witness",
        "cocycles",
        "transfers",
        "depth",
        "note",
    ]


def test_verdict_cocycles_reparse(full2, recoder, cfg):
    v = classify(recoder, recoder, cfg)
    payload = jsonio.verdict_to_json(v)
    k = jsonio.function_from_json(full2, payload["cocycles"]["forward"]["k"])
    assert k == v.cocycles[0].k


def test_invariant_report_json(full3):
    rep = invariant_report(full3)
    assert jsonio.invariants_to_json(rep) == {
        "bf": [2],
        "detSign": -1,
        "k0": [2],
        "k1Rank": 0,
    }


def test_obstruction_json(full2, full3):
    obj = jsonio.obstruction_to_json(obstruction_report(full2, full3))
    assert obj["obstructed"] is True
    assert obj["obstruction"]["coe"] is True


def test_dumps_deterministic(golden):
    a = jsonio.dumps(jsonio.matrix_to_json(golden))
    b = jsonio.dumps(jsonio.matrix_to_json(golden))
    assert a == b and a.endswith("\n") and "\r" not in a


# --- decoders on malformed input -----------------------------------------------

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def _committed(name):
    return jsonio.load_file(INPUTS / f"{name}.json")


FULL2, GOLDEN = (jsonio.matrix_from_json(_committed(n)) for n in ("full2", "golden"))
SPLIT5_BASE, SPLIT5 = (
    jsonio.matrix_from_json(_committed(n)) for n in ("split5-base", "split5")
)
# each decoder with the well-formed committed values it is fed
DECODERS = [
    (jsonio.matrix_from_json, _committed("golden")),
    (jsonio.matrix_from_json, _committed("split5")),
    (lambda obj: jsonio.point_from_json(GOLDEN, obj), {"pre": "2", "cyc": "1,2"}),
    (lambda obj: jsonio.function_from_json(GOLDEN, obj), _committed("psi-f2")),
    (lambda obj: jsonio.map_from_json(FULL2, GOLDEN, obj), _committed("golden-map")),
    (lambda obj: jsonio.map_from_json(FULL2, FULL2, obj), _committed("recoder2")),
    (
        lambda obj: jsonio.map_from_json(SPLIT5_BASE, SPLIT5, obj),
        _committed("split5-code"),
    ),
]
# small integers, and a few past every cap, keep each example fast
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.sampled_from([25, 10**9, -(10**9)])
    | st.floats()
    | st.text(alphabet="12,ab x", max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(alphabet="12,ab", max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(obj, path=()):
    """Every path to a value inside ``obj``, the root included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_decoders_raise_only_orbiteq_error(data):
    # an arbitrary JSON value, or a committed input with one field replaced:
    # each decoder returns a value or raises OrbiteqError, nothing else
    decode, good = data.draw(st.sampled_from(DECODERS))
    path = data.draw(st.sampled_from(list(_paths(good))))
    obj = _replaced(good, path, data.draw(JSON))
    try:
        decode(json.loads(json.dumps(obj)))
    except OrbiteqError:
        pass

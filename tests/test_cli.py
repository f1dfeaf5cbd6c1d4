import ast
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbiteq
from orbiteq import (
    InconsistentRoutes,
    RunConfig,
    TooLarge,
    apply_map,
    build_shift_space,
    classify,
    cli,
    identity_code,
    induced_potential,
    maps,
    orbit_cocycles,
    out_split,
)
from orbiteq import jsonio
from orbiteq.cli import main
from orbiteq.generators import prefix_exchange

from conftest import delay_line_json, expansion_maps

RECODER_JSON = {
    "type": "transducer",
    "states": ["q0", "s1", "s2", "copy"],
    "initial": "q0",
    "delta": [
        {"state": "q0", "in": 1, "out": [], "next": "s1"},
        {"state": "q0", "in": 2, "out": [], "next": "s2"},
        {"state": "s1", "in": 1, "out": [1, 1], "next": "copy"},
        {"state": "s1", "in": 2, "out": [2, 2], "next": "copy"},
        {"state": "s2", "in": 1, "out": [2, 1], "next": "copy"},
        {"state": "s2", "in": 2, "out": [1, 2], "next": "copy"},
        {"state": "copy", "in": 1, "out": [1], "next": "copy"},
        {"state": "copy", "in": 2, "out": [2], "next": "copy"},
    ],
}


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    golden = build_shift_space([[1, 1], [1, 0]])
    full2 = build_shift_space([[1, 1], [1, 1]])
    full3 = build_shift_space([[1, 1, 1]] * 3)
    return {
        "golden": write("golden.json", jsonio.matrix_to_json(golden)),
        "full2": write("full2.json", jsonio.matrix_to_json(full2)),
        "full3": write("full3.json", jsonio.matrix_to_json(full3)),
        "perm": write("perm.json", {"n": 2, "rows": [[0, 1], [1, 0]]}),
        "identg": write(
            "identg.json", jsonio.map_to_json(identity_code(golden))
        ),
        "ident2": write(
            "ident2.json", jsonio.map_to_json(identity_code(full2))
        ),
        "swap2": write(
            "swap2.json",
            {"type": "block", "window": 1, "table": {"1": "2", "2": "1"}},
        ),
        "recoder": write("recoder.json", RECODER_JSON),
        "ind1": write("ind1.json", {"depth": 1, "values": {"1": 1, "2": 0}}),
        "one": write("one.json", {"depth": 1, "values": {"1": 1, "2": 1}}),
        "write": write,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_golden(files, capsys):
    code, out = run(capsys, ["analyze", files["golden"]])
    assert code == 0
    assert "irreducible, non-permutation" in out
    assert "detSign: -1" in out
    assert "trivial" in out


def test_analyze_permutation_exits_1(files, capsys):
    code = main(["analyze", files["perm"]])
    assert code == 1


def test_analyze_full3_json(files, capsys):
    code, out = run(capsys, ["analyze", files["full3"], "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["bf"] == [2]
    assert payload["periodicCounts"]["2"] == 9


def test_compare_full2_full3(files, capsys):
    code, out = run(capsys, ["compare", files["full2"], files["full3"]])
    assert code == 0
    assert "ruled out" in out


def test_compare_golden_split(files, capsys, tmp_path):
    golden = build_shift_space([[1, 1], [1, 0]])
    sp, _, _ = out_split(golden, {1: [(1,), (2,)]})
    split_file = files["write"]("split.json", jsonio.matrix_to_json(sp))
    code, out = run(
        capsys,
        ["compare", files["golden"], split_file, "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oneSidedConjugate"] is True
    assert payload["conjugacy"] is not None
    # emitted codes re-parse and re-verify as an inverse pair
    from orbiteq import verify_inverse_pair

    h = jsonio.map_from_json(golden, sp, payload["conjugacy"]["map"])
    h_inv = jsonio.map_from_json(sp, golden, payload["conjugacy"]["inverse"])
    assert verify_inverse_pair(h, h_inv)[0]


def test_compare_pair_joined_only_by_integer_merges(files, capsys):
    # conjugate, but only through an integer amalgamation
    a_rows = [[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 1, 0]]
    b_rows = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
    a = files["write"]("a.json", {"n": 4, "rows": a_rows})
    b = files["write"]("b.json", {"n": 4, "rows": b_rows})
    code, out = run(capsys, ["compare", a, b, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["oneSidedConjugate"] is True
    assert set(payload["conjugacy"]) == {"map", "inverse"}


def test_compare_identical(files, capsys):
    code, out = run(capsys, ["compare", files["golden"], files["golden"]])
    assert code == 0
    assert "one-sided conjugate: true" in out


def test_verify_identity(files, capsys):
    code, out = run(
        capsys,
        [
            "verify",
            files["golden"],
            files["golden"],
            files["identg"],
            files["identg"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Conjugacy"
    k = payload["cocycles"]["forward"]["k"]["values"]
    l = payload["cocycles"]["forward"]["l"]["values"]
    assert set(k.values()) == {0} and set(l.values()) == {1}


def test_verify_recoder(files, capsys):
    code, out = run(
        capsys,
        [
            "verify",
            files["full2"],
            files["full2"],
            files["recoder"],
            files["recoder"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "EventualConjugacy"
    assert payload["K"] == 1


def test_verify_recoder_past_word_cap(files, capsys):
    # depth 20 is legal, but certifying the potential identity there
    # needs a word table past the cap: that route stays undecided
    code, out = run(
        capsys,
        [
            "verify",
            files["full2"],
            files["full2"],
            files["recoder"],
            files["recoder"],
            "--depth",
            "20",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "EventualConjugacy"
    assert payload["K"] == 1


def test_verify_expansion_names_transfer_obstruction(files, capsys):
    # full 2-shift onto the golden mean shift by 2 -> 2 1: the forward
    # l - k - 1 is 1 on the cylinder of 2, so it sums to 1 over 1,2
    h, h_inv = expansion_maps(2, {2: 1})
    fwd = files["write"]("expand.json", jsonio.map_to_json(h))
    back = files["write"]("expand_inv.json", jsonio.map_to_json(h_inv))
    code, out = run(capsys, ["verify", files["full2"], files["golden"], fwd, back])
    assert code == 0
    assert out.splitlines()[0] == "verdict: COE"
    assert out.splitlines()[-1] == (
        "no strong orbit equivalence transfer exists: "
        "forward l - k - 1 sums to 1 over the cycle 1,2"
    )


def test_verify_inconsistent_routes_exits_1(files, capsys, monkeypatch):
    def inconsistent(*args):
        raise InconsistentRoutes("direct conjugacy check disagrees")

    monkeypatch.setattr(cli, "classify", inconsistent)
    argv = ["verify", files["full2"], files["full2"], files["swap2"], files["swap2"]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: InconsistentRoutes: direct conjugacy check disagrees\n"
    )


def test_verify_equal_window_exchange_at_depth_1(files, capsys):
    # the exchange 1 1 2 <-> 1 2 1 passes the potential identity at depth 1
    # but fails the direct check: an eventual conjugacy, not an error
    full2 = build_shift_space([[1, 1], [1, 1]])
    exchange = prefix_exchange(full2, (1, 1, 2), (1, 2, 1))
    swap = files["write"]("swap.json", jsonio.map_to_json(exchange))
    argv = ["verify", files["full2"], files["full2"], swap, swap, "--depth", "1"]
    code, out = run(capsys, [*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["K"]) == ("EventualConjugacy", 3)


def full32_block(files):
    """``verify`` of the identity of the full shift on 32 symbols as a
    1-block code, which is a conjugacy in closed form with 1-words only."""
    n = 32
    space = files["write"]("full32.json", {"n": n, "rows": [[1] * n] * n})
    table = {str(a): str(a) for a in range(1, n + 1)}
    code = files["write"]("ident32.json", {"type": "block", "window": 1, "table": table})
    return ["verify", space, space, code, code]


def delay_pair(files):
    """``verify`` on the golden mean of a map that holds back 25 input
    symbols, given as its own inverse: the product of the two machines
    queues more unmatched input than the cap allows."""
    delay = files["write"]("delay25.json", delay_line_json(25))
    return ["verify", files["golden"], files["golden"], delay, delay]


UNDECIDED = {"verdict": "Undecided", "note": "product queue past 24 symbols"}


def test_verify_cap_hit_is_undecided_json(files, capsys):
    code, out = run(capsys, delay_pair(files) + ["--format", "json"])
    assert code == 2
    assert json.loads(out) == UNDECIDED
    code, out = run(capsys, full32_block(files) + ["--format", "json"])
    assert (code, json.loads(out)["verdict"]) == (0, "Conjugacy")


def test_psi_cap_hit_has_the_verify_undecided_form(files, capsys, monkeypatch):
    def capped(*args):
        raise TooLarge(UNDECIDED["note"])

    monkeypatch.setattr(cli, "induced_potential", capped)
    argv = ["psi", files["full2"], files["full2"], files["ident2"], files["ind1"]]
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 2
    assert json.loads(out) == UNDECIDED
    assert run(capsys, argv) == (2, f"undecided: {UNDECIDED['note']}\n")


def run_child(args):
    """A child interpreter run with ``args``, on this package."""
    src = str(Path(orbiteq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def run_process(argv):
    """``python -m orbiteq.cli`` in a child interpreter, on this package."""
    return run_child(["-m", "orbiteq.cli", *argv])


def test_analyze_entry_not_0_or_1_exits_1_without_traceback(files):
    # 1.5 was once truncated to 1, and the golden mean analysed
    half = files["write"]("half.json", {"rows": [[1, 1.5], [1, 0]]})
    proc = run_process(["analyze", half])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: NotZeroOne: transition matrix entries must be 0 or 1 (in {half})\n"
    )
    for name, rows in (
        ("point5", [[1, 0.5], [1, 1]]),
        ("string", [[1, "1"], [1, 0]]),
        ("ragged", [[1, 1], [1]]),
    ):
        code = main(["analyze", files["write"](f"{name}.json", {"rows": rows})])
        assert code == 1, name


def test_cli_commands_do_not_import_numpy(files):
    # a fresh interpreter: the test session itself imports numpy; nor may
    # a command pay for dataclasses and the inspect it pulls in
    argvs = [
        ["analyze", files["golden"], "--format", "json"],
        ["compare", files["full2"], files["full3"]],
        ["verify", files["full2"], files["full2"], files["recoder"], files["recoder"]],
        ["psi", files["full2"], files["full2"], files["ident2"], files["ind1"]],
    ]
    script = (
        "import sys\n"
        "from orbiteq.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = run_child(["-c", script])
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_no_module_imports_dataclasses_or_inspect():
    # the records are namedtuples and __slots__ classes, so no command
    # loads dataclasses, and inspect with it, at start-up
    importers = set()
    for path in Path(orbiteq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if {m.split(".")[0] for m in modules} & {"dataclasses", "inspect"}:
                importers.add(path.name)
    assert importers == set()


def test_cli_process_maps_caps_and_malformed_files_to_exit_codes(files):
    proc = run_process(delay_pair(files))
    assert proc.returncode == 2
    assert proc.stdout == f"undecided: {UNDECIDED['note']}\n"
    assert "Traceback" not in proc.stderr
    state = {"a": 1}  # a JSON object cannot name a state
    delta = [{"state": state, "in": a, "out": [a], "next": state} for a in (1, 2)]
    bad_map = {"type": "transducer", "states": [state], "initial": state, "delta": delta}
    listed = files["write"]("list.json", [1, 2])
    obj_state = files["write"]("obj-state.json", bad_map)
    list_values = files["write"]("list-values.json", {"depth": 1, "values": [1, 2]})
    full2 = files["full2"]
    for argv in (
        ["analyze", listed],
        ["verify", full2, full2, obj_state, obj_state],
        ["psi", full2, full2, files["ident2"], list_values],
    ):
        proc = run_process(argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: OrbiteqError: malformed input: ")


def _recoder_with(**row):
    """``RECODER_JSON`` with the first row of its delta changed."""
    first, *rest = RECODER_JSON["delta"]
    return {**RECODER_JSON, "delta": [{**first, **row}, *rest]}


def _argv_with(files, command, path):
    """``verify`` with ``path`` as the forward map, or ``psi`` with it as
    the function, on the full 2-shift."""
    full2 = files["full2"]
    if command == "verify":
        return ["verify", full2, full2, path, files["ident2"]]
    return ["psi", full2, full2, files["ident2"], path]


BLOCK_TABLE = {"1": "1", "2": "2"}


@pytest.mark.parametrize(
    "command, obj",
    [
        ("verify", {"type": "block", "window": 1, "table": {"1": 1.7, "2": "2"}}),
        ("verify", {"type": "block", "window": 1, "table": {"1": "1.5", "2": "2"}}),
        ("verify", {"type": "block", "window": 1.5, "table": BLOCK_TABLE}),
        ("verify", {"type": "block", "window": True, "table": BLOCK_TABLE}),
        ("verify", _recoder_with(out=[2.9])),
        ("verify", _recoder_with(**{"in": True})),
        ("psi", {"depth": 1, "values": {"1": 1.5, "2": 0}}),
        ("psi", {"depth": True, "values": {"1": 1, "2": 0}}),
        ("psi", {"depth": "1.5", "values": {"1": 1, "2": 0}}),
    ],
    ids=[
        "table-1.7",
        "table-str-1.5",
        "window-1.5",
        "window-true",
        "out-2.9",
        "in-true",
        "value-1.5",
        "depth-true",
        "depth-str-1.5",
    ],
)
def test_malformed_numbers_exit_1_with_one_line(files, capsys, command, obj):
    # refused, not truncated or read as a bool: a table value 1.7 once read
    # as 1, and verify answered Conjugacy for a map the file does not give
    assert main(_argv_with(files, command, files["write"]("bad.json", obj))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: OrbiteqError: malformed input: ValueError: "
    )
    assert len(captured.err.splitlines()) == 1


BOOL_STATE = {
    "type": "transducer",
    "states": [1, True],
    "initial": 1,
    "delta": [
        {"state": 1, "in": 1, "out": [1], "next": True},
        {"state": 1, "in": 2, "out": [2], "next": True},
        {"state": True, "in": 1, "out": [2], "next": 1},
        {"state": True, "in": 2, "out": [1], "next": 1},
    ],
}
HALF_BOOL_STATE = {**BOOL_STATE, "delta": BOOL_STATE["delta"][:2]}
# not strings of ASCII decimal digits, though int() reads each
DIGIT_LOOKALIKES = {"arabic-2": "٢", "plus-2": "+2", "space-2": " 2", "1_0": "1_0"}


def _block(table):
    return {"type": "block", "window": 1, "table": table}


@pytest.mark.parametrize(
    "command, obj, message",
    [
        ("verify", _block({**BLOCK_TABLE, "01": "2", "02": "1"}), "given twice"),
        ("psi", {"depth": 1, "values": {"1": 0, "2": 0, "01": 5}}, "given twice"),
        ("verify", BOOL_STATE, "two delta rows for state True, input 1"),
        ("verify", HALF_BOOL_STATE, "a state is given twice"),
        *(
            ("verify", _block({"1": s, "2": "1"}), repr(s))
            for s in DIGIT_LOOKALIKES.values()
        ),
        *(
            ("psi", {"depth": 1, "values": {"1": 0, s: 0}}, repr(s))
            for s in DIGIT_LOOKALIKES.values()
        ),
    ],
    ids=[
        "table-repeats-1",
        "values-repeat-1",
        "state-1-and-true",
        "state-true-without-rows",
        *(f"value-{name}" for name in DIGIT_LOOKALIKES),
        *(f"key-{name}" for name in DIGIT_LOOKALIKES),
    ],
)
def test_misread_files_exit_1_with_one_line(files, capsys, command, obj, message):
    # each file was once read as another: a repeated key kept its last value
    # (the table above as the swap), 1 and true were one state (with no rows
    # of its own, true took the rows of 1), and the symbols below were read
    # as 2 or as 10
    assert main(_argv_with(files, command, files["write"]("bad.json", obj))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: OrbiteqError: malformed input: ValueError: "
    )
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1


def _one_state(**names):
    """The identity on the full 2-shift as a one-state machine named 1,
    with the names given in ``names`` (``states``, ``initial``, ``state``
    or ``next``) put in their places instead."""
    state, nxt = names.get("state", 1), names.get("next", 1)
    rows = [{"state": state, "in": a, "out": [a], "next": nxt} for a in (1, 2)]
    return {
        "type": "transducer",
        "states": names.get("states", [1]),
        "initial": names.get("initial", 1),
        "delta": rows,
    }


REPEATED_KEYS = (
    '{"type": "block", "window": 1, "table": {"1": "1", "2": "2", "1": "2", "2": "1"}}'
)


@pytest.mark.parametrize(
    "names, message",
    [
        ({"states": [1.0]}, "state name 1.0 is a bool or a float"),
        ({"states": [True]}, "state name True is a bool or a float"),
        ({"initial": True}, "state name True is a bool or a float"),
        ({"state": 1.0}, "state name 1.0 is a bool or a float"),
        ({"next": True}, "state name True is a bool or a float"),
        (
            {"states": [[1, True]], "initial": [1, 1], "state": [1, 1], "next": [1, 1]},
            "state name True is a bool or a float",
        ),
        ({"initial": True, "state": 1.0, "next": True}, "is a bool or a float"),
    ],
    ids=["states-1.0", "states-true", "initial", "state", "next", "in-a-list", "mixed"],
)
def test_bool_and_float_state_names_exit_1_through_the_module(files, names, message):
    # 1, true and 1.0 are equal in Python, so each file below once loaded
    # as the one-state identity and verify answered Conjugacy
    full2 = files["full2"]
    plain = files["write"]("plain.json", _one_state())
    assert run_process(["verify", full2, full2, plain, plain]).returncode == 0
    bad = files["write"]("bad.json", _one_state(**names))
    proc = run_process(["verify", full2, full2, bad, bad])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: OrbiteqError: malformed input: ValueError: ")
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_a_key_written_twice_exits_1_through_the_module(files, tmp_path):
    # json.load keeps the last value of a repeated key: the table below
    # once read as the swap, and verify answered Conjugacy
    full2 = files["full2"]
    path = tmp_path / "twice.json"
    path.write_text(REPEATED_KEYS, encoding="utf-8")
    proc = run_process(["verify", full2, full2, str(path), str(path)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: ValueError: a key is written twice in one object (in {path})\n"
    )
    # one object per level: the same key in two objects is no repeat
    nested = {"type": "block", "window": 1, "table": {"1": "1", "2": "2"}}
    assert jsonio.load_file(files["write"]("nested.json", nested)) == nested


def test_a_file_that_fails_to_load_is_named(files, tmp_path):
    # with four file arguments, an error line without a path once left the
    # user to guess which one was malformed
    full2 = files["full2"]
    recoder2 = str(INPUTS / "recoder2.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "block", "window": 1, "table": {"1": "1", "2": "2"},}')
    for argv in (
        ["verify", full2, full2, str(bad), recoder2],
        ["verify", full2, full2, recoder2, str(bad)],
    ):
        proc = run_process(argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: JSONDecodeError: Expecting property name")
        assert proc.stderr.endswith(f" (in {bad})\n")
        assert len(proc.stderr.splitlines()) == 1


def test_integral_floats_read_as_integers(files, capsys):
    # a psi function of depth 1.0 once ended in a slicing TypeError
    full2 = files["full2"]
    values = {"1": 1.0, "2": "0"}
    whole = files["write"]("whole.json", {"depth": 1.0, "values": values})
    psi = ["psi", full2, full2, files["ident2"]]
    assert run(capsys, psi + [whole]) == run(capsys, psi + [files["ind1"]])
    swap = {"type": "block", "window": 1.0, "table": {"1": 2.0, "2": 1}}
    table = files["write"]("table.json", swap)
    verify = ["verify", full2, full2]
    assert run(capsys, verify + [table, table]) == run(
        capsys, verify + [files["swap2"], files["swap2"]]
    )


@pytest.mark.parametrize(
    "command, obj",
    [
        ("verify", {"type": "block", "window": 25, "table": {}}),
        ("psi", {"depth": 25, "values": {}}),
    ],
)
def test_depth_past_the_cap_in_a_file_exits_1(files, capsys, command, obj):
    deep = files["write"]("deep.json", obj)
    assert main(_argv_with(files, command, deep)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: TooLarge: depth 25 exceeds cap 24 (in {deep})\n"


def test_verify_product_cap_is_undecided(files, capsys, monkeypatch):
    # the committed recoder holds back one input symbol, past a cap of none
    monkeypatch.setattr(maps, "MAX_DEPTH", 0)
    recoder2 = str(Path(__file__).resolve().parents[1] / "bench/inputs/recoder2.json")
    argv = ["verify", files["full2"], files["full2"], recoder2, recoder2]
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 2
    note = "product queue past 0 symbols"
    assert json.loads(out) == {"verdict": "Undecided", "note": note}


def test_verify_undecided_when_no_cocycle_depth_aligns(files, capsys):
    # the (1) <-> (2^7 1) exchange aligns on no cylinder of depth 3 to 8
    full2 = build_shift_space([[1, 1], [1, 1]])
    exchange = prefix_exchange(full2, (1,), (2,) * 7 + (1,))
    assert jsonio.verdict_to_json(classify(exchange, exchange, RunConfig())) == {
        "verdict": "Undecided",
        "K": None,
        "witness": None,
        "cocycles": None,
        "transfers": None,
        "depth": 8,
        "note": "no orbit alignment on cylinder (1, 2, 2, 2, 2, 2, 2, 2)",
    }
    path = files["write"]("exchange.json", jsonio.map_to_json(exchange))
    code, out = run(capsys, ["verify", files["full2"], files["full2"], path, path])
    assert code == 2
    assert "verdict: Undecided" in out


def test_verify_long_delay_line_has_no_traceback(files):
    delay = files["write"]("delay.json", delay_line_json(1200))
    proc = run_process(["verify", files["full2"], files["full2"], delay, delay])
    assert proc.returncode in (0, 1, 2, 3)
    assert "Traceback" not in proc.stderr


def test_verify_swapped_inverse_exits_3(files, capsys):
    code, out = run(
        capsys,
        [
            "verify",
            files["full2"],
            files["full2"],
            files["swap2"],
            files["ident2"],
        ],
    )
    assert code == 3
    assert "failed" in out


def test_verify_refutes_an_exchange_the_family_misses(files, capsys):
    # no fixed point starts with 1,1,2 or 2,2,1, so the (0, 1) family sees
    # the exchange as the identity; the product of the two maps does not
    full2 = build_shift_space([[1, 1], [1, 1]])
    exchange = prefix_exchange(full2, (1, 1, 2), (2, 2, 1))
    path = files["write"]("exchange.json", jsonio.map_to_json(exchange))
    argv = ["verify", files["full2"], files["full2"], files["ident2"], path]
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "NotInversePair"
    p = jsonio.point_from_json(full2, payload["witness"]["point"])
    assert apply_map(exchange, p) != p


def test_verify_parse_error_exits_1(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(
        ["verify", files["full2"], files["full2"], str(bad), files["ident2"]]
    )
    assert code == 1


def test_psi_conjugacy_flag_true(files, capsys):
    code, out = run(
        capsys,
        [
            "psi",
            files["full2"],
            files["full2"],
            files["ident2"],
            files["ind1"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matchesComposition"] is True


def test_psi_constant_equals_l_minus_k(files, capsys):
    code, out = run(
        capsys,
        [
            "psi",
            files["full2"],
            files["full2"],
            files["recoder"],
            files["one"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    ktab = payload["cocycles"]["k"]["values"]
    ltab = payload["cocycles"]["l"]["values"]
    induced = payload["induced"]["values"]
    for w, val in induced.items():
        key = ",".join(w.split(",")[:3])
        assert val == ltab[key] - ktab[key]


def test_psi_recoder_indicator_flag_false(files, capsys):
    code, out = run(
        capsys,
        [
            "psi",
            files["full2"],
            files["full2"],
            files["recoder"],
            files["ind1"],
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert json.loads(out)["matchesComposition"] is False


def test_psi_on_a_constant_code_reads_the_square_pair(files, capsys):
    # psi does not check that its map is injective; for the constant code
    # the square gives (0, 1) on every cylinder, though (0, 0) aligns too,
    # and the induced table is l - k = 1 on every word
    const = files["write"](
        "const.json", {"type": "block", "window": 1, "table": {"1": "1", "2": "1"}}
    )
    argv = ["psi", files["full2"], files["full2"], const, files["one"]]
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload["cocycles"]["k"]["values"].values()) == {0}
    assert set(payload["cocycles"]["l"]["values"].values()) == {1}
    assert set(payload["induced"]["values"].values()) == {1}


def test_psi_searches_cocycle_depths_like_verify(files, capsys):
    # the (1) <-> (2, 2, 2) exchange aligns at cocycle depth 4, not 3
    full2 = build_shift_space([[1, 1], [1, 1]])
    exchange = prefix_exchange(full2, (1,), (2, 2, 2))
    path = files["write"]("exchange.json", jsonio.map_to_json(exchange))
    argv = ["psi", files["full2"], files["full2"], path, files["ind1"]]
    code, out = run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    kl = orbit_cocycles(exchange, 4)
    f = jsonio.function_from_json(full2, {"depth": 1, "values": {"1": 1, "2": 0}})
    g = induced_potential(exchange, kl, f)
    assert payload["cocycles"] == jsonio.cocycles_to_json(kl)
    assert payload["induced"] == jsonio.function_to_json(g)
    assert (g.depth, len(g.table)) == (5, 32)
    # with the search capped at depth 3 it finds nothing: undecided
    code, out = run(capsys, argv + ["--depth", "3", "--format", "json"])
    assert code == 2
    note = "no orbit alignment on cylinder (1, 2, 2)"
    assert json.loads(out) == {"verdict": "Undecided", "note": note}


def test_psi_block_code_past_the_word_table_cap_is_undecided(files, capsys):
    # a window-2 code on the full 16-shift with f of depth 3 certifies at
    # depth 5, past the cap: undecided before any word is walked
    full16 = build_shift_space([[1] * 16] * 16)
    h = maps.compile_block_code(
        full16, full16, 2, {w: w[0] for w in full16.words(2)}
    )
    f = orbiteq.CylinderFunction(full16, 3, {w: w[2] for w in full16.words(3)})
    argv = [
        "psi",
        files["write"]("full16.json", jsonio.matrix_to_json(full16)),
        files["write"]("full16.json", jsonio.matrix_to_json(full16)),
        files["write"]("window2.json", jsonio.map_to_json(h)),
        files["write"]("f3.json", jsonio.function_to_json(f)),
        "--format",
        "json",
    ]
    code, out = run(capsys, argv)
    assert code == 2
    note = "word table at depth 5 too large"
    assert json.loads(out) == {"verdict": "Undecided", "note": note}


def test_compare_undecided_exits_2(files, capsys):
    # beyond the matching cap and without an invariant obstruction the
    # comparison must admit it decided nothing
    n = 13
    big = files["write"]("big.json", {"n": n, "rows": [[1] * n for _ in range(n)]})
    code, out = run(capsys, ["compare", big, big])
    assert code == 2
    assert "undecided" in out


def test_json_output_byte_stable(files, capsys):
    _, out1 = run(capsys, ["analyze", files["golden"], "--format", "json"])
    _, out2 = run(capsys, ["analyze", files["golden"], "--format", "json"])
    assert out1 == out2


def test_search_flags_belong_to_verify_and_psi(files, capsys):
    # analyze reads no search flag, so it accepts none: a usage error, exit 1
    assert main(["analyze", files["full2"], "--depth", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert main(["compare", files["full2"], files["full2"], "--depth", "2"]) == 1
    capsys.readouterr()
    # nothing reads a point-family size, so no subcommand takes one
    argv = ["verify", files["full2"], files["full2"], files["ident2"], files["ident2"]]
    assert main(argv + ["--max-cyc", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--depth", "0"], "depth must be in 1..24"),
        (["--depth", "25"], "depth must be in 1..24"),
    ],
)
def test_out_of_range_flags_exit_1_with_one_line(files, capsys, flags, message):
    for command, last in (("verify", files["ident2"]), ("psi", files["ind1"])):
        argv = [command, files["full2"], files["full2"], files["ident2"], last]
        assert main(argv + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ValueError: {message}\n"


def test_usage_errors_exit_1_and_help_exits_0(files, capsys):
    assert main(["analyze", files["full2"], "--bogus"]) == 1
    assert main(["verify", files["full2"], "--depth", "x"]) == 1
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert main(["psi", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--depth" in out and "--max-cyc" not in out


INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
COMMANDS = {
    "analyze": [("full2",), ("golden",)],
    "compare": [("full2", "golden"), ("golden", "golden")],
    "verify": [
        ("full2", "full2", "recoder2", "recoder2"),
        ("full2", "golden", "golden-map", "golden-inverse"),
        ("full2", "full2", "recoder2", "golden-inverse"),
    ],
    "psi": [("full2", "golden", "golden-map", "psi-f2")],
}
FLAGS = {
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--depth": st.integers(-1, 26),
    "--max-pre": st.integers(-1, 4),
    "--max-cyc": st.integers(-1, 5),
}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cli_exit_codes_and_no_traceback(data):
    # every subcommand, with each flag in or out of range and given to
    # commands that take it or not: an exit code 0-3, never a traceback
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    files = data.draw(st.sampled_from(COMMANDS[command]))
    argv = [command, *(str(INPUTS / f"{name}.json") for name in files)]
    for flag in data.draw(st.lists(st.sampled_from(sorted(FLAGS)), unique=True)):
        argv += [flag, str(data.draw(FLAGS[flag]))]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()

"""The names ``orbiteq`` exports, each bound to the object its home module
defines, and no others, and each with a use."""

import ast
import importlib
import re
import types
from pathlib import Path

import orbiteq
from orbiteq import jsonio

ROOT = Path(__file__).resolve().parents[1]

SURFACE = {
    "config": ["RunConfig"],
    "errors": [
        "ImageInadmissible",
        "InadmissibleWord",
        "InconsistentRoutes",
        "InvalidPartition",
        "NoAlignment",
        "NotIrreducible",
        "NotTotal",
        "NotZeroOne",
        "OrbiteqError",
        "PermutationMatrix",
        "PreconditionFailed",
        "StallingCycle",
        "TooLarge",
    ],
    "functions": [
        "CylinderFunction",
        "combine",
        "compose_shift",
        "constant",
        "evaluate",
        "find_transfer",
        "indicator",
        "pullback",
        "refine",
        "tables_equal",
        "transfer_obstruction",
    ],
    "generators": [
        "prefix_exchange",
        "random_shift_space",
        "random_single_split",
        "split_chain",
    ],
    "invariants": [
        "InvariantReport",
        "ObstructionReport",
        "amalgamation_terminals",
        "bowen_franks",
        "conjugacy_from_amalgamation",
        "decide_one_sided_conjugacy",
        "exact_det",
        "find_isomorphism",
        "invariant_report",
        "obstruction_report",
        "out_split",
        "smith_normal_form",
        "total_amalgamation",
    ],
    "maps": [
        "BlockCode",
        "Transducer",
        "apply_map",
        "block_to_transducer",
        "compile_block_code",
        "compose_block_codes",
        "identity_code",
        "transducer",
        "verify_inverse_pair",
    ],
    "orbit": [
        "OrbitCocyclePair",
        "Verdict",
        "aperiodic_point_with_prefix",
        "check_conjugacy",
        "check_eventual_conjugacy",
        "check_potential_identity",
        "check_strong_coe",
        "classify",
        "cylinder_family",
        "induced_potential",
        "orbit_cocycles",
        "verify_cocycles",
    ],
    "shifts": [
        "Point",
        "ShiftSpace",
        "TransitionMatrix",
        "build_shift_space",
        "canonical_point",
        "count_periodic",
        "enumerate_points",
        "point_with_prefix",
        "shift_point",
    ],
}


def test_each_export_is_its_home_modules_object():
    assert sum(map(len, SURFACE.values())) == 72
    for module, names in SURFACE.items():
        home = importlib.import_module(f"orbiteq.{module}")
        for name in names:
            obj = getattr(orbiteq, name)
            assert obj is getattr(home, name), name
            assert obj.__module__ == home.__name__, name


def test_no_other_public_name_is_exported():
    exported = {
        name
        for name in dir(orbiteq)
        if not name.startswith("_")
        and not isinstance(getattr(orbiteq, name), types.ModuleType)
    }
    assert exported == {name for names in SURFACE.values() for name in names}


def test_every_export_has_a_use():
    # a name that nothing loads in the package, and that no demo, bench
    # script or the README names, is surface that nothing needs
    loaded = set()
    for path in (ROOT / "src/orbiteq").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    texts = [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").rglob("*.py")]
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in texts:
        words.update(re.findall(r"\w+", path.read_text()))
    exported = {name for names in SURFACE.values() for name in names}
    unused = exported.union(jsonio.__all__) - loaded - words
    assert not unused, sorted(unused)

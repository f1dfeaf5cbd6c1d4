"""Command-line interface.

Four subcommands: ``analyze`` (validate a matrix and report its
invariants), ``compare`` (invariant obstructions plus the amalgamation
conjugacy decision for two matrices), ``verify`` (classify a candidate
homeomorphism given with its inverse), and ``psi`` (evaluate the induced
potential of a function under a map).  ``psi`` takes no inverse, so it
does not check that the map is injective; its cocycles are the least
ones only for an injective map.

Every subcommand takes ``--format``; only ``verify`` and ``psi`` take the
search flag ``--depth``.

Exit codes: 0 definite outcome; 1 parse or validation error (including
argument errors, out-of-range flag values and caps hit while loading) or
an internal inconsistency (InconsistentRoutes); 2 undecided: after the
inputs loaded, a cap was hit (TooLarge) or the alignment search found
nothing (NoAlignment); 3 inverse verification failed.  :func:`main` is
the one place that maps exceptions to these codes.
"""

import argparse
import sys

from . import jsonio
from .config import RunConfig
from .errors import InconsistentRoutes, NoAlignment, OrbiteqError, TooLarge
from .functions import pullback, tables_equal
from .invariants import (
    conjugacy_from_amalgamation,
    invariant_report,
    obstruction_report,
)
from .maps import verify_inverse_pair
from .orbit import _search_cocycles, classify, induced_potential
from .shifts import count_periodic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2
EXIT_REFUTED = 3


def _inputs(args):
    """The arguments of the subcommand: its decoded files in order, after
    the ``RunConfig`` of ``verify`` and ``psi`` (ValueError if a flag is
    out of range).  An error in reading a file names the file."""
    def read(decode, path, *spaces):
        try:
            return decode(*spaces, jsonio.load_file(path))
        except (OrbiteqError, OSError, ValueError) as e:
            e.where = f" (in {path})"
            raise
    if args.command == "analyze":
        return (read(jsonio.matrix_from_json, args.matrix),)
    if args.command == "compare":
        return tuple(read(jsonio.matrix_from_json, f) for f in (args.a, args.b))
    cfg = RunConfig(depth=args.depth)
    a = read(jsonio.matrix_from_json, args.a)
    b = read(jsonio.matrix_from_json, args.b)
    h = read(jsonio.map_from_json, args.map, a, b)
    if args.command == "verify":
        return cfg, h, read(jsonio.map_from_json, args.inverse, b, a)
    return cfg, h, read(jsonio.function_from_json, args.function, b)


def _undecided_text(p):
    return f"undecided: {p['note']}\n"


def cmd_analyze(space):
    rep = invariant_report(space)
    payload = {
        "matrix": jsonio.matrix_to_json(space),
        "irreducible": True,
        "permutation": False,
        "wordCounts": {str(m): space.word_count(m) for m in range(1, 5)},
        "periodicCounts": {str(n): count_periodic(space, n) for n in range(1, 7)},
        "invariants": jsonio.invariants_to_json(rep),
    }

    def text(p):
        lines = [
            f"states: {p['matrix']['n']}",
            "irreducible, non-permutation",
            "word counts (depth 1..4): "
            + ", ".join(str(p["wordCounts"][str(m)]) for m in range(1, 5)),
            "periodic point counts (n=1..6): "
            + ", ".join(str(p["periodicCounts"][str(n)]) for n in range(1, 7)),
            f"BF invariant factors: {p['invariants']['bf'] or 'trivial'}",
            f"detSign: {p['invariants']['detSign']}",
            f"K0 factors: {p['invariants']['k0'] or 'trivial'}; "
            f"K1 rank: {p['invariants']['k1Rank']}",
        ]
        return "\n".join(lines) + "\n"

    return payload, text, EXIT_OK


def cmd_compare(a, b):
    rep = obstruction_report(a, b)
    conjugate, pair = False, None
    if not rep.obstructed:
        try:
            pair = conjugacy_from_amalgamation(a, b)
            conjugate = pair is not None
        except TooLarge:  # the obstructions stand; the conjugacy is undecided
            conjugate = None
    payload = {
        "obstruction": jsonio.obstruction_to_json(rep),
        "oneSidedConjugate": conjugate,
        "conjugacy": pair and {
            "map": jsonio.map_to_json(pair[0]),
            "inverse": jsonio.map_to_json(pair[1]),
        },
    }

    def text(p):
        lines = []
        if p["obstruction"]["obstructed"]:
            lines.append(
                "ruled out: continuous orbit equivalence and every rung below"
            )
        else:
            lines.append("no invariant obstruction found")
        if p["oneSidedConjugate"] is None:
            lines.append("one-sided conjugate: undecided")
        else:
            lines.append(f"one-sided conjugate: {str(p['oneSidedConjugate']).lower()}")
        if p["conjugacy"] is not None:
            lines.append("explicit block-code pair attached (json format)")
        return "\n".join(lines) + "\n"

    code = EXIT_OK if rep.obstructed or conjugate is not None else EXIT_UNDECIDED
    return payload, text, code


def cmd_verify(cfg, h, h_inv):
    ok, witness = verify_inverse_pair(h, h_inv)
    if not ok:
        payload = {
            "verdict": "NotInversePair",
            "witness": jsonio._witness_to_json(witness),
        }
        return (
            payload,
            lambda p: f"inverse verification failed at {p['witness']}\n",
            EXIT_REFUTED,
        )
    verdict = classify(h, h_inv, cfg)

    def text(p):
        lines = [f"verdict: {p['verdict']}"]
        if p["K"] is not None:
            lines.append(f"lag K: {p['K']}")
        if p["witness"]:
            lines.append(f"witness: {p['witness']}")
        if p["note"]:
            lines.append(p["note"])
        return "\n".join(lines) + "\n"

    code = EXIT_OK if verdict.kind != "Undecided" else EXIT_UNDECIDED
    return jsonio.verdict_to_json(verdict), text, code


def cmd_psi(cfg, h, f):
    (kl,) = _search_cocycles(cfg, [h])
    g = induced_potential(h, kl, f)
    # every word of g's depth already emits f.depth symbols and that depth
    # passed the word-table cap, so pullback stops within it and cannot raise
    payload = {
        "induced": jsonio.function_to_json(g),
        "matchesComposition": tables_equal(g, pullback(f, h)),
        "cocycles": jsonio.cocycles_to_json(kl),
    }

    def text(p):
        lines = [f"induced potential table ({len(p['induced']['values'])} words)"]
        for k, v in p["induced"]["values"].items():
            lines.append(f"  [{k}] -> {v}")
        lines.append(f"equals composition with the map: {p['matchesComposition']}")
        return "\n".join(lines) + "\n"

    return payload, text, EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="orbiteq",
        description="Exact conjugacy and orbit-equivalence certificates "
        "for one-sided shift spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def search(p):
        common(p)
        p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser("analyze", help="validate a matrix and report invariants")
    p.add_argument("matrix")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="obstructions and conjugacy decision")
    p.add_argument("a")
    p.add_argument("b")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="classify a homeomorphism candidate")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("map")
    p.add_argument("inverse")
    search(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "psi",
        help="induced potential of a function under a map, "
        "assumed injective (its cocycles are least only then)",
    )
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("map")
    p.add_argument("function")
    search(p)
    p.set_defaults(func=cmd_psi)
    return ap


def main(argv=None):
    """Run one subcommand and return its exit code.

    Every exception that reaches the user is mapped here: a usage error,
    or an input that fails to load or validate, is exit 1; a cap hit
    (``TooLarge``) or an alignment search that found nothing
    (``NoAlignment``) after loading is exit 2, printed as undecided; an
    internal inconsistency (``InconsistentRoutes``) is exit 1.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # --help exits 0; argparse exits 2 on a usage error, but 2 means undecided
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        inputs = _inputs(args)
    except (OrbiteqError, OSError, ValueError) as e:
        return _error(e)
    try:
        payload, text, code = args.func(*inputs)
    except (TooLarge, NoAlignment) as e:
        payload = {"verdict": "Undecided", "note": str(e)}
        text, code = _undecided_text, EXIT_UNDECIDED
    except InconsistentRoutes as e:
        return _error(e)
    sys.stdout.write(jsonio.dumps(payload) if args.format == "json" else text(payload))
    return code


def _error(e):
    print(f"error: {type(e).__name__}: {e}{getattr(e, 'where', '')}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Run one ``orbiteq`` command line with the timing wrappers installed.

Usage: python3 bench/launcher.py --trace FILE --case ID -- ARGS...

Behaves like ``python -m orbiteq.cli ARGS...``: the same standard output,
the same exit code, and a traceback when an exception escapes.  It also
writes the spans and counters of the command to FILE, together with the
time ``import orbiteq.cli`` took (``import_s``).
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main():
    argv = sys.argv[1:]
    split = argv.index("--")
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", required=True)
    ap.add_argument("--case", required=True)
    args = ap.parse_args(argv[:split])
    t0 = perf_counter()
    import orbiteq.cli

    import_s = perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.extra["import_s"] = import_s
    tracer.begin_case(args.case)
    try:
        return orbiteq.cli.main(argv[split + 1 :])
    finally:
        tracer.end_case()
        tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())

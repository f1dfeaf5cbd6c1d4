"""Timing wrappers around the public functions of orbiteq, and the reporter
that turns what they record into per-module metrics.

The wrappers live here, in the benchmark's own files; ``src/`` is not
touched.  :func:`install` binds one wrapper per function into every
``orbiteq`` namespace that holds the function, so a call is counted once
however it was imported.

Hot leaf functions are aggregated in memory (calls, total and self time).
Every other wrapped call is kept as a span ``(id, name, case, start, end,
parent, leaf_s)``, where ``leaf_s`` is the time its direct hot-leaf
children took; the reporter derives self time from the spans.  Spans and
counters are written out once, when the traced pass ends.
"""

import json
import sys
from time import perf_counter

# (module, attribute) pairs; "Class.method" wraps the method on the class.
TARGETS = {
    "shifts": [
        "ShiftSpace.words",
        "enumerate_points",
        "point_with_prefix",
        "shift_point",
        "canonical_point",
    ],
    "maps": [
        "apply_map",
        "BlockCode.output_prefix",
        "Transducer.output_prefix",
        "verify_inverse_pair",
        "compile_block_code",
        "compose_block_codes",
        "transducer",
    ],
    "functions": ["find_transfer", "pullback", "combine", "refine"],
    "orbit": [
        "classify",
        "orbit_cocycles",
        "cylinder_family",
        "aperiodic_point_with_prefix",
        "check_conjugacy",
        "check_eventual_conjugacy",
        "check_potential_identity",
        "induced_potential",
        "check_strong_coe",
    ],
    "invariants": [
        "obstruction_report",
        "smith_normal_form",
        "exact_det",
        "decide_one_sided_conjugacy",
        "amalgamation_terminals",
        "conjugacy_from_amalgamation",
    ],
    "jsonio": [
        "load_file",
        "matrix_from_json",
        "map_from_json",
        "function_from_json",
        "verdict_to_json",
        "dumps",
    ],
    "cli": ["main"],
}
MODULES = tuple(TARGETS)
HOT = {
    "shifts.shift_point",
    "shifts.canonical_point",
    "shifts.ShiftSpace.words",
    "maps.apply_map",
    "maps.BlockCode.output_prefix",
    "maps.Transducer.output_prefix",
}
FOUND = ("functions.find_transfer", "orbit.check_strong_coe")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.active = False
        self.case = None
        self.stack = []  # frames: [module, span id or None, leaf_s, child_s]
        self.spans = []
        self.leaves = {name: [0, 0.0, 0.0] for name in HOT}  # calls, total, self
        self.raised = dict.fromkeys(MODULES, 0)
        self.found = {name: [0, 0] for name in FOUND}  # calls, found
        self.enum_calls = 0
        self.enum_repeats = 0
        self._enum_seen = set()
        self.extra = {}

    def begin_case(self, case_id):
        self.case = case_id
        self._enum_seen = set()
        self.active = True

    def end_case(self):
        self.active = False
        self.case = None

    def wrap(self, name, module, fn):
        tracer = self
        stack = self.stack
        if name in HOT:
            counter = self.leaves[name]

            def leaf(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                frame = [module, None, 0.0, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    tracer._note_raise(module)
                    raise
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    counter[0] += 1
                    counter[1] += dur
                    counter[2] += dur - frame[3]
                    if stack:
                        stack[-1][2] += dur
                        stack[-1][3] += dur

            return _named(leaf, fn)

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "shifts.enumerate_points":
                tracer._note_enumeration(args, kwargs)
            sid = len(tracer.spans)
            parent = stack[-1][1] if stack else None
            tracer.spans.append(None)
            frame = [module, sid, 0.0, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                tracer._note_raise(module)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += t1 - t0
                tracer.spans[sid] = (sid, name, tracer.case, t0, t1, parent, frame[2])
                if name in tracer.found:
                    tracer.found[name][0] += 1
                    tracer.found[name][1] += result is not None

        return _named(span, fn)

    def _note_raise(self, module):
        # an exception leaves the module unless the caller is in it too
        if len(self.stack) < 2 or self.stack[-2][0] != module:
            self.raised[module] += 1

    def _note_enumeration(self, args, kwargs):
        key = tuple(args[:3]) + tuple(sorted(kwargs.items()))
        self.enum_calls += 1
        if key in self._enum_seen:
            self.enum_repeats += 1
        self._enum_seen.add(key)

    def dump(self, path):
        data = {
            "spans": [s for s in self.spans if s is not None],
            "leaves": self.leaves,
            "raised": self.raised,
            "found": self.found,
            "enumerate_points": [self.enum_calls, self.enum_repeats],
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _named(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Wrap every target function; returns a callable that undoes it."""
    import orbiteq.cli  # noqa: F401  (loads every orbiteq module)

    namespaces = [
        m for key, m in sys.modules.items() if key == "orbiteq" or key.startswith("orbiteq.")
    ]
    undo = []
    for module, attrs in TARGETS.items():
        owner = sys.modules[f"orbiteq.{module}"]
        for attr in attrs:
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, module, fn))
                undo.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(name, module, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
                        undo.append((ns, key, fn))

    def uninstall():
        for target, key, fn in reversed(undo):
            setattr(target, key, fn)

    return uninstall


# ---------------------------------------------------------------------------
# reporter


def function_names():
    return [f"{m}.{a}" for m, attrs in TARGETS.items() for a in attrs]


def report(dumps):
    """Per-function and per-module metrics from the dumps of one traced pass.

    ``dumps`` are the loaded files of every process that took part in the
    pass (one for in-process workloads, one per child for ``cli``).
    """
    calls = dict.fromkeys(function_names(), 0)
    self_s = dict.fromkeys(function_names(), 0.0)
    raised = dict.fromkeys(MODULES, 0)
    found = {name: [0, 0] for name in FOUND}
    enum = [0, 0]
    import_s = []
    for data in dumps:
        spans = data["spans"]
        covered = {}
        for sid, name, case, t0, t1, parent, leaf_s in spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        for sid, name, case, t0, t1, parent, leaf_s in spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - covered.get(sid, 0.0) - leaf_s
        for name, (n, _total, own) in data["leaves"].items():
            calls[name] += n
            self_s[name] += own
        for module, n in data["raised"].items():
            raised[module] += n
        for name, (n, hit) in data["found"].items():
            found[name][0] += n
            found[name][1] += hit
        enum[0] += data["enumerate_points"][0]
        enum[1] += data["enumerate_points"][1]
        if "import_s" in data["extra"]:
            import_s.append(data["extra"]["import_s"])
    metrics = {}
    for name in function_names():
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for module in MODULES:
        total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = (total, "s")
        metrics[f"{module}.raised"] = (raised[module], "count")
    metrics["shifts.enumerate_points.repeat_ratio"] = (_ratio(enum[1], enum[0]), "ratio")
    for name, (n, hit) in found.items():
        metrics[f"{name}.found_ratio"] = (_ratio(hit, n), "ratio")
    import_s.sort()
    metrics["cli.import_s"] = (import_s[len(import_s) // 2] if import_s else 0.0, "s")
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    return list(report([]).items())

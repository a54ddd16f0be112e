"""Per-layer tracing for the benchmark, done from outside the library.

``install`` wraps every public function of each layer module of gtrel and
patches the wrapper into every ``gtrel`` namespace that holds the function,
so a call made through ``action.enumerate_basis_box`` or
``localization.act`` is seen as well as one made through ``gtrel.act``.
Layer modules are reached with ``importlib.import_module``: in the package
namespace ``gtrel.tableau`` is the ``tableau()`` function, not the module.
``BasisChecker.check`` is counted (not timed) on the class: it runs millions
of times per pass, and its time stays with the caller's span.

A span's self time is its duration minus the time of the spans it caused.
Time spent in the tracer's own hooks is charged to no layer.
"""

import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "core",
    "relations",
    "tableau",
    "action",
    "localization",
    "classify",
    "minimal_orbit",
    "cli",
)

# named groups of functions: (metric, [(layer, function), ...])
SELF_GROUPS = {
    "tableau.enum.self_s": [("tableau", "enumerate_basis_box"), ("tableau", "enumerate_weight_space")],
    "tableau.shift.self_s": [("tableau", "apply_shift"), ("tableau", "unit_shift"), ("tableau", "shift_add")],
    "tableau.ctor.self_s": [
        ("tableau", "hw_tableau_case_a"),
        ("tableau", "hw_tableau_case_b"),
        ("tableau", "family_tableau"),
        ("tableau", "lem_key_tableau"),
    ],
    "action.act.self_s": [("action", "act")],
    "action.verify.self_s": [("action", "verify_axioms"), ("action", "axiom_identities"), ("action", "commutator")],
    "action.sweep.self_s": [("action", "weight_multiplicity_sweep")],
    "action.is_simple.self_s": [("action", "is_simple")],
    "action.hw_vector.self_s": [("action", "is_highest_weight_vector")],
    "action.json.self_s": [
        ("action", "module_to_json"),
        ("action", "module_from_json"),
        ("action", "vector_to_json"),
        ("action", "vector_from_json"),
    ],
    "relations.reduce.self_s": [("relations", "reduce_relations")],
    "relations.admissible.self_s": [("relations", "is_admissible")],
    "relations.satisfied.self_s": [("relations", "satisfied_relations"), ("relations", "satisfies")],
    "relations.realization.self_s": [("relations", "is_realization"), ("relations", "is_noncritical_for")],
    "core.rational_io.self_s": [("core", "parse_rational"), ("core", "format_rational")],
    "classify.hw_case.self_s": [("classify", "hw_relation_case")],
    "minimal_orbit.hw_module_of.self_s": [("minimal_orbit", "hw_module_of")],
    "minimal_orbit.reps.self_s": [("minimal_orbit", "minimal_orbit_reps"), ("minimal_orbit", "hw_orbit_list")],
    "cli.parser.self_s": [("cli", "build_parser")],
}
CALL_GROUPS = {
    "tableau.enum.calls": [("tableau", "enumerate_basis_box")],
    "action.act.calls": [("action", "act")],
    "relations.reduce.calls": [("relations", "reduce_relations")],
    "relations.relation_kind.calls": [("relations", "relation_kind")],
    "core.diff_in.calls": [("core", "diff_in")],
    "classify.hw_case.calls": [("classify", "hw_relation_case")],
    "cli.main.calls": [("cli", "main")],
}
# counters kept by the hooks below, reported as they are
COUNTERS = (
    "tableau.enum.candidates",
    "tableau.enum.accepted",
    "tableau.check.calls",
    "action.act.terms_out",
    "action.act.calls_raise",
    "action.act.calls_lower",
    "action.act.calls_em1",
    "action.act.calls_commutator",
    "action.act.calls_h",
    "cli.json_bytes",
)
# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "tableau.enum.accept_ratio": ("tableau.enum.accepted", "tableau.enum.candidates"),
    "tableau.check.reject_ratio": ("tableau.check.rejects", "tableau.check.calls"),
    "action.act.repeat_share": ("action.act.repeats", "action.act.calls"),
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".share"] = "ratio"
        units[layer + ".calls"] = "count"
        units[layer + ".errors"] = "count"
    for name in SELF_GROUPS:
        units[name] = "s"
    for name in CALL_GROUPS:
        units[name] = "count"
    for name in COUNTERS:
        units[name] = "bytes" if name == "cli.json_bytes" else "count"
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.active = True
        self._stack = []
        self._modules_by_id = {}
        self._modules_by_value = {}
        self.reset()

    def reset(self):
        """Start a new traced unit (the set-up, or one pass)."""
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self._seen_act = set()
        self._last_exc = None

    def snapshot(self):
        return {
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
        }

    @contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _module_id(self, M):
        """A small integer per module value.  The module object is kept, so
        its id cannot be reused by another object while tracing."""
        hit = self._modules_by_id.get(id(M))
        if hit is None:
            by_value = self._modules_by_value
            value = (M.n, M.seed, M.C, M.sigma, M.normalization)
            hit = (M, by_value.setdefault(value, len(by_value)))
            self._modules_by_id[id(M)] = hit
        return hit[1]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _after_act(tr, args, kwargs, out):
    M, gen, v = (_arg(args, kwargs, i, k) for i, k in enumerate(("M", "g", "v")))
    counts = tr.counts
    if gen[0] == "H":
        counts["action.act.calls_h"] += 1
    else:
        a, b = M.sigma[gen[1] - 1], M.sigma[gen[2] - 1]
        if b == a + 1:
            counts["action.act.calls_raise"] += 1
        elif a == b + 1:
            counts["action.act.calls_lower"] += 1
        elif b == 1 and a >= 3:
            counts["action.act.calls_em1"] += 1
        else:
            counts["action.act.calls_commutator"] += 1
    key = (tr._module_id(M), gen, frozenset(v.items()))
    if key in tr._seen_act:
        counts["action.act.repeats"] += 1
    else:
        tr._seen_act.add(key)
    counts["action.act.terms_out"] += len(out)


def _after_enumerate(tr, args, kwargs, out):
    C = _arg(args, kwargs, 0, "C")
    box = _arg(args, kwargs, 2, "box")
    tr.counts["tableau.enum.candidates"] += (2 * box + 1) ** (C.n * (C.n + 1) // 2)
    tr.counts["tableau.enum.accepted"] += len(out)


AFTER = {("action", "act"): _after_act, ("tableau", "enumerate_basis_box"): _after_enumerate}


def _close(tr, key, t0, t1, frame):
    tr._stack.pop()
    tr.self_s[key] += t1 - t0 - frame[0]
    if tr._stack:
        tr._stack[-1][0] += perf_counter() - t0


def _wrap(tr, fn, layer, name):
    key = (layer, name)
    after = AFTER.get(key)

    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        tr.calls[key] += 1
        frame = [0.0]
        tr._stack.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            _close(tr, key, t0, perf_counter(), frame)
            if exc is not tr._last_exc:
                tr._last_exc = exc
                tr.errors[layer] += 1
            raise
        t1 = perf_counter()
        if after is not None:
            after(tr, args, kwargs, out)
        _close(tr, key, t0, t1, frame)
        return out

    return wrapper


def _wrap_generator(tr, fn, layer, name):
    """A span per step of the generator, so its lazy work is timed."""
    key = (layer, name)

    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        if tr.active:
            tr.calls[key] += 1
        while True:
            if not tr.active:
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item
                continue
            frame = [0.0]
            tr._stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                _close(tr, key, t0, perf_counter(), frame)
                return
            except BaseException as exc:
                _close(tr, key, t0, perf_counter(), frame)
                if exc is not tr._last_exc:
                    tr._last_exc = exc
                    tr.errors[layer] += 1
                raise
            _close(tr, key, t0, perf_counter(), frame)
            yield item

    return wrapper


def _public_functions(mod):
    return [
        (name, obj)
        for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
    ]


def install(tr):
    """Wrap every layer; return (restore, absent).

    ``absent`` lists the grouped functions that no longer exist, whose
    metrics therefore read 0.  A layer that cannot be imported or exposes no
    public function raises, so no layer can drop out of the report unseen.
    """
    wrappers = {}
    known = set()
    for layer in LAYERS:
        mod = importlib.import_module("gtrel." + layer)
        fns = _public_functions(mod)
        if not fns:
            raise RuntimeError("layer gtrel.%s exposes no public function" % layer)
        for name, fn in fns:
            make = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
            wrappers[id(fn)] = (fn, make(tr, fn, layer, name))
            known.add((layer, name))

    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "gtrel" and not modname.startswith("gtrel."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, val))

    checker = importlib.import_module("gtrel.tableau").BasisChecker
    check = checker.check

    def counted_check(self, z):
        ok = check(self, z)
        if tr.active:
            tr.counts["tableau.check.calls"] += 1
            if not ok:
                tr.counts["tableau.check.rejects"] += 1
        return ok

    checker.check = counted_check

    def restore():
        for mod, attr, val in patched:
            setattr(mod, attr, val)
        checker.check = check

    grouped = {f for group in (SELF_GROUPS, CALL_GROUPS) for fns in group.values() for f in fns}
    absent = sorted("%s.%s" % f for f in grouped - known)
    return restore, absent


def _median_by_key(dicts):
    keys = set().union(*dicts)
    return {k: statistics.median([d.get(k, 0.0) for d in dicts]) for k in keys}


def per_layer_metrics(setup, passes, overhead):
    """Per-layer metrics of one set-up plus one pass.

    Times are the set-up's plus the median over the traced passes; counts
    are the set-up's plus the first pass's (every pass repeats the same
    inputs, so its counts are the same).
    """
    self_s = Counter(setup["self"])
    self_s.update(_median_by_key([p["self"] for p in passes]))
    calls = Counter(setup["calls"])
    calls.update(passes[0]["calls"])
    errors = Counter(setup["errors"])
    errors.update(passes[0]["errors"])
    counts = Counter(setup["counts"])
    counts.update(passes[0]["counts"])
    counts["action.act.calls"] = calls[("action", "act")]

    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = Counter()
    for (layer, _), s in self_s.items():
        layer_self[layer] += s
    for (layer, _), c in calls.items():
        layer_calls[layer] += c
    total = sum(layer_self.values())

    values = {}
    for layer in LAYERS:
        values[layer + ".self_s"] = layer_self[layer]
        values[layer + ".share"] = layer_self[layer] / total if total else 0.0
        values[layer + ".calls"] = layer_calls[layer]
        values[layer + ".errors"] = errors[layer]
    for name, fns in SELF_GROUPS.items():
        values[name] = sum(self_s.get(f, 0.0) for f in fns)
    for name, fns in CALL_GROUPS.items():
        values[name] = sum(calls.get(f, 0) for f in fns)
    for name in COUNTERS:
        values[name] = counts[name]
    for name, (num, den) in RATIOS.items():
        values[name] = counts[num] / counts[den] if counts[den] else 0.0
    values["trace.overhead"] = overhead
    units = metric_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install` wraps the public functions of every hhglab module (and
the entries of the axiom dispatch table) with timing wrappers.  A function
imported by value into another module is patched there too, by identity.
Coarse calls record a span each: name, start, end, parent span and job id.
Hot word operations (multiply, normal_form, check_word, dist, pi, ...)
only add to a call count and a time total, because a span per call would
cost more than the call.

Self time is a call's duration minus the time of the wrapped calls it
made.  Time inside top-level wrapped calls is "covered"; the rest of a
job's wall time is unaccounted.
"""

import importlib
import json
import math
import time
from collections import Counter

MODULES = ("groups", "balls", "spaces", "structures", "builders", "axioms",
           "coords", "classify", "certify", "cli")

# (module, function, records spans); the metric prefix is module.function
FUNCTIONS = (
    ("balls", "cayley_ball_layers", True),
    ("balls", "growth_function", True),
    ("balls", "generates_at_radius", True),
    ("spaces", "max_four_point_defect", True),
    ("spaces", "translation_length", False),
    ("builders", "load_structure", True),
    ("axioms", "check_structure", True),
    ("axioms", "structural_validators", True),
    ("coords", "realize", True),
    ("coords", "is_consistent", True),
    ("coords", "project_tuple", True),
    ("coords", "fit_distance_formula", True),
    ("coords", "distance_formula_sum", False),
    ("coords", "product_decomposition", True),
    ("coords", "quasi_line_detect", True),
    ("classify", "big_set", True),
    ("classify", "big_set_member", False),
    ("classify", "tau0_floor_check", True),
    ("certify", "certify", True),
    ("certify", "dichotomy", True),
    ("certify", "collect_big_domains", True),
    ("certify", "pingpong_transverse", True),
    ("certify", "nested_to_transverse", True),
    ("certify", "top_level_certify", True),
    ("certify", "case2_branch", True),
    ("certify", "semigroup_growth_check", True),
    ("certify", "preserves_endpoint_pair", False),
    ("certify", "scan_generating_sets", True),
    ("certify", "verify_free_subgroup", True),
    ("certify", "verify_free_semigroup", True),
    ("cli", "main", True),
    ("cli", "render_json", True),
)

# (module, base class, method): wrapped on the base class and on every
# subclass that defines the method itself, under the prefix module.method;
# never spans.
METHODS = (
    ("groups", "GroupModel", "multiply"),
    ("groups", "GroupModel", "normal_form"),
    ("groups", "GroupModel", "check_word"),
    ("spaces", "Space", "dist"),
    ("structures", "HHStructure", "pi"),
    ("structures", "HHStructure", "dsub"),
    ("structures", "HHStructure", "word_metric"),
    ("structures", "HHStructure", "rho_point"),
)

AXIOMS = range(1, 10)

# Every per-layer metric, in report order.  `.calls` and `.s` read the
# wrapper of the same prefix; other names are counters.
LAYER_METRICS = (
    ("groups.multiply.calls", "count"),
    ("groups.normal_form.calls", "count"),
    ("groups.check_word.calls", "count"),
    ("groups.letters_normalised", "count"),
    ("groups.multiply.s", "s"),
    ("groups.normal_form.s", "s"),
    ("balls.cayley_ball_layers.calls", "count"),
    ("balls.cayley_ball_layers.s", "s"),
    ("balls.elements_built", "count"),
    ("balls.us_per_element", "us"),
    ("balls.repeat_builds", "count"),
    ("balls.growth_function.s", "s"),
    ("balls.generates_at_radius.calls", "count"),
    ("balls.generates_at_radius.accepted", "count"),
    ("balls.enumerate_generating_sets.s", "s"),
    ("spaces.dist.calls", "count"),
    ("spaces.max_four_point_defect.calls", "count"),
    ("spaces.max_four_point_defect.s", "s"),
    ("spaces.quads", "count"),
    ("spaces.translation_length.calls", "count"),
    ("structures.pi.calls", "count"),
    ("structures.pi.s", "s"),
    ("structures.repeat_pi", "count"),
    ("structures.dsub.calls", "count"),
    ("structures.word_metric.calls", "count"),
    ("structures.rho_point.calls", "count"),
    ("builders.load_structure.calls", "count"),
    ("builders.load_structure.s", "s"),
    ("axioms.check_structure.s", "s"),
    ("axioms.structural_validators.s", "s"),
    *((f"axioms.a{i}.s", "s") for i in AXIOMS),
    *((f"axioms.a{i}.checks", "count") for i in AXIOMS),
    ("coords.realize.calls", "count"),
    ("coords.realize.s", "s"),
    ("coords.realize.scored", "count"),
    ("coords.is_consistent.s", "s"),
    ("coords.project_tuple.s", "s"),
    ("coords.fit_distance_formula.s", "s"),
    ("coords.distance_formula_sum.calls", "count"),
    ("coords.product_decomposition.s", "s"),
    ("coords.quasi_line_detect.s", "s"),
    ("classify.big_set.calls", "count"),
    ("classify.big_set.s", "s"),
    ("classify.big_set_member.calls", "count"),
    ("classify.big_set_member.s", "s"),
    ("classify.tau0_floor_check.s", "s"),
    ("certify.certify.s", "s"),
    ("certify.dichotomy.s", "s"),
    ("certify.collect_big_domains.s", "s"),
    ("certify.pingpong_transverse.s", "s"),
    ("certify.nested_to_transverse.s", "s"),
    ("certify.top_level_certify.s", "s"),
    ("certify.case2_branch.s", "s"),
    ("certify.semigroup_growth_check.s", "s"),
    ("certify.preserves_endpoint_pair.calls", "count"),
    ("certify.scan_generating_sets.s", "s"),
    *((f"certify.verify_free_{kind}.{field}", unit)
      for kind in ("subgroup", "semigroup")
      for field, unit in (("calls", "count"), ("accepted", "count"),
                          ("words", "count"), ("s", "s"))),
    ("cli.main.s", "s"),
    ("cli.render_json.s", "s"),
    ("cli.report_bytes", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
)


class Tracer:
    """Span and counter store, plus the wrappers that feed it."""

    def __init__(self):
        self.job = None
        self.spans = []          # [name, start, end, parent index, job id]
        self.stats = {}          # prefix -> [calls, inclusive s, self s]
        self.counts = Counter()
        self.covered = 0.0
        self._child = []         # child-time accumulator per open call
        self._open_spans = []
        self._seen_pi = set()
        self._seen_balls = set()
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, prefix, fn, span, hook=None):
        """Timing wrapper; `hook(args, kwargs, result)` runs inside the
        timed region, so its cost is charged to this layer."""
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        child = self._child
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append([prefix, 0.0, 0.0,
                              open_spans[-1] if open_spans else None,
                              tracer.job])
                open_spans.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                end = clock()
                elapsed = end - start
                inner = child.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if child:
                    child[-1] += elapsed
                else:
                    tracer.covered += elapsed
                if span:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, prefix, fn):
        """Each resumption of the generator is one span, so the time the
        consumer spends between items is not charged to the generator."""
        step = self.wrap(prefix, next, True)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _on_ball(self, args, kwargs, layers):
        model, gens, radius = args[:3]
        built = sum(len(layer) for layer in layers)
        self.counts["balls.elements_built"] += built
        key = (json.dumps(model.to_json(), sort_keys=True),
               tuple(tuple(g) for g in gens), radius)
        if key in self._seen_balls:
            self.counts["balls.repeat_builds"] += 1
        self._seen_balls.add(key)
        parent = self._open_spans[-2] if len(self._open_spans) > 1 else None
        if parent is not None and self.spans[parent][0] == "coords.realize":
            self.counts["coords.realize.scored"] += built

    def _on_pi(self, args, kwargs, result):
        structure, u, g = args[:3]
        key = (structure.label, u, tuple(g))
        if key in self._seen_pi:
            self.counts["structures.repeat_pi"] += 1
        else:
            self._seen_pi.add(key)

    def _on_normal_form(self, args, kwargs, result):
        self.counts["groups.letters_normalised"] += len(args[1])

    def _accepted(self, prefix):
        def hook(args, kwargs, result):
            if result:
                self.counts[prefix + ".accepted"] += 1
        return hook

    def _oracle(self, prefix, words):
        """Counts an oracle's accepted calls and the words it enumerates,
        `words(depth)`."""
        accepted = self._accepted(prefix)

        def hook(args, kwargs, result):
            depth = args[3] if len(args) > 3 else kwargs["depth"]
            self.counts[prefix + ".words"] += words(depth)
            accepted(args, kwargs, result)
        return hook

    def _on_quads(self, args, kwargs, result):
        points = args[1]
        budget = args[2] if len(args) > 2 else kwargs.get("quad_budget", 60000)
        self.counts["spaces.quads"] += min(math.comb(len(points), 4), budget)

    def _hooks(self):
        return {
            "balls.cayley_ball_layers": self._on_ball,
            "balls.generates_at_radius":
                self._accepted("balls.generates_at_radius"),
            "spaces.max_four_point_defect": self._on_quads,
            "structures.pi": self._on_pi,
            "groups.normal_form": self._on_normal_form,
            "certify.verify_free_subgroup":
                self._oracle("certify.verify_free_subgroup",
                             lambda d: 2 * (3 ** d - 1)),
            "certify.verify_free_semigroup":
                self._oracle("certify.verify_free_semigroup",
                             lambda d: 2 ** (d + 1) - 2),
        }

    # -- installation -----------------------------------------------------

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        mods = {m: importlib.import_module(f"hhglab.{m}") for m in MODULES}
        hooks = self._hooks()
        patches = [(m, f, self.wrap(f"{m}.{f}", getattr(mods[m], f), span,
                                    hooks.get(f"{m}.{f}")))
                   for m, f, span in FUNCTIONS]
        gen = mods["balls"].enumerate_generating_sets
        patches.append(("balls", "enumerate_generating_sets",
                        self.wrap_generator("balls.enumerate_generating_sets",
                                            gen)))
        for home, name, wrapper in patches:
            original = getattr(mods[home], name)
            for mod in mods.values():
                if getattr(mod, name, None) is original:
                    self._set(mod, name, wrapper)
        for home, base, method in METHODS:
            prefix = f"{home}.{method}"
            for cls in _subclasses(getattr(mods[home], base)):
                if method in cls.__dict__:
                    self._set(cls, method,
                              self.wrap(prefix, cls.__dict__[method], False,
                                        hooks.get(prefix)))
        checkers = mods["axioms"]._CHECKERS
        for i in AXIOMS:
            self._restore.append((checkers, i, checkers[i]))
            checkers[i] = self.wrap(f"axioms.a{i}", checkers[i], True)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, traced_wall, untraced_wall):
        """Every metric of LAYER_METRICS, as {name: {"value", "unit"}}."""
        out = {}
        for name, unit in LAYER_METRICS:
            prefix, _, field = name.rpartition(".")
            stat = self.stats.get(prefix)
            if field == "calls" and stat is not None:
                value = stat[0]
            elif field == "s" and stat is not None:
                value = stat[2]
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        built = self.counts["balls.elements_built"]
        ball_s = self.stats.get("balls.cayley_ball_layers", (0, 0.0))[1]
        out["balls.us_per_element"]["value"] = (1e6 * ball_s / built
                                                if built else 0.0)
        out["trace.overhead_frac"]["value"] = (traced_wall / untraced_wall - 1
                                               if untraced_wall else 0.0)
        out["trace.unaccounted_frac"]["value"] = (
            1 - self.covered / traced_wall if traced_wall else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out

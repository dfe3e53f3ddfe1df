"""Span tracer that wraps stepldp's public functions from outside the package.

``Tracer.installed()`` replaces every public function of the package's
modules, in every module namespace that binds it (``cli`` imports names from
``rates``, ``ldplab`` from ``cutmetric`` and so on, and the package root
re-exports them all), with a wrapper that records one span per call: name,
start, end, parent span and op id.  A few class methods get the same
treatment.  Counter hooks read arguments and results at the same boundary.
Spans live in memory and are written as JSON lines when the run ends; the
originals are put back when the context exits, even on error.

The library itself is never edited: the wrappers are the only
instrumentation.
"""

import contextlib
import functools
import importlib
import json
import math
import time
import types

LAYERS = ("cli", "ldplab", "samplers", "graphon", "cutmetric", "coloured", "rates")

# (layer, class name, method name) wrapped in addition to the module-level
# public functions.  Constructors carry the class name as their span name.
METHODS = (
    ("graphon", "LabeledGraph", "__init__"),
    ("graphon", "OverlapCoupling", "__init__"),
    ("cutmetric", "SignedStepFn", "__init__"),
    ("ldplab", "EventSpec", "check_graph"),
)


def _span_name(layer, qualname):
    if qualname.endswith(".__init__"):
        qualname = qualname[: -len(".__init__")]
    return "%s.%s" % (layer, qualname)


# ---------------------------------------------------------------------------
# counter hooks: (tracer, args, kwargs, result) -> None


def _pairs(n):
    return n * (n - 1) // 2


def _count_sample_block(tr, args, kwargs, result):
    tr.count("samplers.sample_block.pairs", _pairs(result.n))


def _count_coupled(tr, args, kwargs, result):
    tr.count("samplers.coupled_block_sample.pairs",
             _pairs(result.graph_a.n) + _pairs(result.graph_b.n))


def _count_graph(tr, args, kwargs, result):
    tr.count("graphon.LabeledGraph.edges", len(args[0].edges))


def _count_search(prefix):
    def hook(tr, args, kwargs, result):
        restarts = kwargs.get("restarts", args[2] if len(args) > 2 else 64)  # library default
        tr.count(prefix + ".restarts_used", result.restarts_used)
        tr.count(prefix + ".restarts", restarts)
    return hook


def _count_cut_norm_exact(tr, args, kwargs, result):
    tr.count("cutmetric.cut_norm_exact.subsets", 1 << args[0].parts.size)


def _count_rate_J(tr, args, kwargs, result):
    tr.count("rates.rate_J.budget_used", result.budget_used)
    tr.count("rates.rate_J.inf", 0 if math.isfinite(result.value) else 1)


def _count_curve(tr, args, kwargs, result):
    for point in result:
        tr.count("ldplab.points." + point["method"], 1)


def _count_mc(tr, args, kwargs, result):
    tr.count("ldplab.mc.samples", result["samples"])
    tr.count("ldplab.mc.hits", result["hits"])


HOOKS = {
    "samplers.sample_block": _count_sample_block,
    "samplers.coupled_block_sample": _count_coupled,
    "graphon.LabeledGraph": _count_graph,
    "cutmetric.cut_distance_search": _count_search("cutmetric.cut_distance_search"),
    "cutmetric.cut_norm_exact": _count_cut_norm_exact,
    "coloured.dk_distance_search": _count_search("coloured.dk_distance_search"),
    "rates.rate_J": _count_rate_J,
    "ldplab.ldp_curve": _count_curve,
    "ldplab.mc_event_logprob": _count_mc,
}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time of every span: its duration minus the union of its children.

    ``spans`` is a sequence of (name, start, end, parent, op) with parent an
    index into the same sequence or -1.  Child intervals are clipped to the
    parent's interval and merged before subtracting, so overlapping or
    out-of-range children never count twice.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[idx]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: importlib.import_module(package.__name__ + "." + layer)
                        for layer in LAYERS}
        self.spans = []  # [name, start, end, parent, op]
        self.counters = {}  # op -> {counter name: value}
        self.op = None
        self.sites = []
        self._stack = []

    def count(self, name, value):
        per_op = self.counters.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + value

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # fold direct recursion (cut_distance_search re-orients by
            # calling itself) into the outer span
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                tracer.count(name + ".calls", 1)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(namespace, attribute, original, span name) for every patch site."""
        names = {}
        for layer, module in self.modules.items():
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType)
                        and not value.__name__.startswith("_")
                        and value.__module__ == module.__name__):
                    names[value] = _span_name(layer, value.__qualname__)
        sites = []
        for namespace in list(self.modules.values()) + [self.package]:
            for attr, value in vars(namespace).items():
                if isinstance(value, types.FunctionType) and value in names:
                    sites.append((namespace, attr, value, names[value]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            original = cls.__dict__[meth]
            sites.append((cls, meth, original, _span_name(layer, original.__qualname__)))
        return sites

    @contextlib.contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore."""
        sites = self.sites = self._targets()
        wrappers = {}
        try:
            for namespace, attr, original, name in sites:
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original)
                setattr(namespace, attr, wrappers[original])
            yield self
        finally:
            for namespace, attr, original, _ in sites:
                setattr(namespace, attr, original)
            self._stack.clear()

    def leftovers(self):
        """Patch sites of the last installation that do not hold the original."""
        return ["%s.%s" % (getattr(ns, "__name__", ns), attr)
                for ns, attr, original, _ in self.sites
                if vars(ns).get(attr) is not original]

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for op, counters in self.counters.items():
                fh.write(json.dumps({"op": op, "counters": counters}, sort_keys=True) + "\n")

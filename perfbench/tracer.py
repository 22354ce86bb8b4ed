"""Span tracer that times calls into jlolab's public layer functions.

Nothing inside the package is changed: while a `Tracer` is installed it
rebinds every module-level name in the `jlolab` modules that refers to a
traced function (so `suites.jlo_cochain`, `jlo.parity_of` and `jlo.expm`
are caught as well as the defining module's own name), replaces traced
methods on their classes, and swaps `suites.IDENTITIES` for a copy whose
trial functions open one span per trial.  `uninstall` restores every
binding.

Spans are kept in memory as `Span` records (name, start, end, parent,
unit of work, extra data) and reduced to per-layer metrics only at the
end.  A span's parent is the innermost open span of its own thread; a
span opened on a worker thread with nothing open there takes the main
thread's innermost open span as parent, so the suite thread pool's
identity spans hang under `cli.main`.  Self time is a span's duration
minus the union of its children's intervals, which also handles children
that overlap because they ran on different threads.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (layer name, module, attribute) for module-level functions; every
# binding of the same object in any jlolab module is rebound.
FUNCTIONS = (
    ("shuffles.enumerate_cyclic_shuffles", "jlolab.shuffles",
     "enumerate_cyclic_shuffles"),
    ("shuffles.enumerate_shuffles", "jlolab.shuffles", "enumerate_shuffles"),
    ("shuffles.cyclic_region_locate", "jlolab.shuffles",
     "cyclic_region_locate"),
    ("chains.shuffle_product", "jlolab.chains", "shuffle_product"),
    ("chains.br_operation", "jlolab.chains", "br_operation"),
    ("chains.hochschild_b", "jlolab.chains", "hochschild_b"),
    ("chains.connes_B", "jlolab.chains", "connes_B"),
    ("chains.probe_distance", "jlolab.chains", "probe_distance"),
    ("jlo.expm", "jlolab.jlo", "expm"),
    ("jlo.index_pairing", "jlolab.jlo", "index_pairing"),
    ("spectral.product_triple", "jlolab.spectral", "product_triple"),
    ("spectral.index_of_pair", "jlolab.spectral", "index_of_pair"),
    ("spectral.kernel_projection", "jlolab.spectral", "kernel_projection"),
    ("linalg.parity_of", "jlolab.linalg", "parity_of"),
    ("linalg.supertrace", "jlolab.linalg", "supertrace"),
    ("cli.main", "jlolab.cli", "main"),
)

# (layer name, module, class, method)
METHODS = (
    ("chains.normalized", "jlolab.chains", "Chain", "normalized"),
    ("jlo.cochain", "jlolab.jlo", "JLOEvaluator", "cochain"),
    ("jlo.term_exact", "jlolab.jlo", "JLOEvaluator", "term_exact"),
    ("jlo.term_mc", "jlolab.jlo", "JLOEvaluator", "term_mc"),
    ("jlo.integrand", "jlolab.jlo", "JLOEvaluator", "integrand"),
    ("spectral.heat", "jlolab.spectral", "SpectralTripleFD", "heat"),
    ("spectral.delta_eigensystem", "jlolab.spectral", "SpectralTripleFD",
     "delta_eigensystem"),
)


def _per_unit_sum(spans, values, units):
    return sum(v for v in values if v is not None) / units


def _max(spans, values, units):
    return max((v for v in values if v is not None), default=0)


def _mean(spans, values, units):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def _keep_ratio(spans, values, units):
    pairs = [v for v in values if v is not None]
    terms_in = sum(a for a, _ in pairs)
    return sum(b for _, b in pairs) / terms_in if terms_in else 1.0


def _parity_skips(spans, values, units):
    """term_exact calls that returned without calling expm or heat."""
    return sum(1 for s in spans if not s.error and not any(
        k.name in ("jlo.expm", "spectral.heat") for k in s.kids)) / units


def _errors_per_unit(spans, values, units):
    return sum(s.error for s in spans) / units


def _nonzero_exits(spans, values, units):
    return sum(1 for s, rc in zip(spans, values)
               if s.error or rc != 0) / units


def _distinct_per_unit(spans, values, units):
    """Distinct heat times per traced unit, keyed by the triple's label and
    size, so a triple rebuilt from the same file counts once."""
    return len({(s.unit, v) for s, v in zip(spans, values)
                if v is not None}) / units


def _heat_key(args, out):
    triple, t = args[0], args[1]
    return (triple.label, triple.hilbert_dim, float(t))


def _num_terms(args, out):
    return out.num_terms


# Extra per-layer metrics beyond `.calls` and `.self_s`:
# layer -> ((suffix, unit, capture, reduce), ...).  capture(args, result),
# when given, runs after a call returns and its value is kept on the span;
# reduce(spans, values, units) turns the layer's finished spans and their
# captured values (None for a call that raised) into the metric.
EXTRAS = {
    "shuffles.enumerate_cyclic_shuffles": (
        ("regions", "count", lambda args, out: len(out), _per_unit_sum),),
    "chains.shuffle_product": (
        ("terms_out", "count", _num_terms, _per_unit_sum),),
    "chains.br_operation": (
        ("terms_out", "count", _num_terms, _per_unit_sum),),
    "chains.normalized": (
        ("keep_ratio", "ratio",
         lambda args, out: (args[0].num_terms, out.num_terms), _keep_ratio),),
    "jlo.term_exact": (
        ("parity_zero_skips", "count", None, _parity_skips),),
    "jlo.expm": (
        ("n3_sum", "n3_computed",
         lambda args, out: float(np.shape(args[0])[0]) ** 3, _per_unit_sum),
        ("max_dim", "dim", lambda args, out: np.shape(args[0])[0], _max)),
    "jlo.term_mc": (
        ("samples", "count", lambda args, out: int(args[2]), _per_unit_sum),),
    "jlo.index_pairing": (
        ("degree_mean", "degree", lambda args, out: out.truncation_degree,
         _mean),
        ("failed", "count", None, _errors_per_unit)),
    "spectral.heat": (
        ("distinct_times", "count", _heat_key, _distinct_per_unit),),
    "cli.main": (
        ("nonzero_exits", "count", lambda args, out: out, _nonzero_exits),),
}

LAYERS = tuple(n for n, *_ in FUNCTIONS) + tuple(n for n, *_ in METHODS)


def identity_names():
    """The identities of `suites.IDENTITIES`, one `.s` metric each."""
    from jlolab import suites
    return tuple(ident for ident, _tol, _fn in suites.IDENTITIES)


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in sorted(LAYERS):
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        for suffix, unit, _capture, _reduce in EXTRAS.get(layer, ()):
            out.append((f"{layer}.{suffix}", unit))
    out += [(f"suites.identity.{n}.s", "s") for n in identity_names()]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def rebind_everywhere(original, replacement):
    """Point every module-level name in `jlolab` and its modules that refers
    to `original` at `replacement`; returns (module, attr, original) for
    each binding changed."""
    patches = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "jlolab"
                               or modname.startswith("jlolab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return patches


def restore(patches):
    """Undo the bindings recorded by `rebind_everywhere`, last first."""
    while patches:
        owner, attr, value = patches.pop()
        setattr(owner, attr, value)


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "extra", "error",
                 "kids")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.unit = unit
        self.extra = None
        self.error = False
        self.kids = []


class Tracer:
    """Installs span-recording wrappers around jlolab's layer functions.

    `unit` numbers the traced unit of work that new spans belong to.
    """

    def __init__(self):
        self.spans = []
        self.unit = 0
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.main_thread()
        self._patches = []

    # ------------------------------------------------------------- spans
    def _stack(self):
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        captures = [c for _s, _u, c, _r in EXTRAS.get(name, ())]
        clock = time.perf_counter
        main_stack = self._main_stack
        spans = self.spans
        get_stack = self._stack

        def traced(*args, **kwargs):
            stack = get_stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = None
            span = Span(name, clock(), parent, self.unit)
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if captures:
                span.extra = [c and c(args, out) for c in captures]
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # ----------------------------------------------------------- install
    def install(self):
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._patches += rebind_everywhere(original,
                                               self._wrap(name, original))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        identities = sys.modules["jlolab.suites"].IDENTITIES
        wrapped = tuple(
            (ident, tol, self._wrap(f"suites.identity.{ident}", fn))
            for ident, tol, fn in identities)
        self._patches += rebind_everywhere(identities, wrapped)
        return self

    def uninstall(self):
        restore(self._patches)

    # ------------------------------------------------------------ reduce
    def metrics(self, units: int) -> dict:
        """Per-layer metrics over the traced units of work; totals are
        divided by the number of units."""
        spans = [s for s in self.spans if s.end is not None]
        by_name = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                s.parent.kids.append(s)
        units = max(1, units)
        out = {}
        for layer in LAYERS:
            mine = by_name[layer]
            out[f"{layer}.calls"] = len(mine) / units
            out[f"{layer}.self_s"] = sum(
                s.end - s.start - _covered(s.start, s.end, s.kids)
                for s in mine) / units
            for i, (suffix, _unit, _capture, reduce) in enumerate(
                    EXTRAS.get(layer, ())):
                values = [s.extra[i] if s.extra else None for s in mine]
                out[f"{layer}.{suffix}"] = reduce(mine, values, units)
        for ident in identity_names():
            out[f"suites.identity.{ident}.s"] = sum(
                s.end - s.start
                for s in by_name[f"suites.identity.{ident}"]) / units
        return out

    def write_spans(self, path):
        """Spans as JSON lines: name, start, end, parent index, error."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index.get(id(s.parent)) if s.parent else None
                fh.write(json.dumps([s.name, s.start, s.end, parent,
                                     s.error]) + "\n")


def _covered(start, end, kids) -> float:
    """Length of the union of the children's intervals inside [start, end]."""
    if not kids:
        return 0.0
    if len(kids) == 1:
        k = kids[0]
        return max(0.0, min(end, k.end) - max(start, k.start))
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(start, k.start), min(end, k.end))
                         for k in kids):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

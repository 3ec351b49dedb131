"""Outside-in tracing of the library's layers for the benchmark's traced run.

The tracer replaces library functions with wrappers from this file; nothing
inside ``src/`` knows about it.  Three kinds of wrapper:

* spans -- pipeline entry points, stages, transforms, substitution engines,
  ``Series3`` arithmetic and the linear solver.  Each call records
  ``[label, parent index, start, end]``; self time is a span's duration minus
  the durations of its direct children.
* counters -- ``HoloSeries`` and ``UPoly`` multiplication (calls only).
* scalar counters -- ``GaussianRational`` multiplication, addition (including
  subtraction) and division.  These run hundreds of thousands of times per
  surface, so they keep a call count and one aggregate busy timer, no spans.

A function may be bound under several names: ``normalize.py`` imports the
substitution engines by name, the package re-exports the pipeline, and
``__rmul__``/``__radd__`` are class aliases of ``__mul__``/``__add__``.  Every
binding that holds the same object gets the same wrapper, so all call paths
count.  A target whose name no longer exists is skipped, and the metrics
derived from it are left out of the report.
"""

import functools
import sys

from time import perf_counter

STAGES = (
    "adapt_chart",
    "punctual_normalize",
    "straighten_curve",
    "kill_harmonics",
    "normalize_levi",
    "absorb_k1",
    "kill_f22_rotation",
    "kill_f33_reparam",
)

# (module, attribute path, label); labels are "<layer>.<name>"
SPAN_TARGETS = (
    [
        ("moser_chains.normalize", "normalize_hypersurface", "normalize.normalize_hypersurface"),
        ("moser_chains.normalize", "find_chain_curve", "normalize.find_chain_curve"),
        ("moser_chains.normalize", "graph_transform", "normalize.graph_transform"),
        ("moser_chains.normalize", "fundamental_identity_residual", "normalize.fundamental_identity_residual"),
    ]
    + [("moser_chains.normalize", fn, "normalize.stage." + fn) for fn in STAGES]
    + [
        ("moser_chains.series_core", fn, "series_core." + fn)
        for fn in ("eval_graph", "eval_holo3", "eval_holo2", "eval_curve")
    ]
    + [
        ("moser_chains.series_core", "Series3.__mul__", "series_core.Series3.mul"),
        ("moser_chains.series_core", "Series3.__add__", "series_core.Series3.add"),
        ("moser_chains.linalg", "solve", "linalg.solve"),
    ]
)

COUNTER_TARGETS = (
    ("moser_chains.series_core", "HoloSeries.__mul__", "series_core.HoloSeries.mul"),
    ("moser_chains.series_core", "UPoly.__mul__", "series_core.UPoly.mul"),
)

SCALAR = "series_core.GaussianRational"
SCALAR_TARGETS = (
    ("moser_chains.series_core", "GaussianRational.__mul__", "mul"),
    ("moser_chains.series_core", "GaussianRational.__add__", "add"),
    ("moser_chains.series_core", "GaussianRational.__sub__", "add"),
    ("moser_chains.series_core", "GaussianRational.__truediv__", "div"),
)


def _resolve(modname, path):
    """(owner, function) or None when the name is gone."""
    owner = sys.modules.get(modname)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(name)
    else:
        fn = getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, fn


class Tracer:
    """Installs the wrappers, collects spans and counts, and restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.scalar = {"mul": [0, 0.0], "add": [0, 0.0], "div": [0, 0.0]}
        self.present = set()
        self._patched = []

    # -- installation -----------------------------------------------------------

    def install(self):
        for modname, path, label in SPAN_TARGETS:
            self._wrap(modname, path, label, self._span_wrapper)
        for modname, path, label in COUNTER_TARGETS:
            self._wrap(modname, path, label, self._count_wrapper)
        for modname, path, kind in SCALAR_TARGETS:
            self._wrap(modname, path, SCALAR + "." + kind, self._scalar_wrapper(kind))

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched = []

    def _wrap(self, modname, path, label, make):
        found = _resolve(modname, path)
        if found is None:
            return
        owner, fn = found
        wrapped = functools.wraps(fn)(make(label, fn))
        # every binding of the same object: class aliases, or by-name imports
        # in the package's other modules
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [
                m for name, m in sys.modules.items()
                if m is not None and (name == "moser_chains" or name.startswith("moser_chains."))
            ]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is fn:
                    self._patched.append((holder, name, fn))
                    setattr(holder, name, wrapped)
        self.present.add(label)

    def _span_wrapper(self, label, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [label, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, label, fn):
        counts = self.counts
        counts[label] = 0

        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _scalar_wrapper(self, kind):
        acc = self.scalar[kind]

        def make(label, fn):
            def wrapper(a, b):
                t = perf_counter()
                out = fn(a, b)
                acc[1] += perf_counter() - t
                if out is not NotImplemented:
                    acc[0] += 1
                return out

            return wrapper

        return make

    # -- report -------------------------------------------------------------------

    def metrics(self):
        """{metric name: (value, unit)} for every target that was present."""
        spans = self.spans
        child = [0.0] * len(spans)
        for label, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = {}, {}, {}
        for idx, (label, parent, start, end) in enumerate(spans):
            calls[label] = calls.get(label, 0) + 1
            total[label] = total.get(label, 0.0) + (end - start)
            own[label] = own.get(label, 0.0) + (end - start - child[idx])

        out = {}

        def put(name, value, unit, needs):
            if needs in self.present:
                out[name] = (value, unit)

        for kind in ("mul", "add", "div"):
            put(SCALAR + "." + kind + ".calls", self.scalar[kind][0], "count", SCALAR + "." + kind)
        if any(SCALAR + "." + k in self.present for k in self.scalar):
            out[SCALAR + ".busy_s"] = (sum(v[1] for v in self.scalar.values()), "s")

        def span(label, *fields):
            values = {"calls": calls.get(label, 0), "s": total.get(label, 0.0),
                      "self_s": own.get(label, 0.0)}
            for f in fields:
                put(label + "." + f, values[f], "count" if f == "calls" else "s", label)

        span("series_core.Series3.mul", "calls", "self_s")
        span("series_core.Series3.add", "calls", "self_s")
        span("series_core.eval_graph", "calls", "self_s")
        span("series_core.eval_holo3", "calls", "self_s")
        span("series_core.eval_holo2", "calls")
        span("series_core.eval_curve", "calls")
        for label in ("series_core.HoloSeries.mul", "series_core.UPoly.mul"):
            put(label + ".calls", self.counts.get(label, 0), "count", label)
        span("normalize.graph_transform", "calls", "s", "self_s")
        span("normalize.fundamental_identity_residual", "calls", "s")
        span("linalg.solve", "calls", "s")

        chain = "normalize.find_chain_curve"
        stage_labels = {"normalize.stage." + fn for fn in STAGES}
        pipeline = "normalize.normalize_hypersurface"
        stage_s = dict.fromkeys(stage_labels, 0.0)
        stage_calls_in_chain = 0
        for label, parent, start, end in spans:
            if label not in stage_labels:
                continue
            if parent >= 0 and spans[parent][0] == pipeline:
                stage_s[label] += end - start
            anc = parent
            while anc >= 0 and spans[anc][0] != chain:
                anc = spans[anc][1]
            if anc >= 0:
                stage_calls_in_chain += 1
        put(chain + ".s", total.get(chain, 0.0), "s", chain)
        put(chain + ".stage_calls", stage_calls_in_chain, "count", chain)
        for label in sorted(stage_labels):
            put(label + ".s", stage_s[label], "s", label)
        return out

"""Span tracer for the traced benchmark run.

`Tracer.install` replaces each function named in SPANS with a wrapper that
records one span (name, parent, start, end) per call, keeping every span in
memory.  A module-level function is replaced wherever an `mgn_divisors`
module binds it (`checks.quad_class` and `presets.quad_class` as well as
`family.quad_class`), because each calling module looks the name up in its
own globals; a method is replaced on its class.  Nothing under `src/` is
edited.  `boundary_orbits` is a generator yielding about a million items per
sweep, so it gets a yield counter instead of a span.  A listed function
that the program no longer defines is reported as missing, not wrapped.

Self time of a span is its duration minus the durations of its direct child
spans; `summary` sums calls and self time per metric name.
"""

from __future__ import annotations

import functools
import sys
import time

# metric name -> (module under mgn_divisors, functions that share the metric)
SPANS = {
    "family.quad_class": ("family", ("quad_class",)),
    "family.b1_pairing_via_class": ("family", ("b1_pairing_via_class",)),
    "family.closed_forms": ("family", (
        "b0", "b1", "tilde_b", "d1_phi_prime", "d1_theta", "b1_recurrence_rhs")),
    "picard.DivisorClass.init": ("picard", ("DivisorClass.__init__",)),
    "picard.DivisorClass.add": ("picard", ("DivisorClass.add",)),
    "picard.DivisorClass.scale": ("picard", ("DivisorClass.scale",)),
    "picard.DivisorClass.eq": ("picard", ("DivisorClass.__eq__",)),
    "picard.canonical_index": ("picard", ("canonical_index",)),
    "picard.intersect_test_curve": ("picard", ("intersect_test_curve",)),
    "grr.c1_pushforward": ("grr", ("c1_pushforward",)),
    "grr.porteous_equal_rank": ("grr", ("porteous_equal_rank",)),
    "grr.total_boundary": ("grr", ("total_boundary",)),
    "pullbacks.clutch_pullback": ("pullbacks", ("clutch_pullback",)),
    "pullbacks.average_over_pairs": ("pullbacks", ("average_over_pairs",)),
    "pullbacks.forgetful_pullback": ("pullbacks", ("forgetful_pullback",)),
    "presets.certificate_components": ("presets", ("certificate_components",)),
    "certificates.solve_certificate": ("certificates", ("solve_certificate",)),
    "certificates.canonical_class": ("certificates", ("canonical_class",)),
    "exact.solve_linear": ("exact", ("solve_linear",)),
    "exact.Poly.ops": ("exact", (
        "Poly.__add__", "Poly.__radd__", "Poly.__neg__", "Poly.__sub__", "Poly.__rsub__",
        "Poly.__mul__", "Poly.__rmul__", "Poly.__truediv__", "Poly.__pow__")),
    "checks.record": ("checks", ("record",)),
    # the sweep bodies, so that the root span's self time is click plus JSON emission
    "checks.suite": ("checks", (
        "check_table", "check_balance", "check_recurrences", "check_grr",
        "check_pullbacks", "check_pic12", "check_certificates")),
}
ROOT_SPAN = "cli.main"
COUNTERS = {"picard.boundary_orbits.yielded": ("picard", "boundary_orbits")}

PACKAGE = "mgn_divisors"


def span_names():
    """Every span metric name, root first."""
    return [ROOT_SPAN, *SPANS]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start ns, end ns], in start order
        self.counts = {name: 0 for name in COUNTERS}
        self.missing = []  # listed functions the program no longer has; their metrics read 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _count_yields(self, name, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[name] += n

        return counted

    def install(self):
        """Wrap every function in SPANS and COUNTERS in the loaded package."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, (module, paths) in SPANS.items():
            wrappers = {}  # one wrapper per function object, so aliases stay aliases
            for path in paths:
                try:
                    owner, attr = _owner(module, path)
                    fn = owner.__dict__[attr]
                except (AttributeError, KeyError):
                    self.missing.append(f"{module}.{path}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn))
                if isinstance(owner, type):
                    setattr(owner, attr, wrappers[id(fn)][1])
            for fn, wrapper in wrappers.values():
                _rebind(modules, fn, wrapper)
        for name, (module, attr) in COUNTERS.items():
            fn = getattr(_module(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            _rebind(modules, fn, self._count_yields(name, fn))

    def summary(self):
        """{metric name: [calls, self seconds]} for every span name, and the counters."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = {name: [0, 0] for name in span_names()}
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            agg[name][0] += 1
            agg[name][1] += end - start - inner
        return {
            "spans": {name: [calls, ns / 1e9] for name, (calls, ns) in agg.items()},
            "counts": dict(self.counts),
            "missing": self.missing,
        }

    def dump(self, path, op_id):
        """Write every span as a tab-separated line: op, index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("op\tindex\tparent\tname\tstart_ns\tend_ns\n")
            for k, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{op_id}\t{k}\t{parent}\t{name}\t{start}\t{end}\n")


def _module(name):
    return sys.modules[f"{PACKAGE}.{name}"]


def _owner(module, path):
    owner = _module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _rebind(modules, fn, wrapper):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)

"""Spans and counts recorded around posmap's layers for the traced run.

The tracer wraps public functions in the namespaces that call them, so
the package itself is unchanged: ``posmap.cli`` for the subcommands'
entry points into each layer, ``posmap.zeros``, ``posmap.normalize`` and
``posmap.sections`` for the bipartite and hermitian kernels they import
by name, and ``posmap.builtin`` for the builtin constructors.

Layer functions become spans (name, start, end, parent, job). A span's
self time is its duration minus the durations of its child spans.
Kernels (map application, the biquadratic form, the hermitian inverse
and root) are called up to ~10^6 times per job, so they are aggregated,
not stored: a call count, a busy time, and per enclosing span a call
count, which is how "evaluations inside refine" and "sweeps inside
alternation" are measured where the work happens.

Counts are integers that depend only on the inputs; timings are kept
apart from them.
"""

import importlib
import json
import time
from collections import Counter

from posmap.hermitian import hs_norm

__all__ = ["Tracer"]

# refine_zero's default evaluation cap. Besides its polling evaluations,
# refine_zero calls apply_map twice (the first and the final point), so
# a refine span with REFINE_BUDGET + 2 calls ran out of budget.
REFINE_BUDGET = 6000

# (module, attribute, span name): layer entry points, recorded as spans.
SPANS = (
    ("posmap.cli", "witness_from_json", "serialize.read"),
    ("posmap.cli", "zeros_to_json", "serialize.encode"),
    ("posmap.cli", "normalization_to_json", "serialize.encode"),
    ("posmap.cli", "curves_to_csv", "serialize.encode"),
    ("posmap.cli", "render_section_svg", "serialize.encode"),
    ("posmap.cli", "atomic_write", "serialize.write"),
    ("posmap.cli", "find_zeros", "zeros.find"),
    ("posmap.cli", "normalize", "normalize.normalize"),
    ("posmap.cli", "scan_boundary", "sections.scan"),
    ("posmap.cli", "section_of_type", "sections.plane"),
    ("posmap.cli", "plane_from_states", "sections.plane"),
    ("posmap.zeros", "alternating_minimize", "zeros.alternate"),
    ("posmap.zeros", "refine_zero", "zeros.refine"),
    ("posmap.zeros", "classify_zero", "zeros.classify"),
    ("posmap.builtin", "choi_lam_witness", "builtin.witness"),
    ("posmap.builtin", "horodecki_2x4_witness", "builtin.witness"),
    ("posmap.builtin", "identity_witness", "builtin.witness"),
    ("posmap.builtin", "transposition_witness", "builtin.witness"),
)

# (module, attribute, kernel name): aggregated kernel calls.
KERNELS = (
    ("posmap.zeros", "apply_map", "bipartite.apply_map"),
    ("posmap.zeros", "apply_transposed_map", "bipartite.apply_transposed_map"),
    ("posmap.zeros", "biquadratic_form", "bipartite.biquadratic_form"),
    ("posmap.normalize", "apply_map", "bipartite.apply_map"),
    ("posmap.normalize", "apply_transposed_map", "bipartite.apply_transposed_map"),
    ("posmap.normalize", "inv_pd", "hermitian.inv_pd"),
    ("posmap.normalize", "sqrt_psd", "hermitian.sqrt_psd"),
    ("posmap.sections", "apply_map", "bipartite.apply_map"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child", "kernels")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.child = 0.0
        self.kernels = Counter()


class Tracer:
    """Installs wrappers, records spans and counts, restores on exit.

    Use as a context manager; :meth:`job` runs one CLI job as the root
    span. ``counts`` holds the deterministic integer counts,
    ``self_seconds`` the self time per span name, ``kernel_seconds`` the
    busy time per kernel.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.self_seconds = Counter()
        self.kernel_seconds = Counter()
        self._stack = []
        self._job = -1
        self._patched = []
        self._zero_threshold = None

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span_wrapper(name, attr))
        for module, attr, name in KERNELS:
            self._patch(module, attr, self._kernel_wrapper(name))
        return self

    def __exit__(self, *exc):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)
        return False

    def _patch(self, module, attr, make):
        # importlib reaches the module even where the package __init__
        # shadows it (posmap.normalize is also a function name there).
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._patched.append((mod, attr, original))
        setattr(mod, attr, make(original))

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._job)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        duration = span.end - span.start
        self.self_seconds[span.name] += duration - span.child
        if span.parent is not None:
            span.parent.child += duration
        for kernel, calls in span.kernels.items():
            self.counts[f"{kernel}@{span.name}"] += calls
        self.counts[f"spans.{span.name}"] += 1
        self.spans.append(span)

    def _span_wrapper(self, name, attr):
        before = getattr(self, f"_before_{attr}", None)
        on_return = getattr(self, f"_on_{attr}", None)

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(*args, **kwargs)
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                if on_return is not None:
                    on_return(span, result, *args, **kwargs)
                return result
            return wrapper
        return make

    def _kernel_wrapper(self, name):
        stack = self._stack
        calls = self.counts
        seconds = self.kernel_seconds
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[name] += clock() - t0
                    calls[f"{name}.calls"] += 1
                    if stack:
                        stack[-1].kernels[name] += 1
            return wrapper
        return make

    def job(self, main, argv):
        """Run ``main(argv)`` as the root span of a new job."""
        self._job += 1
        self.counts["jobs"] += 1
        span = self._open("cli")
        try:
            return main(argv)
        finally:
            self._close(span)

    # -- outcome hooks: counts read from arguments and results --------------

    def _before_find_zeros(self, W, starts=500, seed=42, tol=1e-9, **_):
        # find_zeros keeps a polished start iff |value| <= tol * scale.
        self._zero_threshold = tol * max(1.0, hs_norm(W.matrix))
        self.counts["zeros.starts"] += starts

    def _on_find_zeros(self, span, zeros, *args, **kwargs):
        self.counts["zeros.distinct"] += len(zeros)
        self.counts["zeros.continuum"] += sum(z.continuum for z in zeros)
        self.counts["zeros.quartic"] += sum(z.kind == "quartic" for z in zeros)
        self.counts["zeros.quadratic"] += sum(z.kind == "quadratic" for z in zeros)

    def _on_refine_zero(self, span, result, *args, **kwargs):
        if abs(result[2]) <= self._zero_threshold:
            self.counts["zeros.accepted"] += 1
        if span.kernels["bipartite.apply_map"] >= REFINE_BUDGET + 2:
            self.counts["zeros.refine_budget_hits"] += 1

    def _on_normalize(self, span, result, *args, **kwargs):
        self.counts["normalize.iterations"] += result.iterations
        self.counts["normalize.converged"] += int(result.converged)

    def _on_scan_boundary(self, span, curve, *args, **kwargs):
        self.counts["sections.rays"] += len(curve.r)

    def _on_atomic_write(self, span, result, path, text):
        self.counts["serialize.bytes_written"] += len(text.encode())

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        """Write every recorded span as one JSON line (times in seconds)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "job": s.job,
                    "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)),
                    "kernels": dict(s.kernels),
                }) + "\n")

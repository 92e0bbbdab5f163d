"""Outside-in tracing of the tropms layers for the benchmark.

The tracer replaces public entry points of each ``tropms`` module, in every
``tropms`` module namespace that binds them, with wrappers that record
spans (metric, parent span, start, end). Because nested calls resolve
through those namespaces too, every span gets its real parent, and a
layer's self time is its spans' durations minus the time of their child
spans. Hot methods get count-only wrappers. An entry point that no longer
exists is reported as missing instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function, self-time metric); call counts are kept for all of them
SPANS = (
    ("pipeline", "load_manifest", "pipeline.load_s"),
    ("pipeline", "load_bundle", "pipeline.load_s"),
    ("pipeline", "run_pipeline", "pipeline.self_s"),
    ("pipeline", "report_to_text", "pipeline.report_s"),
    ("complexes", "parse_complex", "complexes.parse_s"),
    ("complexes", "validate_surface", "complexes.validate_s"),
    ("covers", "parse_multisection", "covers.parse_s"),
    ("covers", "validate_cover", "covers.validate_s"),
    ("covers", "validate_multisection", "covers.validate_s"),
    ("covers", "classify", "covers.classify_s"),
    ("covers", "check_class_C", "covers.classify_s"),
    ("gluing", "parse_gluing", "gluing.parse_s"),
    ("gluing", "validate_gluing", "gluing.validate_s"),
    ("gluing", "bar_complex", "gluing.bar_complex_s"),
    ("gluing", "triple_cocycle", "gluing.cocycle_s"),
    ("gluing", "obstruction_class", "gluing.solve_s"),
    ("graphs", "is_simple_rank2", "graphs.rank2_s"),
    ("graphs", "build_fiber_product", "graphs.fiber_product_s"),
    ("graphs", "general_simplicity", "graphs.general_s"),
    ("chern", "total_chern", "chern.total_chern_s"),
    ("chern", "stability_discriminant", "chern.total_chern_s"),
    ("chern", "newton_polytope", "chern.newton_s"),
    ("chern", "nonvanishing_at_fixed_point", "chern.newton_s"),
    ("laurent", "verify_cocycle", "laurent.verify_cocycle_s"),
    ("svg", "render_svg", "svg.render_s"),
)

# (module, class, method, count metric)
COUNTERS = (
    ("complexes", "PolyhedralSurface", "corners", "complexes.corners.calls"),
    ("complexes", "PolyhedralSurface", "cofaces", "complexes.cofaces.calls"),
    ("covers", "BranchedCover", "lift_cycles", "covers.lift_cycles.calls"),
    ("covers", "BranchedCover", "vertex_lift_at_edge", "covers.vertex_lift_at_edge.calls"),
)

# call-count metrics of wrapped functions
CALLS = {
    "complexes.validate.calls": "complexes.validate_surface",
    "covers.validate_cover.calls": "covers.validate_cover",
    "covers.validate_multisection.calls": "covers.validate_multisection",
    "covers.classify.calls": "covers.classify",
    "gluing.bar_complex.calls": "gluing.bar_complex",
}

# object sizes, summed over the distinct objects a function returns
SIZES = {
    "gluing.bar_complex": ("gluing.order_complex_triangles", lambda bar: len(bar.triangles)),
    "graphs.build_fiber_product": ("graphs.fiber_product_cells", lambda fp: len(fp.cells)),
}

ROOT = "cli.self_s"
SELF_METRICS = tuple(dict.fromkeys([ROOT] + [m for _, _, m in SPANS]))
COUNT_METRICS = tuple(
    list(CALLS) + [m for *_, m in COUNTERS] + [m for m, _ in SIZES.values()]
)


class Tracer:
    """Records spans and counts while installed; ``rep`` runs one traced
    repetition and returns its per-metric self times and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, parent index, start, end]
        self.stack: list[int] = [-1]
        self.calls: Counter = Counter()
        self.sizes: dict[str, dict[int, tuple[object, int]]] = {}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self.missing.clear()
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("tropms.")]
        for mod_name, fn_name, metric in SPANS:
            mod = sys.modules.get(f"tropms.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._span(original, metric, f"{mod_name}.{fn_name}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        for mod_name, cls_name, meth, metric in COUNTERS:
            cls = getattr(sys.modules.get(f"tropms.{mod_name}"), cls_name, None)
            original = getattr(cls, meth, None)
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._patch(cls, meth, self._counter(original, metric))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, fn, metric: str, label: str):
        spans, stack, calls, perf = self.spans, self.stack, self.calls, time.perf_counter
        size = SIZES.get(label)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([metric, stack[-1], perf(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf()
            calls[label] += 1
            if size is not None:
                # keep the object so its id is not reused within the repetition
                self.sizes.setdefault(size[0], {})[id(result)] = (result, size[1](result))
            return result

        return wrapper

    def _counter(self, fn, metric: str):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- one traced repetition ----------------------------------------------

    def rep(self, body) -> tuple[float, dict[str, float], dict[str, int]]:
        """Run ``body()`` under a root span; return the root's duration, the
        self time per metric and the counts of this repetition."""
        self.spans.clear()
        self.calls.clear()
        self.sizes.clear()
        self.spans.append([ROOT, -1, time.perf_counter(), 0.0])
        self.stack[:] = [-1, 0]
        try:
            body()
        finally:
            self.spans[0][3] = time.perf_counter()
            self.stack[:] = [-1]
        child = [0.0] * len(self.spans)
        for metric, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SELF_METRICS, 0.0)
        for (metric, _, start, end), inner in zip(self.spans, child):
            self_s[metric] += end - start - inner
        counts = {m: self.calls[label] for m, label in CALLS.items()}
        counts.update({m: self.calls[m] for *_, m in COUNTERS})
        for metric, _ in SIZES.values():
            counts[metric] = sum(n for _, n in self.sizes.get(metric, {}).values())
        root = self.spans[0]
        return root[3] - root[2], self_s, counts

"""External span recorder: wraps the library's public entry points from
outside the package and reports per-layer self time, call counts, error
counts, cache hit ratios and a few work counters.

Each call of a wrapped function records one span (name, start, end, parent).
A span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested because the workload runs in one thread.

Wrapping replaces the module attribute and every alias of it in the other
library modules (``symmpair.nullspace`` is ``exact.nullspace`` after
``from .exact import nullspace``), so cross-module calls are caught too.
Per-element helpers (``exact.dot``, ``exact.fr``, ``MultiPoly`` arithmetic)
are deliberately left unwrapped: they run tens of thousands of times per
workload and a span on each would dominate the measurement.
"""

from __future__ import annotations

import time

MODULES = ("charring", "cli", "dirlim", "exact", "fock", "nilpf", "numerics",
           "rootsys", "symmpair", "tables")

# module -> public entry points that get a span
ENTRY_POINTS = {
    "charring": ("weight_system", "tensor_decompose", "sym_power_decompose",
                 "decompose_weight_multiset",
                 "is_multiplicity_free_polynomial_action", "check_stability"),
    "rootsys": ("build_root_system", "weyl_dimension", "weyl_dimension_eps"),
    "numerics": ("integrate_sphere", "sphere_product_rule",
                 "gaussian_plane_integral", "matrix_exp", "gamma_moment"),
    "exact": ("nullspace", "det"),
    "symmpair": ("harmonic_basis", "zonal_vector", "sphere_inner_product",
                 "zonal_projection_csq", "zonal_projection_constant"),
    "fock": ("coefficient_inner_product", "fock_operator", "regular_norm_sq"),
    "nilpf": ("pfaffian", "pfaffian_polynomial"),
    "tables": ("algebra", "group_datum"),
    "dirlim": ("sphere_ladder", "un_polynomial_ladder", "heisenberg_ladder",
               "verify_cocycle", "verify_commuting_square",
               "limit_inner_product"),
    "cli": ("main", "run_suite", "emit_report"),
}

# module-level lru caches whose hit ratio is reported
CACHES = {
    "charring": ("_freudenthal_cached",),
    "fock": ("multi_indices", "_ladder_matrices"),
    "symmpair": ("sphere_moment", "harmonic_basis", "_zonal_poly"),
}

COUNTERS = ("charring.weights_out", "charring.multiset_size",
            "numerics.sphere_points", "exact.nullspace.cells", "fock.operator_dim")


def metric_names():
    """Every per-layer metric the recorder reports, in a fixed order."""
    names = []
    for mod, fns in ENTRY_POINTS.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += [f"{mod}.errors" for mod in MODULES]
    names += [f"{mod}.{fn}.cache_hit_ratio" for mod, fns in CACHES.items() for fn in fns]
    names += list(COUNTERS)
    return names


class SpanRecorder:
    def __init__(self, package):
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.names = []              # span name index -> "module.function"
        self.spans = []              # (name index, parent span index, start, end)
        self.stack = []              # indices of open spans
        self.errors = dict.fromkeys(MODULES, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._last_error = None
        # read before install(): a wrapped lru function hides cache_info()
        self.caches = {f"{m}.{f}": getattr(self.modules[m], f)
                       for m, fns in CACHES.items() for f in fns}

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "charring.weight_system": self._count_weights,
            "charring.decompose_weight_multiset": self._count_multiset,
            "numerics.sphere_product_rule": self._count_sphere_points,
            "exact.nullspace": self._count_cells,
            "fock.fock_operator": self._count_operator_dim,
        }
        for mod_name, fns in ENTRY_POINTS.items():
            mod = self.modules[mod_name]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(mod, fn_name)
                wrapper = self._wrap(name, mod_name, original, hooks.get(name))
                for other in self.modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)

    def _wrap(self, name, mod_name, fn, hook):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append((index, parent, 0.0, 0.0))  # completed on return
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each exception once, in the layer where it surfaced first
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[mod_name] += 1
                raise
            finally:
                spans[me] = (index, parent, start, clock())
                stack.pop()
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        return wrapper

    # -- work counters ----------------------------------------------------

    def _count_weights(self, parent, args, kwargs, result):
        self.counters["charring.weights_out"] += len(result)

    def _count_multiset(self, parent, args, kwargs, result):
        self.counters["charring.multiset_size"] += len(args[1])

    def _count_sphere_points(self, parent, args, kwargs, result):
        # only rules that are integrated, not the lower-dimensional factors
        # the product rule builds itself from
        if parent >= 0 and self.names[self.spans[parent][0]] == "numerics.integrate_sphere":
            self.counters["numerics.sphere_points"] += len(result[1])

    def _count_cells(self, parent, args, kwargs, result):
        matrix = args[0]
        if matrix:
            ncols = kwargs.get("ncols") or len(matrix[0])
            self.counters["exact.nullspace.cells"] += len(matrix) * ncols

    def _count_operator_dim(self, parent, args, kwargs, result):
        self.counters["fock.operator_dim"] += result.matrix.shape[0]

    # -- report -----------------------------------------------------------

    def report(self):
        """{metric name: value} for every name in ``metric_names()``."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for idx, parent, start, end in self.spans:
            calls[idx] += 1
            total[idx] += end - start
            if parent >= 0:
                child[parent] += end - start
        child_by_name = [0.0] * len(self.names)
        for (idx, _, _, _), c in zip(self.spans, child):
            child_by_name[idx] += c
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = total[i] - child_by_name[i]
        for mod, n in self.errors.items():
            out[f"{mod}.errors"] = n
        for name, fn in self.caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out.update(self.counters)
        return out

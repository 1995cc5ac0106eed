"""Spans around calls into the interchange modules, recorded from outside.

The tracer replaces a curated list of public functions in each interchange
module (and every other module namespace or dispatch table that holds the
same function object) with a wrapper that times the call.  Nothing under
src/ changes: the wrapping happens in the worker process only, after import.

Spans are aggregated as they close, so memory stays flat even for the
hundreds of thousands of simulator calls the desk suite makes.  For each span
name the tracer keeps the call count, total time, and self time (total minus
the time covered by its direct child spans on the same thread).
"""

import importlib
import threading
import time
from functools import wraps

LAYERS = (
    "graphs", "chain", "irreps", "group_algebra", "cycles", "qhf", "acceptance", "cli",
)

# Layer-boundary functions.  Tiny helpers called per permutation or per
# trajectory step (compose, cycle_counts, hook_dim, ...) are left out: a span
# around each of them would cost more than the work it measures.
TRACED = {
    "graphs": ("parse_graph_spec", "load_weight_file"),
    "chain": (
        "lazy_chain", "lmix", "tv_mix", "delta", "mixing_report", "theorem_bound",
        "verify_probability_bounds", "min_stationary_ratio", "tv_distance",
        "lift_lazy", "double_weight",
    ),
    "irreps": (
        "delta_on_irrep", "all_spectra", "assembled_spectrum", "aldous_check",
        "comparison_constant", "min_eigenvalue_on_irreps",
    ),
    "group_algebra": (
        "octopus_gap", "doubling_gap", "delta_of_weights", "regular_rep_matrix",
        "is_psd", "octopus_check", "doubling_inequality_check",
        "interchange_tv_mix_exact",
    ),
    "cycles": (
        "simulate_interchange", "expected_cycles_mc", "expected_cycles_spectral",
        "large_cycle_probability", "exact_cycles_bruteforce", "cycle_coefficients",
    ),
    "qhf": ("qhf_mc", "qhf_exact"),
    "acceptance": (
        "run_suite", "empirical_constant_table",
        "check_octopus_psd", "check_doubling_inequality", "check_schur_scalarity",
        "check_spectrum_assembly", "check_mixing_numbers", "check_probability_bounds",
        "check_cycle_formula_routes", "check_aldous_inequality",
        "check_mixing_comparison", "check_comparison_constants",
        "check_qhf_observables",
    ),
    "cli": ("main", "render_json"),
}

# is_psd takes one of two routes; its span is named after the route taken.
# With method "auto" it uses the regular representation up to this n.
REGULAR_ROUTE_MAX_N = 5


def _psd_route(args, kwargs) -> str:
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method == "auto":
        element = args[0] if args else kwargs.get("a")
        method = "regular" if element.n <= REGULAR_ROUTE_MAX_N else "irrep"
    return f"group_algebra.is_psd.{method}"


class Tracer:
    """Aggregated span recorder; one per worker process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack()
        frame = [0.0]  # time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            with self._lock:
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += own
                self.layer_self[layer] += own

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        if fn.__name__ == "is_psd":
            @wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(_psd_route(args, kwargs), layer, fn, args, kwargs)
        else:
            @wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, layer, fn, args, kwargs)
        return traced

    def install(self, package) -> None:
        """Wrap TRACED functions wherever the package's modules refer to them."""
        modules = {
            layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        }
        replacements = {}
        for layer, names in TRACED.items():
            for fn_name in names:
                original = getattr(modules[layer], fn_name, None)
                if original is None:  # renamed or removed: its spans read 0
                    continue
                replacements[id(original)] = (original, self.wrap(layer, original))
        for module in modules.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    namespace[key] = replacements[id(value)][1]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replacements and replacements[id(v)][0] is v:
                            value[k] = replacements[id(v)][1]

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(entry) for name, entry in self.stats.items()},
            "layer_self": dict(self.layer_self),
        }

"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each loopcert module and rebinds
every name that refers to them, in every loaded loopcert module, so calls
made through names imported with ``from .weyl import kappa`` are counted
too.  Each call is a span (function, start, end, parent span) kept in flat
arrays in memory; nothing inside ``src/`` changes.  ``affine`` and
``linalg`` are not wrapped: their time counts toward the self time of the
layer that calls them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = {
    "cartan": ("build_root_system_label",),
    "weyl": ("enumerate_by_length", "multiply", "act_on_root", "length_im", "inverted_roots_scan",
             "inverted_roots_word", "is_kostant", "kappa", "neg_inverted_of_inverse", "act_on_cartan"),
    "inequalities": ("run_audit", "verify_lemma23", "verify_lemma351", "sample_h1", "sample_siegel",
                     "h1_vector", "h2_vector", "h3_vector", "verify_corollary"),
    "convergence": ("certify", "cell_bound", "growth_census"),
    "decay": ("sigma_hat", "fourier_envelope", "fourier_decay_fit", "parseval_check", "l1_norm",
              "l1_norm_extrema", "l2_norm", "derivative_poly", "sign_change_roots", "gauss_legendre",
              "moment_to_pointwise"),
    "reports": ("write_report", "validate_report"),
    "cli": ("main",),
}

# counters recorded at the same boundaries as the spans
COUNTERS = (("weyl.elements", "count", "lower"), ("reports.bytes", "bytes", "lower"))
RATIOS = (("weyl.enumerate.kept_per_product", "elements/call", "higher"),)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, funcs in LAYERS.items():
        for func in funcs:
            specs.append((f"{layer}.{func}.calls", "count", "lower"))
            specs.append((f"{layer}.{func}.s", "s", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs.extend(COUNTERS)
    specs.extend(RATIOS)
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _loaded_loopcert_modules():
    return [m for name, m in list(sys.modules.items()) if name == "loopcert" or name.startswith("loopcert.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.fn = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.outermost = bytearray()
        self.current_op = [0]  # index of the workload operation being run
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patches: list[tuple[object, str, object]] = []
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in _loaded_loopcert_modules()}
        self._active = [0] * sum(len(funcs) for funcs in LAYERS.values())
        for layer, funcs in LAYERS.items():
            for func in funcs:
                original = getattr(modules[layer], func)
                idx = len(self.names)
                self.names.append(f"{layer}.{func}")
                self.layer_of.append(layer)
                self._wrappers[id(original)] = (original, self._wrap(idx, original, self._after_hook(layer, func)))

    def _after_hook(self, layer: str, func: str):
        counters = self.counters
        if (layer, func) == ("weyl", "enumerate_by_length"):
            def count_elements(layers):
                counters["weyl.elements"] += sum(len(layer) for layer in layers)
            return count_elements
        if (layer, func) == ("reports", "write_report"):
            def count_bytes(text):
                counters["reports.bytes"] += len(text.encode())
            return count_bytes
        return None

    def _wrap(self, idx: int, original, after):
        fn, start, end, parent, outermost = self.fn, self.start, self.end, self.parent, self.outermost
        op, current_op = self.op, self.current_op
        stack, active = self._stack, self._active
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(fn)
            fn.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(current_op[0])
            active[idx] += 1
            outermost.append(active[idx] == 1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                active[idx] -= 1
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every loopcert name bound to a wrapped function."""
        for module in _loaded_loopcert_modules():
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def reset(self) -> None:
        for arr in (self.fn, self.start, self.end, self.parent, self.op, self.outermost):
            del arr[:]
        self._stack.clear()
        for key in self.counters:
            self.counters[key] = 0

    def metrics(self) -> dict[str, float]:
        """Per-function calls and inclusive seconds (outermost spans only, so
        recursion is not double counted), per-layer self seconds (span time
        minus the time covered by child spans), counters and the BFS ratio."""
        n_funcs = len(self.names)
        calls = [0] * n_funcs
        inclusive = [0] * n_funcs
        self_ns = dict.fromkeys(LAYERS, 0)
        fn, parent, outermost = self.fn, self.parent, self.outermost
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(durations)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += durations[i]
        enum_idx = self.names.index("weyl.enumerate_by_length")
        mult_idx = self.names.index("weyl.multiply")
        products = 0
        for i, f in enumerate(fn):
            calls[f] += 1
            if outermost[i]:
                inclusive[f] += durations[i]
            self_ns[self.layer_of[f]] += durations[i] - child[i]
            if f == mult_idx and parent[i] >= 0 and fn[parent[i]] == enum_idx:
                products += 1
        out: dict[str, float] = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f]
            out[f"{name}.s"] = inclusive[f] / 1e9
        for layer, ns in self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        out.update(self.counters)
        new_elements = self.counters["weyl.elements"] - calls[enum_idx]  # each call returns the identity too
        out["weyl.enumerate.kept_per_product"] = new_elements / products if products else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Gzipped text: one JSON header line naming the functions, then one line per span:
        function index, start ns, end ns, parent span index (-1 at the top)
        and the index of the workload operation the span belongs to."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"functions": self.names, "clock": "perf_counter_ns"}) + "\n")
            for row in zip(self.fn, self.start, self.end, self.parent, self.op):
                fh.write("%d %d %d %d %d\n" % row)

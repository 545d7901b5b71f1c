"""Outside-in spans around the public functions of npscan's modules.

The program has no tracing of its own yet, so the benchmark wraps each
layer's public functions from outside.  Names are imported by value
(``lfunction`` binds ``pi_valuation``, ``cli`` and ``curvezeta`` bind
``l_polynomial``, ``scan`` binds ``np_at_prime``), so a wrapper replaces
every binding of the original object in every ``npscan`` module and in
every class those modules define.  Modules are resolved with
``importlib.import_module``: ``npscan.dickson`` as an attribute is the
re-exported ``dickson()`` function, not the module.

Each span adds its duration to its key's total ``s`` (counted once when
spans of one key nest) and its duration minus its child spans to
``self_s``.  Per-element hot paths such as ``FieldElement.__mul__`` are
left unwrapped: the cost of a span would swamp them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

ZECH = "kernels.trace_histogram.zech"
HORNER = "kernels.trace_histogram.horner"

# span key -> (module, functions it covers, reported quantities); a key
# that covers several functions reports their combined time.
LAYERS = {
    "cyclotomic.pi_valuation": ("npscan.cyclotomic", ("pi_valuation",), ("calls", "s")),
    "cyclotomic.CycInt.mul": ("npscan.cyclotomic", ("CycInt.__mul__",), ("calls", "s")),
    "kernels.trace_histogram": ("npscan.kernels", ("trace_histogram",), ()),
    "kernels.find_first_root": ("npscan.kernels", ("find_first_root",), ("calls", "s")),
    "fields.build_field": ("npscan.fields", ("build_field",), ("calls", "s")),
    "fields.embed": ("npscan.fields", ("embed",), ("calls", "self_s")),
    "lfunction.trace_counts": ("npscan.lfunction", ("trace_counts",), ("calls",)),
    "lfunction.l_polynomial": ("npscan.lfunction", ("l_polynomial",), ("calls", "self_s")),
    "lfunction.newton_polygon": ("npscan.lfunction", ("newton_polygon",), ("calls", "self_s")),
    "curvezeta.p1_polynomial": ("npscan.curvezeta", ("p1_polynomial",), ("self_s",)),
    "curvezeta.product_formula_check": (
        "npscan.curvezeta", ("product_formula_check",), ("self_s",)),
    "curvezeta.slope_length_relation_check": (
        "npscan.curvezeta", ("slope_length_relation_check",), ("self_s",)),
    "polygons": (
        "npscan.polygons", ("lower_hull", "hodge_polygon", "vertical_gap", "lies_above"), ("s",)),
    "scan.scan_record": ("npscan.scan", ("scan_record",), ("calls", "self_s")),
    "scan.validate_record": ("npscan.scan", ("validate_record",), ("calls", "self_s")),
    "scan.serialize": ("npscan.scan", ("write_csv", "record_to_json"), ("s",)),
    "dickson.find_dickson_factor": ("npscan.dickson", ("find_dickson_factor",), ("s",)),
    "dickson.is_admissible": ("npscan.dickson", ("is_admissible",), ("s",)),
}

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def _namespaces() -> list:
    """Every npscan module and every class defined in one."""
    pkg = importlib.import_module("npscan")
    modules = [pkg] + [
        importlib.import_module(f"npscan.{info.name}") for info in pkgutil.iter_modules(pkg.__path__)
    ]
    classes = {
        id(value): value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("npscan")
    }
    return modules + list(classes.values())


def _constant(key: str):
    return lambda *args, **kwargs: key


class Tracer:
    """Span totals for the layers in LAYERS, kept in memory."""

    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        self.elements = 0  # sum of q over trace_histogram calls
        self.zech_fields: set[tuple[int, int]] = set()
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, object]] = {}

    def _wrap(self, fn, key_of):
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            key = key_of(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            open_[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                open_[key] -= 1
                stat = spans[key]
                stat["calls"] += 1
                stat["self_s"] += dt - child[0]
                if not open_[key]:
                    stat["s"] += dt
                if stack:
                    stack[-1][0] += dt

        return span

    def _histogram_route(self, fbar, *args, **kwargs) -> str:
        kernels = importlib.import_module("npscan.kernels")
        field = fbar.field
        self.elements += field.q
        if kernels.ZECH_MIN_Q <= field.q <= kernels.ZECH_MAX_Q:
            self.zech_fields.add((field.p, field.e))
            return ZECH
        return HORNER

    def install(self) -> None:
        namespaces = _namespaces()
        for key, (module, paths, _) in LAYERS.items():
            for path in paths:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                if hasattr(original, "cache_info"):
                    self._caches[key] = (original, original.cache_info())
                if key == "kernels.trace_histogram":
                    key_of = self._histogram_route
                else:
                    key_of = _constant(key)
                wrapper = self._wrap(original, key_of)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, name, wrapper)
                            self._restore.append((ns, name, original))

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._restore):
            setattr(ns, name, original)
        self._restore.clear()

    def totals(self) -> dict:
        caches = {}
        for key, (fn, before) in self._caches.items():
            after = fn.cache_info()
            caches[key] = {"hits": after.hits - before.hits, "misses": after.misses - before.misses}
        return {
            "spans": {key: dict(stat) for key, stat in self.spans.items()},
            "elements": self.elements,
            "zech_fields": len(self.zech_fields),
            "caches": caches,
        }


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced child."""
    spans = totals["spans"]

    def get(key: str, what: str) -> float:
        return spans.get(key, {}).get(what, 0)

    out: dict[str, tuple[float, str]] = {}
    for key, (_, _, reported) in LAYERS.items():
        for what in reported:
            out[f"{key}.{what}"] = (get(key, what), UNITS[what])
    for key in (ZECH, HORNER):
        out[f"{key}.calls"] = (get(key, "calls"), "count")
        out[f"{key}.s"] = (get(key, "s"), "s")
    out[f"{ZECH}.distinct_fields"] = (totals["zech_fields"], "count")
    histograms = get(ZECH, "calls") + get(HORNER, "calls")
    histogram_s = get(ZECH, "s") + get(HORNER, "s")
    elements = totals["elements"]
    out["kernels.trace_histogram.calls"] = (histograms, "count")
    out["kernels.trace_histogram.elements"] = (elements, "count")
    out["kernels.trace_histogram.elements_per_s"] = (
        elements / histogram_s if histogram_s else 0.0, "1/s")
    requests = get("lfunction.trace_counts", "calls")
    out["lfunction.histogram_cache.hit_ratio"] = (
        1 - histograms / requests if requests else 0.0, "ratio")
    cache = totals["caches"].get("fields.build_field", {"hits": 0, "misses": 0})
    lookups = cache["hits"] + cache["misses"]
    out["fields.build_field.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    return out

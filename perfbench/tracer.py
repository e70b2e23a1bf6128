"""Run one agekit CLI query with the calls into each layer timed.

    python perfbench/tracer.py OUT.json -- <agekit arguments>

The agekit package is imported, every public function of each layer module
(plus the private entry points named in EXTRA) is replaced by a timing
wrapper in every ``agekit.*`` namespace that holds it, because modules use
``from .structures import canonical_form``.  A wrapper of an ``lru_cache``
function sits outside the cache, so hits and key hashing are timed too.
Then ``agekit.cli.main`` runs the query, and OUT.json receives per-function
counts and inclusive times, per-layer self time, ``lru_cache`` statistics
and spans (name, parent span, start, end) of the first calls of each
function.  The exit code is the query's.

Self time of a layer is the time inside its wrapped calls minus the time of
wrapped calls nested in them.  Inclusive time counts only the outermost
call of a recursive function.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("structures", "ages", "ktypes", "reducts", "canonical", "core",
          "definability", "decide", "certs", "verify", "parser")
EXTRA = {"ages": ("_in_age",), "ktypes": ("_labeled_age_structures",),
         "decide": ("_matchings",)}
CACHES = ("structures.canonical_form", "ages._in_age")
# Spans recorded per function; later calls of a hot function such as embeds
# or _in_age are only aggregated.
SPANS_PER_FUNCTION = 100

# Work counted per call, as (args, result) -> count.  Cached enumerations
# count only the calls that missed the cache, so the count is work done.
ITEMS = {
    "ages.enumerate_age": lambda a, r: len(r),
    "ktypes.enumerate_types": lambda a, r: len(r),
    "ages.check_amalgamation": lambda a, r: r.diagrams_checked,
    "canonical.enumerate_behaviours": lambda a, r: len(r),
    "definability.ep_expand": lambda a, r: len(r.relations) - len(a[0].reduct_out.relations),
}
COUNT_ON_MISS = {"ages.enumerate_age", "ktypes.enumerate_types"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # per open call: [time of nested calls, span its children hang from,
        # its own span or None]
        self.stack: list[list] = []
        self.stats: dict[str, dict] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[list] = []  # [name, parent span, start, end]
        self.originals: dict[str, object] = {}

    def _enter(self, st: dict, name: str) -> float:
        parent = self.stack[-1][1] if self.stack else None
        own = None
        if st["spans"] < SPANS_PER_FUNCTION:
            st["spans"] += 1
            own = len(self.spans)
            self.spans.append([name, parent, self.clock(), None])
        st["depth"] += 1
        self.stack.append([0.0, parent if own is None else own, own])
        return self.clock()

    def _exit(self, st: dict, layer: str, t0: float) -> None:
        dt = self.clock() - t0
        child, _, own = self.stack.pop()
        st["depth"] -= 1
        if st["depth"] == 0:
            st["s"] += dt
        self.layer_self[layer] += dt - child
        if self.stack:
            self.stack[-1][0] += dt
        if own is not None:
            self.spans[own][3] = self.clock()

    def wrap(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        st = self.stats[name] = {"calls": 0, "s": 0.0, "items": 0, "depth": 0, "spans": 0}
        items = ITEMS.get(name)
        # an uncached function misses on every call
        on_miss = name in COUNT_ON_MISS and hasattr(fn, "cache_info")
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                st["calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = enter(st, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(st, layer, t0)
                    st["items"] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            st["calls"] += 1
            misses = fn.cache_info().misses if on_miss else 0
            t0 = enter(st, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(st, layer, t0)
            if items is not None and (not on_miss or fn.cache_info().misses > misses):
                st["items"] += items(args, result)
            return result
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"agekit.{layer}") for layer in LAYERS}
        modules["cli"] = importlib.import_module("agekit.cli")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                if (isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                self.originals[f"{layer}.{attr}"] = fn
                wrappers[id(fn)] = self.wrap(layer, attr, fn)
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if id(fn) in wrappers:
                    setattr(mod, attr, wrappers[id(fn)])

    def report(self) -> dict:
        caches = {}
        for name in CACHES:
            fn = self.originals.get(name)
            if fn is not None:
                info = fn.cache_info()
                caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "functions": {n: {k: st[k] for k in ("calls", "s", "items")}
                          for n, st in self.stats.items() if st["calls"]},
            "layer_self_s": self.layer_self,
            "caches": caches,
            "spans": self.spans,
        }


# Per-layer metric -> (traced function, field), field being the inclusive
# time "s", the number of "calls" or the work counted in "items".
FUNCTION_METRICS = {
    "structures.canonical_form.s": ("structures.canonical_form", "s"),
    "structures.canonical_form.calls": ("structures.canonical_form", "calls"),
    "structures.embeds.s": ("structures.embeds", "s"),
    "structures.embeds.calls": ("structures.embeds", "calls"),
    "ages.enumerate_age.s": ("ages.enumerate_age", "s"),
    "ages.enumerate_age.members": ("ages.enumerate_age", "items"),
    "ages.check_amalgamation.s": ("ages.check_amalgamation", "s"),
    "ages.check_amalgamation.diagrams": ("ages.check_amalgamation", "items"),
    "ktypes.enumerate_types.s": ("ktypes.enumerate_types", "s"),
    "ktypes.enumerate_types.types": ("ktypes.enumerate_types", "items"),
    "ktypes.labeled_age_structures.s": ("ktypes._labeled_age_structures", "s"),
    "reducts.compile_orbit_union.s": ("reducts.compile_orbit_union", "s"),
    "reducts.compile_orbit_union.calls": ("reducts.compile_orbit_union", "calls"),
    "canonical.enumerate_behaviours.s": ("canonical.enumerate_behaviours", "s"),
    "canonical.candidates": ("canonical.is_coherent", "calls"),
    "canonical.is_realizable.s": ("canonical.is_realizable", "s"),
    "canonical.is_realizable.calls": ("canonical.is_realizable", "calls"),
    "canonical.image_structure.calls": ("canonical.image_structure", "calls"),
    "canonical.probe.s": ("canonical.greedy_extension_probe", "s"),
    "core.compute_core.s": ("core.compute_core", "s"),
    "core.carve_bounds.s": ("core.carve_bounds", "s"),
    "core.is_optimally_presented.s": ("core.is_optimally_presented", "s"),
    "definability.ep_expand.s": ("definability.ep_expand", "s"),
    "definability.ep_expand.relations": ("definability.ep_expand", "items"),
    "definability.pp_expand.s": ("definability.pp_expand", "s"),
    "definability.pp_definable.calls": ("definability.pp_definable", "calls"),
    "definability.enumerate_poly_behaviours.s": ("definability.enumerate_poly_behaviours", "s"),
    "definability.poly_is_realizable.s": ("definability.poly_is_realizable", "s"),
    "definability.poly_is_realizable.calls": ("definability.poly_is_realizable", "calls"),
    "decide.decide_bidef.s": ("decide.decide_bidef", "s"),
    "decide.matchings": ("decide._matchings", "items"),
    "certs.write_certificate.s": ("certs.write_certificate", "s"),
    "verify.verify_certificate.s": ("verify.verify_certificate", "s"),
    "parser.parse_input.s": ("parser.parse_input", "s"),
}


def layer_metrics(reports: list[dict]) -> dict[str, tuple[float, str]]:
    """Sums the reports of a workload's traced queries into per-layer metrics."""
    funcs: dict[str, dict] = {}
    caches: dict[str, list[int]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for rep in reports:
        for name, st in rep["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "s": 0.0, "items": 0})
            for key in acc:
                acc[key] += st[key]
        for layer, t in rep["layer_self_s"].items():
            self_s[layer] += t
        for name, info in rep["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += info["hits"]
            acc[1] += info["misses"]

    def hit_rate(name: str) -> float:
        hits, misses = caches.get(name, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    out = {f"{layer}.self_s": (t, "s") for layer, t in self_s.items()}
    for metric, (fn, field) in FUNCTION_METRICS.items():
        out[metric] = (funcs.get(fn, {}).get(field, 0), "s" if field == "s" else "count")
    out["structures.canonical_form.hit_rate"] = (hit_rate("structures.canonical_form"), "ratio")
    out["ages.in_age.hit_rate"] = (hit_rate("ages._in_age"), "ratio")
    candidates = out["canonical.candidates"][0]
    returned = funcs.get("canonical.enumerate_behaviours", {}).get("items", 0)
    out["canonical.realizable_ratio"] = (returned / candidates if candidates else 0.0, "ratio")
    return out


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: tracer.py OUT.json -- <agekit arguments>", file=sys.stderr)
        return 3
    out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    from agekit import cli
    code = 1
    try:
        code = cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.report(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

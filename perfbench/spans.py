"""In-memory spans around the calls into each layer of lfunlab.

`Tracer.install` wraps every public function (those in `__all__`) of the
layer modules at every lfunlab namespace that binds it, so that both
`special.log_gamma(...)` and the second name bound by
`from .special import log_gamma` go through the wrapper.  It also wraps the
mpmath functions the program calls through the `mpmath` module attribute.
Items run by `ordered_parallel_map` get their own span whose parent is the
map call's span, whichever pool thread runs them.

A span is (id, parent id, name, layer, start, end, count): `count` is the
work measure of the call where one is defined (points for `log_gamma`, nodes
for `gauss_legendre_panels`), else 0.  Spans stay in memory until `summary`
or `write` at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = ("special", "quadrature", "exactarith", "heckegl3", "afe", "util")
ALL_MODULES = LAYER_MODULES + ("kuznetsov", "voronoi")
MPMATH_FUNCTIONS = ("besselk", "zeta", "gamma", "quad", "quadosc")
MAP_NAME = "util.ordered_parallel_map"

# work measure of a call, from its arguments and result
_COUNTS = {
    "special.log_gamma": lambda args, kwargs, out: int(np.size(args[0])) if args else 0,
    "quadrature.gauss_legendre_panels": lambda args, kwargs, out: int(np.size(out[0])),
}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.map_threads: dict = {}  # map span id -> threads the map could use
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn, args=(), kwargs=None, parent=None, count=None):
        """Run fn(*args, **kwargs) inside a span; return its result."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        n = count(args, kwargs, out) if count is not None else 0
        self.spans.append((sid, parent, name, layer, start, end, n))
        return out

    def _wrap(self, fn, name: str, layer: str):
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, count=count)

        traced.__wrapped__ = fn
        return traced

    def _wrap_map(self, original):
        def traced_map(fn, items, threads: int = 4):
            items = list(items)
            width = min(threads, len(items)) if threads > 1 and len(items) > 1 else 1
            item_layer = _layer(getattr(fn, "__module__", "") or "?")
            item_name = f"{item_layer}.{getattr(fn, '__qualname__', 'item')}"

            def run():
                sid = self._stack()[-1]  # the map call's own span
                self.map_threads[sid] = width

                def item(it):
                    return self.call(item_name, item_layer, fn, (it,), parent=sid)

                return original(item, items, threads)

            return self.call(MAP_NAME, "util", run)

        traced_map.__wrapped__ = original
        return traced_map

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        import importlib

        import mpmath

        modules = {m: importlib.import_module(f"lfunlab.{m}") for m in ALL_MODULES}
        wrappers = {}
        for m in LAYER_MODULES:
            mod = modules[m]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if not callable(obj) or isinstance(obj, type):
                    continue
                name = f"{m}.{attr}"
                wrappers[id(obj)] = self._wrap_map(obj) if name == MAP_NAME else self._wrap(obj, name, m)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for attr in MPMATH_FUNCTIONS:
            obj = getattr(mpmath, attr)
            self._patches.append((mpmath, attr, obj))
            setattr(mpmath, attr, self._wrap(obj, f"mpmath.{attr}", "mpmath"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds, work count; per layer: self
        seconds (duration minus the union of its children's intervals, summed
        over threads); per map call: item seconds over threads x map seconds."""
        children = defaultdict(list)
        for s in self.spans:
            children[s[1]].append(s)
        by_name: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "count": 0})
        self_s: dict = defaultdict(float)
        map_s = map_item_s = map_capacity_s = 0.0
        for sid, _parent, name, layer, start, end, n in self.spans:
            rec = by_name[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["count"] += n
            covered = _union_length([(max(c[4], start), min(c[5], end)) for c in children.get(sid, ())])
            self_s[layer] += (end - start) - covered
            if name == MAP_NAME:
                map_s += end - start
                map_item_s += sum(c[5] - c[4] for c in children.get(sid, ()))
                map_capacity_s += self.map_threads.get(sid, 1) * (end - start)
        return {
            "functions": dict(by_name),
            "self_s": dict(self_s),
            "map_s": map_s,
            "map_busy_ratio": map_item_s / map_capacity_s if map_capacity_s > 0 else 0.0,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "parent", "name", "layer", "start", "end", "count"],
                    "spans": sorted(self.spans),
                },
                fh,
            )


def _union_length(intervals: list) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

"""Per-layer attribution of a cProfile run over the ``repro`` packages.

A layer is a ``repro`` package (``core``, ``engine``, ``noc`` ...) or a
top-level module (``session``).  Attribution works on the profile's call
graph:

* host *self* time of a ``repro`` function goes to its own module;
* self time of anything outside ``repro`` -- C builtins, the standard
  library, numpy -- is charged to the ``repro`` code that called it, split
  over its callers in proportion to the time each caller's calls took
  (chains of non-``repro`` frames are followed up to the first ``repro``
  caller);
* a call *crosses into* a layer when a function of that layer is called
  from a function whose (dominant) layer is a different one.

Time with no ``repro`` caller at all (the benchmark's own loop, the
profiler itself) stays unattributed; ``coverage`` is the attributed share.
"""

from __future__ import annotations

import os
import pstats
import sys
from typing import Dict, Iterable, Tuple

Func = Tuple[str, int, str]  # pstats key: (filename, line, function name)

UNATTRIBUTED = "<unattributed>"

#: Layers whose self time the benchmark reports (the rest of ``repro``
#: is summed as ``other``).
SELF_LAYERS = ("core", "isa", "kernels", "engine", "noc", "pgas", "runtime",
               "mem", "pim", "pdes", "orch", "workloads")
#: Layers whose incoming cross-layer calls are counted.
CALL_LAYERS = ("engine", "core", "isa", "noc", "pgas", "mem", "pim",
               "runtime")


def layer_of(module: str) -> str:
    """``'pdes/contention.py'`` -> ``'pdes'``; ``'session.py'`` ->
    ``'session'``."""
    head = module.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


class LayerProfile:
    """Module/layer attribution of one or more cProfile runs."""

    def __init__(self, profiles: Iterable, repro_dir: str) -> None:
        profiles = list(profiles)
        stats = pstats.Stats(profiles[0])
        for prof in profiles[1:]:
            stats.add(prof)
        self.stats: Dict[Func, tuple] = stats.stats
        self._prefix = os.path.realpath(repro_dir) + os.sep
        self._shares: Dict[Func, Dict[str, float]] = {}
        self.module_self: Dict[str, float] = {}
        self.total_s = 0.0
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 20000))
        try:
            for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
                self.total_s += tt
                for module, part in self._share(func, set()).items():
                    self.module_self[module] = (
                        self.module_self.get(module, 0.0) + tt * part)
        finally:
            sys.setrecursionlimit(limit)

    # -- attribution ---------------------------------------------------------

    def module(self, func: Func) -> str:
        """The ``repro`` module a function lives in ('' outside repro)."""
        filename = func[0]
        if filename.startswith(self._prefix):
            return filename[len(self._prefix):].replace(os.sep, "/")
        return ""

    def _share(self, func: Func, active: set) -> Dict[str, float]:
        """How ``func``'s self time splits over ``repro`` modules."""
        if func in self._shares:
            return self._shares[func]
        own = self.module(func)
        if own:
            return {own: 1.0}
        entry = self.stats.get(func)
        callers = entry[4] if entry else {}
        if not callers:
            share = {UNATTRIBUTED: 1.0}
        elif func in active:
            return {}  # recursion through non-repro frames: resolved above
        else:
            active.add(func)
            # callers[c] = (nc, cc, tt, ct): tt is the self time of this
            # function spent in calls made by c.
            weights = {c: v[2] for c, v in callers.items()}
            if not any(weights.values()):
                weights = {c: float(v[0]) for c, v in callers.items()}
            share = {}
            total = 0.0
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                sub = self._share(caller, active)
                for module, part in sub.items():
                    share[module] = share.get(module, 0.0) + weight * part
                total += weight * sum(sub.values())
            active.discard(func)
            share = ({m: v / total for m, v in share.items()} if total
                     else {UNATTRIBUTED: 1.0})
        self._shares[func] = share
        return share

    def dominant_layer(self, func: Func) -> str:
        own = self.module(func)
        if own:
            return layer_of(own)
        share = self._share(func, set())
        if not share:
            return UNATTRIBUTED
        return layer_of(max(share.items(), key=lambda kv: kv[1])[0])

    # -- reports -------------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer (builtins charged to their callers)."""
        out: Dict[str, float] = {}
        for module, secs in self.module_self.items():
            layer = (UNATTRIBUTED if module == UNATTRIBUTED
                     else layer_of(module))
            out[layer] = out.get(layer, 0.0) + secs
        return out

    @property
    def coverage(self) -> float:
        """Share of profiled host time attributed to a ``repro`` layer."""
        if not self.total_s:
            return 0.0
        return 1.0 - self.module_self.get(UNATTRIBUTED, 0.0) / self.total_s

    def calls_into(self) -> Dict[str, int]:
        """Calls that cross into each layer from a different one."""
        out: Dict[str, int] = {}
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            own = self.module(func)
            if not own:
                continue
            layer = layer_of(own)
            for caller, (nc, _c, _t, _x) in callers.items():
                if self.dominant_layer(caller) != layer:
                    out[layer] = out.get(layer, 0) + nc
        return out

    def cumulative(self, path_suffix: str, name: str) -> Tuple[int, float]:
        """``(calls, cumulative seconds)`` of functions called ``name`` in
        files ending with ``path_suffix`` (e.g. ``'orch/cache.py'``)."""
        calls, secs = 0, 0.0
        suffix = path_suffix.replace("/", os.sep)
        for func, (_cc, nc, _tt, ct, _callers) in self.stats.items():
            if func[2] == name and func[0].endswith(suffix):
                calls += nc
                secs += ct
        return calls, secs

    def module_seconds(self, module: str) -> float:
        """Self seconds attributed to one ``repro`` module."""
        return self.module_self.get(module, 0.0)

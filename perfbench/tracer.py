"""Per-layer tracing from outside the program.

:class:`Tracer` replaces every public function of the package's layer
modules by a timing wrapper, under each name that any ``hyperring`` module
binds it to, so calls between modules go through the wrapper too. For
each function it records calls, inclusive time, self time (inclusive time
minus the time of traced calls made inside it) and exceptions raised.
An exception is charged once, to the layer of the innermost traced call
it leaves. Cache hit ratios come from the public ``cache_info()`` of every
``lru_cache`` in the package.

Only the benchmark's child processes use this; nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import sys
import time
import types

LAYERS = ("core", "ideals", "morphisms", "constructions", "corpus", "verifier", "cli")


class Stat:
    __slots__ = ("calls", "inclusive", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.errors = 0


def _is_traceable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name or isinstance(obj, type):
        return False
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self, package: str = "hyperring"):
        self.package = package
        self.stats = {}          # "layer.function" -> Stat
        self.theorem_seconds = {}  # theorem id -> seconds inside verifier.check
        self.errors = {layer: {} for layer in LAYERS}  # layer -> {class name: count}
        self.caches = {}         # "module.function" -> lru_cache wrapper
        self._stack = []

    def _modules(self):
        prefix = self.package + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        """Wrap every public layer function; the package must be imported."""
        modules = self._modules()
        for module in modules:
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == module.__name__:
                    self.caches[f"{module.__name__.rsplit('.', 1)[-1]}.{name}"] = obj
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                wrapper = self._wrap(layer, name, obj)
                for other in modules:
                    if vars(other).get(name) is obj:
                        setattr(other, name, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        stat = self.stats[f"{layer}.{name}"] = Stat()
        errors = self.errors[layer]
        stack = self._stack
        clock = time.perf_counter
        per_theorem = self.theorem_seconds if (layer, name) == ("verifier", "check") else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_charged", False):
                    stat.errors += 1
                    kind = type(exc).__name__
                    errors[kind] = errors.get(kind, 0) + 1
                    try:
                        exc._perfbench_charged = True
                    except AttributeError:
                        pass
                raise
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stat.calls += 1
                stat.inclusive += elapsed
                stat.self_time += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if per_theorem is not None:
                    tid = args[1].tid
                    per_theorem[tid] = per_theorem.get(tid, 0.0) + elapsed

        traced.__name__ = name
        traced.__doc__ = fn.__doc__
        return traced

    def snapshot(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        caches = {}
        for key, fn in sorted(self.caches.items()):
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        return {
            "functions": {
                key: {"calls": s.calls, "inclusive_s": s.inclusive,
                      "self_s": s.self_time, "errors": s.errors}
                for key, s in sorted(self.stats.items())
            },
            "theorem_seconds": dict(sorted(self.theorem_seconds.items())),
            "errors": self.errors,
            "caches": caches,
        }

"""Spans and counts around calls into hstarkit's public functions.

The package is measured from outside: a wrapper replaces a function under
every name that holds it. hstarkit modules bind ``from``-imported names
locally (``theorem``, ``oracle``, ``verify`` and ``search`` hold their own
``enumerate_box_group``), so patching only the defining module would miss
most calls. A span records its duration and the time its child spans took;
self time is the difference.
"""
from __future__ import annotations

import sys
from time import perf_counter


class Tracer:
    """Per-function aggregates of the calls made while installed.

    ``stats[name]`` is ``[calls, total_s, child_s]``; spanned functions get
    all three, counted ones only ``calls``. ``counters`` holds values that
    observers compute from arguments and results.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._open: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def self_s(self, name: str) -> float:
        _, total, child = self.stats[name]
        return total - child

    def _span(self, name: str, fn, observe):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._open

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                st[0] += 1
                st[1] += elapsed
                st[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str, spans: dict, counts: tuple = ()) -> None:
        """Wrap ``module.function`` names of ``package``.

        ``spans`` maps each name to an observer ``(tracer, args, kwargs,
        result)`` or None; ``counts`` names functions whose calls are only
        counted. Every attribute of every loaded module of the package that
        is the original function object is replaced.
        """
        targets = {}
        for name, observe in spans.items():
            fn = _resolve(package, name)
            targets[id(fn)] = (fn, self._span(name, fn, observe))
        for name in counts:
            fn = _resolve(package, name)
            targets[id(fn)] = (fn, self._count(name, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def _resolve(package: str, name: str):
    module_name, _, func = name.rpartition(".")
    module = sys.modules[f"{package}.{module_name}"]
    return getattr(module, func)

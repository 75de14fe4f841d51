"""Per-layer tracer that wraps projcalc's functions from outside the package.

A layer is one ``projcalc`` module. Every public function and public method
defined in a layer is wrapped, plus the private callables in
``EXTRA_TARGETS``. The modules import each other's names with
``from .x import y``, so a wrapper replaces the original in *every*
namespace that binds it; patching only the defining module would miss the
calls between modules.

Memory stays bounded: each (layer, function) keeps one record of call count,
inclusive time and self time, and no span is stored. Self time is a span's
duration minus the time of the traced spans it directly contains.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

LAYERS = (
    "space",
    "decomposition",
    "projections",
    "derivatives",
    "coderivative",
    "oracle",
    "instances",
    "suites",
    "report",
    "cli",
)

# Private callables worth their own counters: point construction and
# arithmetic (the unit of work of every layer) and the oracle's per-direction
# random draw. A name a later change removes is reported as absent.
EXTRA_TARGETS = {
    "space": (
        "_Point.__init__",
        "_Point.__add__",
        "_Point.__sub__",
        "_Point.__neg__",
        "_Point.__mul__",
    ),
    "oracle": ("_random_direction",),
}


def _resolve(module, dotted: str):
    """The raw namespace entry for ``name`` or ``Class.name``, or None."""
    holder = module
    *outer, last = dotted.split(".")
    for part in outer:
        holder = vars(holder).get(part)
        if not isinstance(holder, type):
            return None
    return vars(holder).get(last)


def _is_callable_entry(obj) -> bool:
    return isinstance(obj, (types.FunctionType, classmethod, staticmethod))


def discover(modules: dict[str, types.ModuleType]) -> dict:
    """Map (layer, name) to the namespace entry to wrap.

    An entry of ``EXTRA_TARGETS`` that no longer exists is left out.
    """
    targets = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                targets[(layer, name)] = obj
            elif isinstance(obj, type):
                for attr, entry in vars(obj).items():
                    if not attr.startswith("_") and _is_callable_entry(entry):
                        targets[(layer, f"{name}.{attr}")] = entry
    for layer, names in EXTRA_TARGETS.items():
        for name in names:
            entry = _resolve(modules[layer], name)
            if _is_callable_entry(entry):
                targets[(layer, name)] = entry
    return targets


def namespaces() -> list:
    """Every projcalc module, plus every class those modules define."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name != "projcalc" and not name.startswith("projcalc."):
            continue
        out.append(mod)
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == name:
                out.append(obj)
    return out


class Rebinder:
    """Replaces namespace entries in every projcalc namespace and undoes it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, replacements: dict) -> None:
        """Rebind each ``original -> replacement`` pair wherever it is bound."""
        by_id = {id(orig): new for orig, new in replacements.items()}
        for ns in namespaces():
            for name, obj in list(vars(ns).items()):
                new = by_id.get(id(obj))
                if new is not None:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, new)

    def restore(self) -> None:
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()


class Tracer:
    """Aggregates calls, inclusive and self time per traced function.

    ``with tracer:`` installs the wrappers and removes them on exit; the
    totals accumulate across every traced region.
    """

    def __init__(self, modules: dict[str, types.ModuleType]):
        self._targets = discover(modules)
        self.stats: dict[tuple[str, str], list] = {}
        self._stack = [0.0]
        self._rebinder = Rebinder()
        # Oracle directions, counted as radii x (random draws + probes) per
        # test_membership call; structured_probes reports its list length.
        self.directions = 0
        self._pending_probes = 0
        self._hooks = {
            ("oracle", "structured_probes"): self._on_probes,
            ("oracle", "test_membership"): self._on_membership,
        }
        self._wrapped = {
            entry: self._wrap_entry(key, entry) for key, entry in self._targets.items()
        }

    def __enter__(self):
        self._rebinder.replace(self._wrapped)
        return self

    def __exit__(self, *exc):
        self._rebinder.restore()
        return False

    def _wrap_entry(self, key, entry):
        if isinstance(entry, classmethod):
            return classmethod(self._wrap(key, entry.__func__))
        if isinstance(entry, staticmethod):
            return staticmethod(self._wrap(key, entry.__func__))
        return self._wrap(key, entry)

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        return traced

    def _on_probes(self, fn, args, kwargs, result):
        self._pending_probes = len(result)

    def _on_membership(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        cfg = bound.arguments.get("cfg")
        if cfg is not None:
            self.directions += len(cfg.radii) * (
                cfg.directions_per_radius + self._pending_probes
            )
        self._pending_probes = 0

    def has(self, layer: str, name: str) -> bool:
        return (layer, name) in self._targets

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for (lay, _), s in self.stats.items() if lay == layer)

    def totals(self, layer: str, names) -> tuple[int, float, float]:
        """Summed (calls, inclusive s, self s) over the named functions."""
        calls = incl = self_s = 0
        for name in names:
            s = self.stats.get((layer, name), (0, 0.0, 0.0))
            calls += s[0]
            incl += s[1]
            self_s += s[2]
        return calls, incl, self_s

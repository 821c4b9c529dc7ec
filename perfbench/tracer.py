"""Out-of-program tracing: wrap every public ``harvestsim`` function from outside.

The tracer patches, at every namespace that binds it, each public function of
the ``harvestsim`` modules and each public method of their classes. A
function imported into another module (``simcore.withdraw`` is
``energy.withdraw``) is wrapped under both names but recorded under the
module that defines it. Spans (name, start, end, parent) are kept in flat
arrays in memory; self times and per-name aggregates are derived from them
once the traced work is over. Leaving the ``with`` block puts every original
back, and :meth:`Tracer.leaks` proves it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import types
from array import array

_ROOT = -1


def program_modules(package) -> list:
    """Every public submodule of ``package``, imported."""
    return [
        importlib.import_module(f"{package.__name__}.{m.name}")
        for m in pkgutil.iter_modules(package.__path__)
        if not m.name.startswith("_")
    ]


def _defining_module(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _bindings(modules):
    """Every (owner, attribute, function, span name) that the tracer patches."""
    out = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("harvestsim"):
                out.append((mod, attr, obj, f"{_defining_module(obj)}.{obj.__name__}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for m_attr, m_obj in vars(obj).items():
                    if m_attr.startswith("_") or not isinstance(m_obj, types.FunctionType):
                        continue
                    out.append((obj, m_attr, m_obj, f"{_defining_module(obj)}.{obj.__name__}.{m_attr}"))
    return out


def snapshot(modules) -> dict:
    """Identity map of every module and class attribute the tracer may touch."""
    snap = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for m_attr, m_obj in vars(obj).items():
                    snap[(f"{mod.__name__}.{obj.__name__}", m_attr)] = m_obj
    return snap


class Tracer:
    """Records one span per call of a wrapped function.

    ``observers`` maps a span name to ``fn(args, kwargs, result, exc, counts)``,
    which updates the ``counts`` dict with outcome counters (refusals,
    failures, forwards) that the span itself cannot show.
    """

    def __init__(self, modules, observers=None):
        self.modules = list(modules)
        self.observers = observers or {}
        self.names: list[str] = []
        self.counts: dict[str, float] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [_ROOT]
        self._patched: list[tuple[object, str, object]] = []
        self._before: dict | None = None

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        observe = self.observers.get(name)
        stack, counts = self._stack, self.counts
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, exc, counts)

        return wrapper

    def __enter__(self) -> "Tracer":
        self._before = snapshot(self.modules)
        wrappers: dict[int, object] = {}
        for owner, attr, fn, name in _bindings(self.modules):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def leaks(self) -> list[str]:
        """Attributes that differ from their value before tracing began."""
        before, after = self._before or {}, snapshot(self.modules)
        return sorted(
            f"{owner}.{attr}"
            for owner, attr in set(before) | set(after)
            if after.get((owner, attr)) is not before.get((owner, attr))
        )

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p != _ROOT:
                child[p] += ends[i] - starts[i]
        agg: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            a = agg.get(name)
            if a is None:
                a = agg[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            d = ends[i] - starts[i]
            a["calls"] += 1
            a["total_s"] += d
            a["self_s"] += d - child[i]
        return agg

    def durations(self, name: str) -> list[float]:
        """Duration of every span recorded under ``name``."""
        ids = {i for i, n in enumerate(self.names) if n == name}
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_name[i] in ids
        ]

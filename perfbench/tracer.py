"""Span tracer that measures the simulator's layers from outside.

The tracer never edits the program.  :func:`install` walks every module
of the measured layers and replaces each function and method defined
there with a wrapper that records a span: its component name, its
duration and the component of the enclosing span.  Methods are patched
on their class (attribute lookup happens at call time); module functions
are patched in every ``repro`` module that binds them, because
``from x import f`` copies the reference into the importing module.
:meth:`Patches.remove` puts every original object back.

A span's self time is its duration minus the durations of the wrapped
spans it encloses.  Spans are aggregated in memory per ``(component,
parent component)`` pair, so memory stays bounded however long the run.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import pkgutil
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: Packages of ``src/repro`` measured as layers.  ``baselines`` (the
#: apache/nginx/moxi cost models) runs only in the figure sweeps, never
#: in a benchmark workload, so it is left unwrapped.
LAYERS = (
    "sim",
    "net",
    "grammar",
    "lang",
    "runtime",
    "workloads",
    "cluster",
    "core",
    "apps",
    "bench",
)

#: Modules reported on their own line inside their layer.
SUBCOMPONENT_MODULES = {
    "repro.runtime.scheduler": "runtime.scheduler",
    "repro.runtime.task": "runtime.task",
    "repro.runtime.channel": "runtime.channel",
}

#: Single functions reported on their own line inside their layer.
SUBCOMPONENT_FUNCTIONS = {("repro.core.ids", "stable_hash"): "core.stable_hash"}

#: Dunder methods worth a span; the rest (``__eq__``, ``__hash__``,
#: ``__repr__``...) are too small to time and stay with their caller.
_DUNDERS_WRAPPED = frozenset({"__init__", "__call__"})

ROOT = "<root>"

#: ``hook(tracer, args, kwargs, result)``, run after the span closes.
Hook = Callable[["Tracer", tuple, dict, object], None]


def layer_of(component: str) -> str:
    """The layer a component name belongs to (``runtime.task`` -> ``runtime``)."""
    return component.split(".", 1)[0]


def component_of(module: str, name: str) -> Optional[str]:
    """Component name for function ``name`` defined in ``module``, or None
    when the module is not in a measured layer."""
    special = SUBCOMPONENT_FUNCTIONS.get((module, name))
    if special is not None:
        return special
    if module in SUBCOMPONENT_MODULES:
        return SUBCOMPONENT_MODULES[module]
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro" or parts[1] not in LAYERS:
        return None
    return parts[1]


class Tracer:
    """Span stack plus in-memory aggregates.

    ``spans[(component, parent)] = [calls, total_s, self_s]``.
    ``counts`` and ``inclusive`` are filled by hooks.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.inclusive: Dict[str, float] = {}
        # Frames are [component, child_time]; the root frame collects the
        # time of every top-level span.
        self._stack: List[list] = [[ROOT, 0.0]]

    # -- spans -----------------------------------------------------------

    def _close(self, frame: list, parent: list, dt: float) -> None:
        parent[1] += dt
        key = (frame[0], parent[0])
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [1, dt, dt - frame[1]]
        else:
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

    def wrap(
        self,
        component: str,
        fn: Callable,
        hook: Optional[Hook] = None,
        inclusive: Optional[str] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span named ``component``."""
        stack = self._stack
        clock = self.clock
        close = self._close
        tracer = self
        acc = self.inclusive

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [component, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(frame, parent, dt)
                if inclusive is not None:
                    acc[inclusive] = acc.get(inclusive, 0.0) + dt
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return _dress(traced, fn)

    def wrap_generator(self, component: str, fn: Callable) -> Callable:
        """Wrap a generator function: every resumption is one span."""
        stack = self._stack
        clock = self.clock
        close = self._close

        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value = None
            error: Optional[BaseException] = None
            while True:
                parent = stack[-1]
                frame = [component, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    if error is not None:
                        pending, error = error, None
                        item = gen.throw(pending)
                    else:
                        item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = clock() - t0
                    stack.pop()
                    close(frame, parent, dt)
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into ``gen``
                    error = exc
                    value = None

        return _dress(traced_gen, fn)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @property
    def attributed_s(self) -> float:
        """Time spent inside top-level spans."""
        return self._stack[0][1]

    # -- summaries --------------------------------------------------------------

    def self_by_component(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (component, _parent), rec in self.spans.items():
            out[component] = out.get(component, 0.0) + rec[2]
        return out

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for component, self_s in self.self_by_component().items():
            out[layer_of(component)] += self_s
        return out


def _dress(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__module__ = fn.__module__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


class Patches:
    """Attribute replacements, and clean-ups, that can all be undone."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []
        self._cleanups: List[Callable[[], None]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def on_remove(self, cleanup: Callable[[], None]) -> None:
        self._cleanups.append(cleanup)

    def remove(self) -> None:
        while self._cleanups:
            self._cleanups.pop()()
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def repro_modules() -> List[types.ModuleType]:
    """Import and return every module of the ``repro`` package."""
    import repro

    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # running it would start the CLI
        mods.append(importlib.import_module(info.name))
    return mods


def _targets(mods):
    """Yield ``(owner, attr, function, component, kind)`` for everything
    the tracer wraps.  ``kind`` is ``"func"``, ``"static"``, ``"class"``
    or ``"method"``; module functions are yielded with ``owner=None``."""
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere
            component = component_of(mod.__name__, name)
            if component is None:
                continue
            if isinstance(obj, types.FunctionType):
                yield None, name, obj, component, "func"
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("__") and attr not in _DUNDERS_WRAPPED:
                        continue
                    if isinstance(raw, staticmethod):
                        kind, fn = "static", raw.__func__
                    elif isinstance(raw, classmethod):
                        kind, fn = "class", raw.__func__
                    elif isinstance(raw, types.FunctionType):
                        kind, fn = "method", raw
                    else:
                        continue  # properties, constants, nested classes
                    if fn.__module__ == mod.__name__:
                        yield obj, attr, fn, component, kind


def _lookup(table: Dict[str, object], key: str, unmatched: set):
    for pattern, value in table.items():
        if fnmatch.fnmatchcase(key, pattern):
            unmatched.discard(pattern)
            return value
    return None


def install(
    tracer: Tracer,
    hooks: Optional[Dict[str, Hook]] = None,
    inclusive: Optional[Dict[str, str]] = None,
) -> Patches:
    """Wrap every function and method of the measured layers.

    ``hooks`` and ``inclusive`` are keyed by ``"module:qualname"``
    patterns: a hook runs after each call of a matching function, and an
    inclusive key sums the matching functions' whole durations under that
    name.  A pattern that matches nothing raises :class:`LookupError`.
    """
    hooks = hooks or {}
    inclusive = inclusive or {}
    unmatched = set(hooks) | set(inclusive)
    mods = repro_modules()
    patches = Patches()
    replaced: Dict[int, Callable] = {}
    for owner, attr, fn, component, kind in list(_targets(mods)):
        key = f"{fn.__module__}:{fn.__qualname__}"
        hook = _lookup(hooks, key, unmatched)
        total = _lookup(inclusive, key, unmatched)
        if inspect.isgeneratorfunction(fn):
            if hook is not None or total is not None:
                raise TypeError(f"{key} is a generator: no hook or total")
            wrapped = tracer.wrap_generator(component, fn)
        else:
            wrapped = tracer.wrap(component, fn, hook, total)
        if owner is None:
            replaced[id(fn)] = wrapped
        elif kind == "static":
            patches.set(owner, attr, staticmethod(wrapped))
        elif kind == "class":
            patches.set(owner, attr, classmethod(wrapped))
        else:
            patches.set(owner, attr, wrapped)
    if unmatched:
        patches.remove()
        raise LookupError(f"no function matches {sorted(unmatched)}")
    # A module function is rebound wherever a module holds a reference.
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                patches.set(mod, name, replaced[id(obj)])
    return patches

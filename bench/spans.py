"""Spans around calls into the cyclebetti layers, recorded from outside the package.

A span is opened for every call that crosses a layer boundary:

* calls the benchmark makes, through the proxies in `Tracer.api`;
* calls `cli` and `verify` make into another module, through proxies put in
  place of their imported names;
* every MonomialIdeal constructor and operator, wherever it is called;
* every named suite that `verify.run_suite` runs.

Work a layer does through its own imports (the recursion's leaf formulas,
the families' monomial helpers) counts as that layer's own time.  Nothing
inside a recursion is wrapped, so tracing adds no stack depth there.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
import types
from collections import Counter, defaultdict

CALLERS = ("cli", "verify")
IDEAL_METHODS = ("__init__", "__mul__", "__pow__", "__add__", "__and__", "embed")


class Tracer:
    """Installs span wrappers while active and keeps spans of the current pass."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.names: list[str] = []
        self.oracle_calls: dict = {}
        self._undo: list = []
        self._stack: list = []
        self.api = types.SimpleNamespace(**{
            name: self._proxy(module) for name, module in modules.items()})
        self.reset()

    def reset(self):
        """Start a new pass: drop spans, self times and counters."""
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = -1
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, after=None):
        key = len(self.names)
        self.names.append(f"{layer}.{name}")
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, clock()]
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_s[layer] += duration - frame[1]
                self.total_s[self.names[key]] += duration
                if stack:
                    stack[-1][1] += duration
                self.counts[f"{layer}.calls"] += 1
                if failed:
                    self.counts[f"{layer}.errors"] += 1
                self.spans.append((span_id, key, frame[2], end, parent, self.op, failed))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _proxy(self, module):
        """A stand-in module whose public functions open spans."""
        layer = module.__name__.rsplit(".", 1)[-1]
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(module.__dict__)
        for name, value in module.__dict__.items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_")):
                after = self._after_graded_betti if name == "graded_betti" else None
                proxy.__dict__[name] = self.wrap(layer, name, value, after)
        return proxy

    def _after_graded_betti(self, args, kwargs, table):
        bound = self._betti_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (bound.arguments["ideal"], bound.arguments["p"])
        self.oracle_calls.setdefault(key, table)

    def _after_ideal_op(self, op):
        ideal_type = self.modules["monomials"].MonomialIdeal

        def count(args, kwargs, result):
            if result is NotImplemented:
                return
            left, right = args
            if op == "__add__":
                candidates = len(left) + len(right)
            elif isinstance(right, ideal_type):
                candidates = len(left) * len(right)
            else:
                candidates = len(left)
            self.counts["monomials.candidates"] += candidates
            self.counts["monomials.gens_out"] += len(result)
        return count

    def _patch(self, owner, name, value):
        """Replace a dict entry or an attribute, remembering the old value."""
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def __enter__(self):
        self._betti_signature = inspect.signature(self.modules["oracle"].graded_betti)
        proxies = {m.__name__: getattr(self.api, layer) for layer, m in self.modules.items()}
        for caller in CALLERS:
            namespace = self.modules[caller].__dict__
            for name, value in list(namespace.items()):
                if isinstance(value, types.ModuleType) and value.__name__ in proxies:
                    if value is not self.modules[caller]:
                        self._patch(namespace, name, proxies[value.__name__])
                elif (inspect.isfunction(value) and value.__module__ in proxies
                      and value.__module__ != self.modules[caller].__name__
                      and not name.startswith("_")):
                    self._patch(namespace, name,
                                getattr(proxies[value.__module__], value.__name__))
        ideal_type = self.modules["monomials"].MonomialIdeal
        for name in IDEAL_METHODS:
            counted = name in ("__mul__", "__add__", "__and__")
            after = self._after_ideal_op(name) if counted else None
            self._patch(ideal_type, name,
                        self.wrap("monomials", f"MonomialIdeal.{name}",
                                  ideal_type.__dict__[name], after))
        suites = self.modules["verify"].SUITES
        for name, fn in list(suites.items()):
            self._patch(suites, name, self.wrap("verify", f"suite.{name}", fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        return False

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Spans of the current pass as JSON lines: a header, then one span per line."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                                "op", "failed"]}) + "\n")
            for span_id, key, start, end, parent, op, failed in self.spans:
                handle.write(json.dumps([span_id, self.names[key], start, end,
                                         parent, op, failed]) + "\n")

"""Layer tracer: time calls into a package's public functions from outside it.

A traced function is replaced at every module attribute bound to it, because
modules import functions by name (``from .link import transmit_symbols``) and
patching only the defining module would miss those callers. Each wrapper
records a span; a function's self time is its span minus the spans of the
traced calls made inside it. Every patched attribute is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    """Context manager that wraps ``module.function`` names of one package.

    names      -- functions to trace, as "module.function" relative to package
    counters   -- optional {name: fn(counts, args, kwargs, result)} hooks that
                  add work counts to ``self.counts`` after each call
    keep_spans -- names whose per-call durations are kept in ``self.spans``
    clock      -- time source in seconds (tests pass a fake one)

    After the block, ``stats[name] == [calls, self_seconds]`` for every
    function found, and ``absent`` lists the names the package no longer has.
    Entering the same tracer again adds to the figures it holds.
    """

    def __init__(self, names, package="semlink", counters=None, keep_spans=(), clock=time.perf_counter):
        self.names = tuple(names)
        self.package = package
        self.counters = dict(counters or {})
        self.keep = set(keep_spans)
        self.clock = clock
        self.stats = {}
        self.counts = {}
        self.spans = {name: [] for name in self.keep}
        self.absent = []
        self._stack = []  # child-span seconds accumulated per open span
        self._patches = []  # (module, attribute, original)

    def __enter__(self):
        try:
            for name in self.names:
                original = self._resolve(name)
                if original is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                self.stats.setdefault(name, [0, 0.0])
                wrapper = self._wrap(name, original)
                for module, attr in self._bindings(original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _resolve(self, name):
        module_name, _, func = name.rpartition(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None
        value = getattr(module, func, None)
        return value if callable(value) else None

    def _bindings(self, original):
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = self.clock
        count = self.counters.get(name)
        spans = self.spans.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if spans is not None:
                    spans.append(elapsed)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

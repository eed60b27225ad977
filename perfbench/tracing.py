"""Per-layer tracing of levelseg from outside its source.

`Tracer.wrap` replaces a public function, in every loaded levelseg module
that holds it, by a wrapper that records a span: its inclusive time, its
self time (minus the spans opened inside it) and its call count.  An
optional hook runs after the call to take counts from the arguments and
result; its cost is kept out of every span, so it shows only in the traced
run's wall time, next to the wrappers' own cost.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module


class Tracer:
    def __init__(self):
        self.enabled = True
        self._stack = []       # time spent in child spans, per open span
        self.reset()

    def reset(self):
        """Start a new tally; call it with no span open."""
        self.hook_s = 0.0      # time spent in hooks, excluded from spans
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    @contextmanager
    def paused(self):
        """Calls made inside the block (output checks) are not recorded."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, module_name, func_name, hook=None):
        """Trace `module_name.func_name` under the span name
        '<module>.<function>', with the package prefix dropped."""
        original = getattr(import_module(module_name), func_name)
        span = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            self._stack.append(0.0)
            hooks_before = self.hook_s
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start - (self.hook_s - hooks_before)
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.inclusive[span] += elapsed
                self.self_time[span] += elapsed - children
                self.calls[span] += 1
            if hook is not None:
                hook_start = time.perf_counter()
                hook(self.counts, args, kwargs, result)
                self.hook_s += time.perf_counter() - hook_start
            return result

        for name, module in list(sys.modules.items()):
            if name == "levelseg" or name.startswith("levelseg."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

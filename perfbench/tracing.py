"""Layer tracing from outside the program.

The tracer replaces every public function of the cdc5 layer modules, at
every cdc5 module that holds a reference to it, with a wrapper that records
a span: (function, calling module, start, end, busy time, parent span,
request id).  Patching each importing module separately is what lets the
spans tell callers apart, e.g. has_nz4flow reached through cdc5.search
versus cdc5.certificates.  Only attributes of the benchmark's own process
are patched; no file of the program changes.

A span's self time is its busy time minus the busy time of its child spans.
Calls are strictly nested on one thread, so children never overlap.  For a
generator function the busy time is the time spent inside next(), wherever
the consumer drives it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "cyclespace", "flows", "cover", "search", "certificates", "cli")
# Methods traced besides module functions: (module, class, method).
METHODS = (("search", "FlowCache", "minus"),)

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.spans: list = []
        self._stack: list[int] = []
        self._names: dict[tuple[str, str], int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions at every loaded cdc5 module."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"cdc5.{layer}"]
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    targets[fn] = f"{layer}.{name}"
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("cdc5."):
                continue
            caller = modname.split(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._patch(mod, attr, self._wrap(value, targets[value], caller))
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"cdc5.{layer}"], cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}", layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _key(self, name: str, caller: str) -> int:
        return self._names.setdefault((name, caller), len(self._names))

    def _wrap(self, fn, name: str, caller: str):
        key = self._key(name, caller)
        spans = self.spans
        stack = self._stack
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    return inner
                return tracer._traced_iter(inner, key)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (key, start, end, end - start, parent, tracer.request)

        return wrapper

    def _traced_iter(self, inner, key: int):
        spans = self.spans
        stack = self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        request = self.request
        busy = 0
        first = last = _now()
        try:
            while True:
                stack.append(idx)
                t0 = _now()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    last = _now()
                    stack.pop()
                    busy += last - t0
                yield item
        finally:
            spans[idx] = (key, first, last, busy, parent, request)

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> dict:
        """Per function: calls, calls by calling module, calls of each child
        function and self seconds; plus the total self time of all spans."""
        names = {v: k for k, v in self._names.items()}
        # A generator that is never closed leaves its slot empty.
        spans = [s or (0, 0, 0, 0, -1, -1) for s in self.spans]
        child_busy = [0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child_busy[span[4]] += span[3]
        calls: Counter = Counter()
        by_caller: Counter = Counter()
        self_ns: Counter = Counter()
        child_calls: dict[str, Counter] = defaultdict(Counter)
        for i, (key, _start, _end, busy, parent, _req) in enumerate(spans):
            if self.spans[i] is None:
                continue
            name, caller = names[key]
            calls[name] += 1
            by_caller[name, caller] += 1
            self_ns[name] += busy - child_busy[i]
            if parent >= 0:
                child_calls[names[spans[parent][0]][0]][name] += 1
        return {
            "calls": calls,
            "by_caller": by_caller,
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "child_calls": child_calls,
        }

    def write(self, path: str) -> None:
        """Spans as gzip'd JSON lines, one
        [name, caller, start_ns, end_ns, busy_ns, parent, request] per span;
        parent is the line number (from 0) of the parent span, or -1."""
        names = {v: k for k, v in self._names.items()}
        t0 = min((s[1] for s in self.spans if s), default=0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                if span is None:
                    out.write("null\n")
                    continue
                key, start, end, busy, parent, req = span
                name, caller = names[key]
                out.write(json.dumps([name, caller, start - t0, end - t0, busy, parent, req]))
                out.write("\n")

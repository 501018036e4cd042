"""In-memory spans and counters around the program's public functions.

Tracer.install wraps names that circlelens.__all__ exports, and methods of
exported classes, by rebinding them in every circlelens module that holds
them, so calls made inside the package are seen too.  A name the package no
longer exports is skipped and its metrics read 0.

Span wrappers record [id, name, start, end, parent] for each call.  Counter
wrappers are for hot functions: they count calls and time only the outermost
call of a recursion, and record no span.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# exported function -> span name
SPANS = {
    "parse_scene": "sceneio.parse",
    "enumerate_lenses": "pencils.enumerate",
    "select_family": "families.select",
    "lens_cutting": "families.cut",
    "verify_cut": "families.verify",
    "coplanarity_audit": "dual.audit",
    "order_reversal_check": "slopes.order",
    "szekely_stats": "incidence.szekely",
}

# exported function or Class.method -> counter name
COUNTERS = {
    "lenses_overlap": "families.overlap",
    "lines_coplanar": "dual.coplanar",
    "Rad.sign": "radicals.sign",
    "QuadNum.compare": "quadfield.compare",
}


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}

    def _span(self, name, fn):
        spans, stack, t0 = self.spans, self.stack, self.t0

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([sid, name, perf_counter() - t0, None,
                          stack[-1] if stack else None])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = perf_counter() - t0
        return wrapper

    def _counter(self, name, fn):
        calls, busy = self.calls, self.busy
        calls[name], busy[name] = 0, 0.0
        inside = [False]

        def wrapper(*args, **kwargs):
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += perf_counter() - start
                calls[name] += 1
                inside[0] = False
        return wrapper

    def install(self, package) -> None:
        """Wrap every traced name the package exports."""
        exported = set(getattr(package, "__all__", ()))
        targets = [(t, m, self._span) for t, m in SPANS.items()]
        targets += [(t, m, self._counter) for t, m in COUNTERS.items()]
        for target, metric, make in targets:
            owner_name, _, method = target.partition(".")
            owner = getattr(package, owner_name, None) \
                if owner_name in exported else None
            if owner is None:
                continue
            if method:
                orig = vars(owner).get(method)
                if orig is None:
                    continue
                setattr(owner, method, make(metric, orig))
            else:
                _rebind(package, owner, make(metric, owner))

    def self_times(self) -> dict[str, float]:
        """Per span name: total span time minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "calls": self.calls,
                       "busy_s": self.busy, **(extra or {})}, fh)


def _rebind(package, orig, wrapped):
    prefix = package.__name__ + "."
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if mod is package or name.startswith(prefix):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)

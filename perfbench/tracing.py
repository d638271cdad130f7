"""Spans recorded around calls into factorbn, from outside the package.

The benchmark does not change the package to trace it.  Instead,
``Tracer.install`` rebinds each named public function, in every loaded
``factorbn`` module that refers to it, to a wrapper that records a
span.  Calls the package makes internally (``solve_mbh`` calling
``verify_factorization``) therefore get spans too, nested under their
caller.  ``uninstall`` puts the original functions back.

Spans stay in memory as ``(name, start, end, parent, group)`` rows and
are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.group: str | None = None  # shared by the spans of one operation
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), None, parent, self.group]
        self.spans.append(row)
        self._stack.append(idx)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, label):
        @wraps(fn)
        def traced(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            with self.span(full):
                return fn(*args, **kwargs)

        return traced

    def install(self, targets) -> None:
        """Trace each ``(module, attribute, span name, label)`` target.

        ``label``, when not None, maps the call's ``(args, kwargs)`` to a
        suffix of the span name, such as the transform method.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "factorbn" or n.startswith("factorbn."))
        ]
        for module_name, attr, name, label in targets:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, label)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name.  Self time is a span's
        duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path) -> None:
        fields = ["name", "start", "end", "parent", "group"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")

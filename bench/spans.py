"""In-memory span tracer that wraps coinwalk's public functions from outside.

Each layer is named `<module>.<function>` (or `<module>.<Class>.<method>`)
after the module under `src/coinwalk/` that defines it. Installing the
tracer replaces the function wherever it is looked up: in its defining
module and in every other coinwalk module that imported it by name, e.g.
`coinwalk.evolution.apply_kraus`. Methods are replaced on their class.
A layer the package no longer defines is skipped and reported as missing,
so the benchmark keeps running when a later change removes a function.

Spans are kept in a list while the program runs and written out at the
end. A span's self time is its duration minus the durations of the spans
it directly caused; calls are single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

PACKAGE = "coinwalk"


class Tracer:
    """Records one span per call of a wrapped layer."""

    def __init__(self) -> None:
        # [layer, start, end, parent span index or -1, invocation id]
        self.spans: list[list] = []
        self.invocation = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self, layers: list[str]) -> None:
        """Wrap every named layer; undo with uninstall()."""
        self.missing = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in layers:
            module_name, _, attr = layer.partition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(layer)
                continue
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(module, class_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.missing.append(layer)
                    continue
                self._patch(cls, method, original, self._wrap(layer, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def per_invocation(self) -> dict[int, dict[str, list[float]]]:
        """{invocation: {layer: [self seconds, calls]}} from the recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _inv in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list[float]]] = {}
        for i, (layer, start, end, _parent, inv) in enumerate(self.spans):
            entry = out.setdefault(inv, {}).setdefault(layer, [0.0, 0])
            entry[0] += (end - start) - child[i]
            entry[1] += 1
        return out

    def layer_metrics(self, layers: list[str]) -> dict[str, float]:
        """Median over invocations of each layer's self time and call count."""
        table = self.per_invocation()
        metrics: dict[str, float] = {}
        for layer in layers:
            rows = [table[inv].get(layer, [0.0, 0]) for inv in sorted(table)]
            metrics[f"{layer}.self_s"] = statistics.median(r[0] for r in rows)
            metrics[f"{layer}.calls"] = statistics.median(r[1] for r in rows)
        return metrics

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["layer", "start_s", "end_s", "parent", "invocation"],
            "missing_layers": self.missing,
            "spans": [[layer, start - origin, end - origin, parent, inv]
                      for layer, start, end, parent, inv in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

"""In-memory spans around the public functions of the wignerpf modules.

``from .x import f`` copies a binding, so a call resolves through whichever
module it is written in: ``generalized_pfaffian`` reaches ``det_lu`` through
``generalized.det_lu`` and ``wigner_normal_form`` through
``normal_form.det_lu``.  :class:`Tracer` therefore wraps each public function
of a layer once and installs that wrapper under every attribute of every
package module that holds the original.  Leaving the ``with`` block puts
every original back, so untraced runs never see a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "wignerpf"
#: Modules of the package, each one layer; spans are named ``layer.function``.
LAYERS = ("linalg", "normal_form", "pfaffian", "generalized", "io", "cli", "ensembles")


class Tracer:
    """Records one span per call of a wrapped function while installed.

    A span is ``[name, start, end, parent, op, raised]``: ``parent`` indexes
    the enclosing span (-1 at the top), ``op`` is whatever :attr:`op` held
    when the call began, and ``raised`` says an exception left the call.
    """

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def totals(self, scale) -> dict[str, list]:
        """``{name: [calls, self seconds, errors]}`` over spans with op >= 0.

        Self time is the span's duration minus the durations of its direct
        children (calls within one thread nest, so children never overlap),
        multiplied by ``scale[op]``.
        """
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for (name, _, _, _, op, raised), self_s in zip(self.spans, own):
            if op >= 0:
                entry = totals[name]
                entry[0] += 1
                entry[1] += self_s * scale[op]
                entry[2] += int(raised)
        return dict(totals)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, raised in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "op": op,
                    "raised": raised,
                }
                handle.write(json.dumps(record) + "\n")

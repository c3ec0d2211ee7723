"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent span, item id); spans are kept in
flat arrays while the workload runs and written out as JSON lines once
it has finished.  Spans are recorded only on the benchmark's side of a
call, so a library function that calls another appears as one span.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from importlib import import_module
from types import SimpleNamespace

# Every library function a workload calls, under its layer (module) name.
LAYERS = {
    "matrix": ("validate_asm", "matrix_from_json", "matrix_to_json", "matrix_from_text",
               "classical_params"),
    "cells": ("charges",),
    "discharge": ("discharge", "recharge"),
    "neutral": ("neutralize", "restore", "swap_charges"),
    "inv_table": ("gen_table", "pair_from_table", "dual_table"),
    "paths": ("config_from_pair", "config_params", "dual_config", "pair_from_config",
              "render_svg", "render_ascii"),
    "enumeration": ("distribution",),
    "verify": ("verify_suite",),
    "cli": ("main",),
}


class Tracer:
    """Collects spans; ``item`` tags every span opened while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item_id = array("q")
        self._open: list[int] = []
        self.item = -1

    def __len__(self) -> int:
        return len(self.start)

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.item_id.append(self.item)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)

        return traced

    def durations(self, since: int = 0) -> dict[str, list[tuple[int, int]]]:
        """Span name -> [(item id, duration in ns)] for the spans recorded
        from index ``since`` on, in recording order."""
        out: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for idx in range(since, len(self.start)):
            name = self.names[self.name_id[idx]]
            out[name].append((self.item_id[idx], self.end[idx] - self.start[idx]))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx in range(len(self.start)):
                fh.write(json.dumps({
                    "id": idx,
                    "name": self.names[self.name_id[idx]],
                    "start_ns": self.start[idx],
                    "end_ns": self.end[idx],
                    "parent": self.parent[idx],
                    "item": self.item_id[idx],
                }) + "\n")


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library functions the workloads call, by bare name, plus
    ``span(name)`` for the workload's own phases.

    With a tracer each call records a span named ``<layer>.<function>``;
    without one the attributes are the library functions themselves and
    ``span`` does nothing.
    """
    fns = {}
    for layer, names in LAYERS.items():
        for name in names:
            # by module path: the package's `discharge` attribute is the function
            fn = getattr(import_module(f"asmc.{layer}"), name)
            fns[name] = tracer.wrap(f"{layer}.{name}", fn) if tracer is not None else fn
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    return SimpleNamespace(tracer=tracer, span=span, **fns)

"""Traced runs: per-layer call counts, self time and a sampled span log.

The harness wraps the program's public functions from outside, so the
program itself carries no tracing code:

- for every public class a layer module defines, each public plain function
  in the class's own ``__dict__`` is replaced by a timing wrapper.
  Inherited methods are left alone: the engine decides whether an
  entity probes every action or advances with time by comparing
  ``type(entity).accepts``/``.advance`` against ``Entity``'s, and
  wrapping an inherited method on a subclass would flip that decision;
- module-level functions are patched in every module that looks them
  up (``repro.live.node`` binds its own ``encode_frame``), not only
  where they are defined.

Each wrapper keeps a call count and the function's *self* time (its
duration minus that of wrapped calls made inside it), and appends a span
``(name, start, end, parent span, tag)`` for calls made while the tag
(step or operation id) is a multiple of ``sample_every``. Everything
stays in memory until :meth:`LayerTrace.write`.

Self times include part of each wrapped child's wrapper cost, so they
overstate a layer by roughly one wrapper call per child; the traced
run's wall time over the untraced run's (``trace.overhead_ratio``)
bounds how much.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MAX_SPANS = 50_000  # the span log stops growing here

# layer name -> modules whose classes' own public methods are wrapped
SIM_LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.sim.engine",),
    "clock_node": ("repro.core.clock_transform",),
    "clock_driver": ("repro.sim.clock_drivers",),
    "buffers": ("repro.core.buffers",),
    "channel": ("repro.network.channel",),
    "registers": (
        "repro.registers.algorithm_s",
        "repro.registers.algorithm_l",
        "repro.registers.workload",
    ),
    "scheduler": ("repro.sim.scheduler",),
    "recorder": ("repro.sim.recorder",),
    "obs": ("repro.obs.metrics", "repro.obs.sketch"),
    # Entity.accepts lives here; counted for engine.accepts_per_output
    "components": ("repro.components.base",),
}
CHECK_LAYERS: Dict[str, Tuple[str, ...]] = {
    "check": ("repro.traces.linearizability",),
}
LIVE_LAYERS: Dict[str, Tuple[str, ...]] = {
    "live_clock": ("repro.live.clock",),
}
CHECK_FUNCTIONS = ("extract_operations", "analyze_linearizability")
# the benchmark calls the checker through its module object, so patching
# the module is enough
CHECK_LOOKUPS = ("repro.traces.linearizability",)
WIRE_FUNCTIONS = ("encode_frame", "decode_frame")
# every module that looks the wire functions up by its own global name
WIRE_LOOKUPS = (
    "repro.live.wire",
    "repro.live.node",
    "repro.live.service",
    "repro.live.client",
)


class LayerTrace:
    """In-memory per-function counts, self times and sampled spans."""

    def __init__(
        self,
        tag_qualname: str,
        tag_when: Optional[Callable[[tuple], bool]] = None,
        sample_every: int = 64,
    ):
        # each call of ``tag_qualname`` (for which ``tag_when(args)``
        # holds) starts a new step/operation: the tag spans carry
        self.tag_qualname = tag_qualname
        self.tag_when = tag_when
        self.sample_every = sample_every
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.layer_of: Dict[str, str] = {}
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.tag = 0
        self._stack: List[List] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def _wrapper(self, qualname: str, fn: Callable) -> Callable:
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        tags = qualname == self.tag_qualname
        tag_when = self.tag_when

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tags and (tag_when is None or tag_when(args)):
                self.tag += 1
            self._next_id += 1
            span_id = self._next_id
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[qualname] += duration - frame[0]
                total_s[qualname] += duration
                calls[qualname] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if (
                    self.tag % self.sample_every == 0
                    and len(spans) < MAX_SPANS
                ):
                    spans.append((
                        span_id, qualname, start, end,
                        parent[1] if parent is not None else 0, self.tag,
                    ))

        return traced

    def _patch(self, owner: object, name: str, layer: str, qualname: str) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self.layer_of[qualname] = layer
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrapper(qualname, original))

    def wrap_layers(self, layers: Dict[str, Tuple[str, ...]]) -> None:
        """Wrap the own public methods of every class the modules define."""
        for layer, module_names in layers.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for cls in list(vars(module).values()):
                    if (
                        not isinstance(cls, type)
                        or cls.__module__ != module_name
                        or cls.__name__.startswith("_")
                    ):
                        continue
                    for name, value in list(vars(cls).items()):
                        # Simulator.__init__ too: engine.construct_ms
                        public = not name.startswith("_") or (
                            layer == "engine" and name == "__init__"
                        )
                        if public and isinstance(value, types.FunctionType):
                            self._patch(cls, name, layer, f"{cls.__name__}.{name}")

    def wrap_functions(
        self, layer: str, names: Tuple[str, ...], lookups: Tuple[str, ...]
    ) -> None:
        """Patch module-level functions wherever they are looked up."""
        for module_name in lookups:
            module = importlib.import_module(module_name)
            for name in names:
                if name in vars(module):
                    self._patch(module, name, layer, name)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading ---------------------------------------------------------

    def count(self, qualname: str) -> int:
        return self.calls.get(qualname, 0)

    def count_suffix(self, suffix: str, layer: Optional[str] = None) -> int:
        """Calls of every wrapped function named ``suffix`` (in a layer)."""
        return sum(
            n for q, n in self.calls.items()
            if q.rsplit(".", 1)[-1] == suffix
            and (layer is None or self.layer_of.get(q) == layer)
        )

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s for q, s in self.self_s.items() if self.layer_of.get(q) == layer
        )

    def function_self_s(self, qualname: str) -> float:
        return self.self_s.get(qualname, 0.0)

    def write(self, directory: str, stem: str, extra: dict) -> Tuple[str, str]:
        """Write the per-function table and the span log; returns paths."""
        os.makedirs(directory, exist_ok=True)
        table_path = os.path.join(directory, f"{stem}-layers.json")
        spans_path = os.path.join(directory, f"{stem}-spans.jsonl")
        table = {
            "functions": {
                q: {
                    "layer": self.layer_of.get(q),
                    "calls": self.calls[q],
                    "self_s": self.self_s[q],
                }
                for q in sorted(self.calls)
            },
            "spans_kept": len(self.spans),
            "sample_every": self.sample_every,
            **extra,
        }
        with open(table_path, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
        with open(spans_path, "w") as handle:
            for span_id, name, start, end, parent, tag in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "tag": tag,
                }) + "\n")
        return table_path, spans_path

"""Outside-in layer tracer: wraps public ``repro`` entry points per layer.

:class:`LayerTracer` replaces each target function with a timing wrapper
at class (or module) level, so every system built while it is installed
calls through the wrappers; :meth:`LayerTracer.uninstall` puts the
originals back.  Spans are aggregated per function, not kept one per
call: the traced bodies make millions of calls, and a record per call
would cost more than the work it measures.

A span's *self* time is its duration minus the durations of the spans
it called, so the self times of all layers add up to at most the traced
wall time; the rest is ``unattributed``.  Work done inline inside a
traced function counts for that function's layer even if it models
another layer (the miss-run kernel runs the memory model inside
``BatchReplayer.replay``, so that time counts as ``replay``).

The wrappers only read the host clock and update their own counters;
they never touch simulated state, so a traced pass must reproduce the
untraced stats digest exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: Layer names, in report order (named after the ``repro`` packages).
LAYERS = ("workloads", "replay", "arch", "mem", "gemos", "persist")

#: ``(layer, "module:Owner.attribute")`` or ``(layer, "module:function")``.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("workloads", "repro.workloads.traffic:ClientPopulation.generate"),
    ("replay", "repro.replay.batch:BatchReplayer.replay"),
    ("arch", "repro.arch.machine:Machine.access"),
    ("arch", "repro.arch.machine:Machine.miss_run_view"),
    ("arch", "repro.arch.cache:Cache.commit_run"),
    ("arch", "repro.arch.cache:Cache.touch_run"),
    ("arch", "repro.arch.tlb:Tlb.touch_run"),
    ("mem", "repro.arch.machine:Machine.bulk_lines"),
    ("mem", "repro.mem.controller:HybridMemoryController.read"),
    ("mem", "repro.mem.controller:HybridMemoryController.write"),
    ("mem", "repro.mem.controller:HybridMemoryController.read_run"),
    ("mem", "repro.mem.controller:HybridMemoryController.write_run"),
    ("mem", "repro.mem.controller:NvmWriteBuffer.commit_run"),
    ("mem", "repro.mem.physmem:PhysicalMemory.zero_page"),
    ("mem", "repro.mem.physmem:PhysicalMemory.copy_page"),
    ("gemos", "repro.gemos.kernel:Kernel.handle_page_fault"),
    ("gemos", "repro.gemos.kernel:Kernel.sys_mmap"),
    ("gemos", "repro.gemos.kernel:Kernel.sys_munmap"),
    ("gemos", "repro.gemos.kernel:Kernel.switch_to"),
    ("gemos", "repro.gemos.pagetable:PageTable.hw_walk"),
    ("gemos", "repro.gemos.scheduler:TimestampScheduler.dispatch"),
    ("persist", "repro.persist.checkpoint:PersistenceManager.checkpoint_process"),
    ("persist", "repro.persist.reclaim:EpochFrameReclaimer.release_page"),
    ("persist", "repro.persist.reclaim:EpochFrameReclaimer.on_commit"),
    ("persist", "repro.platform:recover"),
)

#: Caller layer recorded for spans entered from the benchmark itself.
TOP = "bench"


class LayerTracer:
    """Per-function span aggregation over :data:`TARGETS`."""

    def __init__(self) -> None:
        #: target -> [calls, self seconds, inclusive seconds]
        self.functions: Dict[str, List[float]] = {
            target: [0, 0.0, 0.0] for _layer, target in TARGETS
        }
        #: (caller layer, callee layer) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        self._stack: List[List] = []
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, target in TARGETS:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, target, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, target: str, fn: Callable) -> Callable:
        record = self.functions[target]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            edge = (stack[-1][0] if stack else TOP, layer)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[1]
                record[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return span

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """``layer -> (self seconds, calls)`` for every layer."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for layer, target in TARGETS:
            calls, self_s, _inclusive = self.functions[target]
            totals[layer][0] += self_s
            totals[layer][1] += calls
        return {layer: (s, int(c)) for layer, (s, c) in totals.items()}

    def inclusive_s(self, target: str) -> float:
        return self.functions[target][2]

    def to_json(self) -> Dict[str, object]:
        layer_of = {target: layer for layer, target in TARGETS}
        return {
            "functions": [
                {
                    "target": target,
                    "layer": layer_of[target],
                    "calls": int(calls),
                    "self_s": self_s,
                    "inclusive_s": inclusive,
                }
                for target, (calls, self_s, inclusive) in self.functions.items()
            ],
            "edges": [
                {"caller": caller, "callee": callee, "calls": calls}
                for (caller, callee), calls in sorted(self.edges.items())
            ],
        }


def _resolve(target: str):
    """``"module:Owner.attr"`` -> (Owner, "attr"); ``"module:f"`` -> (module, "f")."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr

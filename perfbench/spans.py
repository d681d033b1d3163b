"""Span recorder that wraps pqdist module attributes from outside the package.

Each target is a function reached through a module attribute (or an entry of
a module-level dict) at the point where its caller looks it up, so a span
measures the call as that caller sees it.  Installing a tracer replaces the
attributes with timing wrappers; removing it puts the originals back.  A
target whose module, attribute or dict entry no longer exists is reported as
absent instead of failing, so the benchmark survives refactors that rename or
delete internals.

A span is the tuple (name, start_ns, end_ns, parent_id, op_id, thread_id,
span_id).  Spans are appended to an in-memory list; the caller aggregates
them per pass and writes them out once when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

from catalog import LAYERS

# (span name, module, attribute, dict key or None).  The layer of a span is
# the part of its name before the first dot.
TARGETS = (
    ("sampling.states", "pqdist.fuzz", "states_batch", None),
    ("sampling.orthonormalize", "pqdist.fuzz", "_orthonormalize_triples", None),
    ("sampling.pair_weights", "pqdist.fuzz", "pair_weights_batch", None),
    ("sampling.matrices", "pqdist.fuzz", "distance_matrices_batch", None),
    ("fuzz.campaign", "pqdist.fuzz", "run_fuzz", None),
    ("fuzz.campaign", "pqdist.cli", "run_fuzz", None),
    ("fuzz.chunk", "pqdist.fuzz", "_KERNELS", "triangle"),
    ("fuzz.chunk", "pqdist.fuzz", "_KERNELS", "minorial"),
    ("fuzz.chunk", "pqdist.fuzz", "_KERNELS", "convexity"),
    ("fuzz.chunk", "pqdist.fuzz", "_KERNELS", "projector"),
    ("fuzz.chunk", "pqdist.fuzz", "_KERNELS", "reduction"),
    ("fuzz.chunk", "pqdist.fuzz", "_KERNELS", "w1"),
    ("checks.reevaluate", "pqdist.fuzz", "reevaluate_witness", None),
    ("checks.reduction", "pqdist.fuzz", "check_orthonormal_reduction", None),
    ("checks.triangle_defect", "pqdist.fuzz", "triangle_defect", None),
    ("checks.triangle_defect", "pqdist.checks", "triangle_defect", None),
    ("metric.dp_from_weights", "pqdist.checks", "dp_from_weights", None),
    ("metric.restricted_form_eigen", "pqdist.checks", "restricted_form_eigen", None),
    ("metric.hermitian_eig3", "pqdist.metric", "hermitian_eig3", None),
    ("metric.validate", "pqdist.cli", "validate_distance_matrix", None),
    ("exterior.gram_schmidt", "pqdist.checks", "gram_schmidt", None),
    ("exterior.hodge_basis", "pqdist.checks", "hodge_basis", None),
    ("optimize.solve", "pqdist.optimize", "minimize_defect_n3", None),
    ("fileio.write", "pqdist.fileio", "write_report", None),
    ("fileio.write", "pqdist.fileio", "save_matrix", None),
    ("fileio.read", "pqdist.fileio", "load_report", None),
    ("fileio.read", "pqdist.fileio", "load_matrix", None),
    ("cli.main", "pqdist.cli", "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._saved: list[tuple] = []
        self.absent: list[str] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # A worker thread's outermost span was caused by whatever the
        # dispatching (main) thread is blocked in.
        main = self._main_stack
        return main[-1] if main else -1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    (name, start, end, parent, self.op_id, threading.get_ident(), span_id)
                )

        return traced

    def install(self) -> None:
        """Replace every present target with a wrapper; note the absent ones."""
        self.absent = []
        for name, modname, attr, key in TARGETS:
            label = f"{modname}.{attr}" + (f"[{key!r}]" if key is not None else "")
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(label)
                continue
            holder = getattr(module, attr, None)
            if holder is None:
                self.absent.append(label)
                continue
            if key is None:
                if not callable(holder):
                    self.absent.append(label)
                    continue
                setattr(module, attr, self.wrap(name, holder))
                self._saved.append((module, attr, None, holder))
            else:
                if not isinstance(holder, dict) or key not in holder:
                    self.absent.append(label)
                    continue
                original = holder[key]
                holder[key] = self.wrap(name, original)
                self._saved.append((holder, None, key, original))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            holder, attr, key, original = self._saved.pop()
            if key is None:
                setattr(holder, attr, original)
            else:
                holder[key] = original


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def aggregate(spans: list[tuple]) -> dict:
    """Per-name and per-layer totals for one pass.

    Returns {"names": {name: {"calls", "s", "self_s"}},
             "layers": {layer: {"calls", "busy_s", "self_s"}}}.
    Self time is a span's duration minus the part of it covered by its
    children, which may run on other threads.  A layer's busy time counts
    only spans whose parent belongs to another layer, so nested spans of
    one layer are not counted twice.
    """
    by_id = {s[6]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s[3], []).append((s[1], s[2]))
    names = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in SPAN_NAMES}
    layers = {l: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for l in LAYERS}
    for s in spans:
        name, start, end, parent, _, _, span_id = s
        layer = name.split(".", 1)[0]
        dur = end - start
        self_ns = dur - _covered_ns(start, end, children.get(span_id, []))
        entry = names[name]
        entry["calls"] += 1
        entry["s"] += dur * 1e-9
        entry["self_s"] += self_ns * 1e-9
        lentry = layers[layer]
        lentry["calls"] += 1
        lentry["self_s"] += self_ns * 1e-9
        parent_span = by_id.get(parent)
        if parent_span is None or parent_span[0].split(".", 1)[0] != layer:
            lentry["busy_s"] += dur * 1e-9
    return {"names": names, "layers": layers}
